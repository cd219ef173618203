"""Hecke algebra, Markov trace, HOMFLY-PT values and the R-matrix oracle."""

import random
import sys
from collections import Counter
from itertools import product, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qlink.braid import MAX_STRANDS, BraidWord, closure_stats, mirror, parse_braid
from qlink.exactalg import IntLaurent, IntLaurent2, RatFun, RatFun2
from qlink.homfly import (
    HeckeElement,
    hecke_mul_gen,
    homfly,
    homfly_twist_coeff,
    mu_colored,
    ocneanu_trace,
    rt_invariant,
)
from qlink.qnum import qint

A = RatFun2.monomial(1, 1, 0)
Q = RatFun2.monomial(1, 0, 1)
ONE = RatFun2.from_int(1)

# The calibration in Z[a^+-1, q^+-1]: z = U / W, d = -q^-2, mu = q W / (q^2 - 1).
W = IntLaurent2({(1, 0): 1, (-1, 0): -1})  # a - a^-1
U = IntLaurent2({(1, 0): 1, (1, 2): -1})  # -q a (q - q^-1)
Q2_MINUS_1 = IntLaurent2({(0, 2): 1, (0, 0): -1})
Z = RatFun2(U, W)
D = RatFun2.monomial(-1, 0, -2)
MU = RatFun2(W.shift(0, 1), Q2_MINUS_1)


def random_word(rng: random.Random, max_len: int, max_strands: int) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(letters, n)


# ---------------------------------------------------------------------------
# Hecke algebra
# ---------------------------------------------------------------------------


def _laurent(c: dict) -> IntLaurent:
    """A coefficient map of z-power 0 as the Laurent polynomial in q it spells."""
    assert all(k == 0 for k, _ in c), c
    return IntLaurent({e: v for (_, e), v in c.items()})


def test_hecke_generator_on_identity():
    e = HeckeElement.identity(2)
    ge = hecke_mul_gen(e, 1, 1)
    assert ge.terms == {(2, 1): {(0, 0): 1}}


def test_hecke_quadratic_relation():
    g = hecke_mul_gen(HeckeElement.identity(2), 1, 1)
    g2 = hecke_mul_gen(g, 1, 1)
    assert g2.terms == {(1, 2): {(0, 2): 1}, (2, 1): {(0, 0): 1, (0, 2): -1}}


def test_hecke_inverse_formula():
    e = hecke_mul_gen(HeckeElement.identity(2), 1, -1)
    assert e.terms == {(2, 1): {(0, -2): 1}, (1, 2): {(0, 0): 1, (0, -2): -1}}


def test_hecke_generator_inverse_cancels():
    rng = random.Random(31)
    for _ in range(20):
        w = random_word(rng, 6, 4)
        e = HeckeElement.from_braid(w)
        i = rng.randint(1, w.strands - 1)
        back = hecke_mul_gen(hecke_mul_gen(e, i, 1), i, -1)
        assert back == e


def test_hecke_braid_relation_in_algebra():
    e = HeckeElement.identity(3)
    lhs = hecke_mul_gen(hecke_mul_gen(hecke_mul_gen(e, 1, 1), 2, 1), 1, 1)
    rhs = hecke_mul_gen(hecke_mul_gen(hecke_mul_gen(e, 2, 1), 1, 1), 2, 1)
    assert lhs == rhs


def test_hecke_index_range():
    with pytest.raises(ValueError):
        hecke_mul_gen(HeckeElement.identity(2), 2, 1)


# ---------------------------------------------------------------------------
# Markov trace
# ---------------------------------------------------------------------------


def test_calibration():
    # the unknot value, and the framed stabilization factors q^-1 a and q a^-1
    # (tau(g^-1) = q^-2 z - (q^-2 - 1))
    assert MU == (A - A.inverse()) / (Q - Q.inverse())
    assert MU * D * Z == Q.inverse() * A
    qm2 = Q.inverse() ** 2
    assert MU * D.inverse() * (qm2 * Z - (qm2 - ONE)) == Q * A.inverse()


def test_trace_normalization():
    for n in range(1, 5):
        assert ocneanu_trace(HeckeElement.identity(n)) == ONE


def test_trace_of_generator_is_z():
    e = hecke_mul_gen(HeckeElement.identity(2), 1, 1)
    assert ocneanu_trace(e) == Z


def test_trace_of_cubed_generator():
    e = HeckeElement.from_braid(parse_braid("1 1 1"))
    q2 = RatFun2.monomial(1, 0, 2)
    expected = ((ONE - q2) ** 2 + q2) * Z + q2 * (ONE - q2)
    assert ocneanu_trace(e) == expected


def test_trace_markov_property():
    # tau(x g_{n-1}) = z tau(x) for x in the smaller algebra
    rng = random.Random(37)
    for _ in range(15):
        n = rng.randint(2, 4)
        w = random_word(rng, 5, n)
        e = HeckeElement.from_braid(BraidWord(w.letters, n + 1))
        stabilized = hecke_mul_gen(e, n, 1)
        assert ocneanu_trace(stabilized) == Z * ocneanu_trace(HeckeElement.from_braid(w))


def _reference_trace(e: HeckeElement, cache: dict) -> RatFun2:
    """The Markov trace over the fraction field: the same coset recursion, but
    every coefficient is a canonical fraction and z is multiplied in at every
    level instead of once at the end."""

    def basis(w):
        n = len(w)
        if n <= 1:
            return ONE
        if w not in cache:
            if w[-1] == n:
                cache[w] = basis(w[:-1])
            else:
                j = w.index(n) + 1
                elem = HeckeElement(n - 1, {tuple(v for v in w if v != n): {(0, 0): 1}})
                for i in range(n - 2, j - 1, -1):
                    elem = hecke_mul_gen(elem, i, 1)
                cache[w] = Z * combination(elem)
        return cache[w]

    def combination(elem):
        acc = RatFun2.zero()
        for w, c in elem.terms.items():
            acc = acc + RatFun.from_laurent(_laurent(c)).to_ratfun2() * basis(w)
        return acc

    return combination(e)


def test_trace_matches_fraction_field_reference():
    cache: dict = {}
    words = [
        BraidWord(letters, 3)
        for length in range(5)
        for letters in product((1, -1, 2, -2), repeat=length)
    ]
    rng = random.Random(73)
    words += [random_word(rng, 6, 5) for _ in range(30)]
    for w in words:
        e = HeckeElement.from_braid(w)
        assert ocneanu_trace(e) == _reference_trace(e, cache), w


def test_hecke_and_trace_stay_in_the_polynomial_ring(monkeypatch):
    # Hecke arithmetic and the trace run no fraction operation and no
    # polynomial gcd; only the final evaluation at z does.
    import qlink.exactalg.ratfun as ratfun
    from qlink.homfly import _trace

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in ("laurent_gcd", "laurent2_gcd"):
        monkeypatch.setattr(ratfun, name, counted(name, getattr(ratfun, name)))
    for name in ("__add__", "__mul__"):
        monkeypatch.setattr(RatFun2, name, counted(name, getattr(RatFun2, name)))
    rng = random.Random(79)
    traces = []
    for _ in range(10):
        e = HeckeElement.from_braid(random_word(rng, 6, 5))
        traces.append(_trace(e))
    assert all(traces) and not calls
    ocneanu_trace(e)
    assert calls["laurent2_gcd"] > 0  # the counters do see the evaluation


def test_trace_at_max_strands_takes_no_frame_per_strand():
    # 100 frames of headroom cover a closure on MAX_STRANDS strands: the trace
    # runs level by level, not by recursion.  sigma_(n-1) on n strands closes to
    # the unlink on n - 1 strands with one positive kink, a factor q^-1 a.
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        kinked = homfly(parse_braid(str(MAX_STRANDS - 1)))
        unlink = homfly(parse_braid("", strands=MAX_STRANDS - 1))
    finally:
        sys.setrecursionlimit(limit)
    assert kinked == Q.inverse() * A * unlink


# ---------------------------------------------------------------------------
# HOMFLY-PT values
# ---------------------------------------------------------------------------


def test_unknot_value():
    assert homfly(parse_braid("", strands=1)) == MU


def test_unlinks():
    for n in range(1, 5):
        assert homfly(parse_braid("", strands=n)) == MU**n


def test_stabilized_unknot():
    expected = (A * A - ONE) / (Q * Q - ONE)
    assert homfly(parse_braid("1")) == expected
    assert homfly(parse_braid("1")) == MU * A * Q.inverse()


def test_negative_kink():
    assert homfly(parse_braid("-1")) == Q * A.inverse() * MU


def test_trefoil_satisfies_skein_triple():
    tref = homfly(parse_braid("1 1 1"))
    hopf = homfly(parse_braid("1 1"))
    s1 = homfly(parse_braid("1"))
    assert Q * tref - Q.inverse() * s1 == (Q - Q.inverse()) * hopf


def test_skein_relation_random():
    rng = random.Random(41)
    for _ in range(25):
        w = random_word(rng, 6, 4)
        n = w.strands
        pos = rng.randint(0, len(w.letters))
        i = rng.randint(1, n - 1)
        u, v = w.letters[:pos], w.letters[pos:]
        plus = homfly(BraidWord(u + (i,) + v, n))
        minus = homfly(BraidWord(u + (-i,) + v, n))
        zero = homfly(BraidWord(u + v, n))
        assert Q * plus - Q.inverse() * minus == (Q - Q.inverse()) * zero


def test_conjugation_invariance():
    rng = random.Random(43)
    for _ in range(20):
        w = random_word(rng, 7, 4)
        k = rng.randint(0, max(0, len(w.letters)))
        rotated = BraidWord(w.letters[k:] + w.letters[:k], w.strands)
        assert homfly(w) == homfly(rotated)


def test_framed_stabilization():
    rng = random.Random(47)
    for _ in range(15):
        w = random_word(rng, 6, 3)
        n = w.strands
        up = BraidWord(w.letters + (n,), n + 1)
        down = BraidWord(w.letters + (-n,), n + 1)
        assert homfly(up) == Q.inverse() * A * homfly(w)
        assert homfly(down) == Q * A.inverse() * homfly(w)


def test_free_cancellation():
    rng = random.Random(53)
    for _ in range(15):
        w = random_word(rng, 6, 4)
        pos = rng.randint(0, len(w.letters))
        i = rng.randint(1, w.strands - 1)
        padded = BraidWord(w.letters[:pos] + (i, -i) + w.letters[pos:], w.strands)
        assert homfly(padded) == homfly(w)


def test_braid_relation_invariance():
    rng = random.Random(59)
    for _ in range(15):
        w = random_word(rng, 5, 4)
        n = max(w.strands, 3)
        w = BraidWord(w.letters, n)
        i = rng.randint(1, n - 2)
        pos = rng.randint(0, len(w.letters))
        lhs = BraidWord(w.letters[:pos] + (i, i + 1, i) + w.letters[pos:], n)
        rhs = BraidWord(w.letters[:pos] + (i + 1, i, i + 1) + w.letters[pos:], n)
        assert homfly(lhs) == homfly(rhs)


def test_mirror_symmetry():
    rng = random.Random(61)
    for _ in range(15):
        w = random_word(rng, 6, 4)
        assert homfly(mirror(w)) == homfly(w).subs_bar()


def test_a_parity_matches_strand_count():
    # a-parity of the value is the strand count mod 2, equivalently
    # (components + writhe) mod 2 of the closure.
    rng = random.Random(67)
    for _ in range(20):
        w = random_word(rng, 6, 4)
        h = homfly(w)
        parities = h.a_parities()
        assert parities == {w.strands % 2}
        stats = closure_stats(w)
        assert (stats.components + stats.writhe) % 2 == w.strands % 2


def _add_scaled(acc: tuple, c: IntLaurent, coeffs: tuple) -> tuple:
    """acc + c * coeffs, coefficientwise in z."""
    return tuple(x + c * t for x, t in zip_longest(acc, coeffs, fillvalue=IntLaurent.zero()))


_BASIS_COEFFS: dict = {}


def _basis_coeffs(w: tuple[int, ...]) -> tuple[IntLaurent, ...]:
    """Markov trace of a T-basis element as its coefficients of z^0, z^1, ...,
    by the same coset recursion summed as polynomials: the oracle of the flat
    basis traces."""
    n = len(w)
    if n <= 1:
        return (IntLaurent.one(),)
    if w not in _BASIS_COEFFS:
        if w[-1] == n:
            val = _basis_coeffs(w[:-1])
        else:
            j = w.index(n) + 1
            elem = HeckeElement(n - 1, {tuple(v for v in w if v != n): {(0, 0): 1}})
            for i in range(n - 2, j - 1, -1):
                elem = hecke_mul_gen(elem, i, 1)
            acc: tuple[IntLaurent, ...] = ()
            for w2, c2 in elem.terms.items():
                acc = _add_scaled(acc, _laurent(c2), _basis_coeffs(w2))
            val = (IntLaurent.zero(), *acc)
        _BASIS_COEFFS[w] = val
    return _BASIS_COEFFS[w]


def _trace_coeffs(e: HeckeElement) -> tuple[IntLaurent, ...]:
    """Markov trace of e as its coefficients of z^0, z^1, ..., summed as
    polynomials: the oracle of the level-by-level `_trace`."""
    acc: tuple[IntLaurent, ...] = ()
    for w, c in e.terms.items():
        acc = _add_scaled(acc, _laurent(c), _basis_coeffs(w))
    return acc


def _flat(coeffs) -> dict:
    """z-coefficient tuple -> {(z-power, q-exponent): coefficient}, the form of a trace."""
    return {(k, e): v for k, c in enumerate(coeffs) for e, v in c.items()}


def _times_mu_power(coeffs: tuple[IntLaurent, ...], m: int) -> IntLaurent2:
    """sum_k c_k U^k W^(m-k) = (q - q^-1)^m mu^m sum_k c_k z^k (m >= k), by Horner
    in U over IntLaurent2 products: the oracle of `_closure_numerator`."""
    acc, wk = IntLaurent2.zero(), W ** (m + 1 - len(coeffs))
    for c in reversed(coeffs):
        acc = acc * U + IntLaurent2.from_q(c) * wk
        wk = wk * W
    return acc


def _reference_homfly(w: BraidWord) -> RatFun2:
    """The closure value over the fraction field: the trace's z-coefficients
    evaluated by Horner at z, times the prefactor mu^n d^writhe."""
    tau = RatFun2.zero()
    for c in reversed(_trace_coeffs(HeckeElement.from_braid(w))):
        tau = tau * Z + RatFun2(IntLaurent2.from_q(c))
    return MU ** w.strands * D ** w.writhe * tau


def _oracle_words() -> list[BraidWord]:
    """All three-strand words up to length 4, 50 random words on 2-6 strands
    and the twist words (1..n-1)^3 (-1..-(n-1)) for n = 4..7."""
    words = [
        BraidWord(letters, 3)
        for length in range(5)
        for letters in product((1, -1, 2, -2), repeat=length)
    ]
    rng = random.Random(83)
    words += [random_word(rng, 8, 6) for _ in range(50)]
    for n in range(4, 8):
        up = tuple(range(1, n))
        words.append(BraidWord(up * 3 + tuple(-i for i in up), n))
    return words


def test_homfly_matches_fraction_field_reference():
    words = _oracle_words()
    assert len(words) == 341 + 50 + 4
    for w in words:
        h = homfly(w)
        assert h == _reference_homfly(w), w
        assert h.den == Q2_MINUS_1 ** closure_stats(w).components, w


def _count_gcds_and_fraction_ops(monkeypatch) -> Counter:
    import qlink.exactalg.laurent as laurent
    import qlink.exactalg.ratfun as ratfun

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for owner in (laurent, ratfun):
        for name in ("laurent_gcd", "laurent2_gcd"):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    for name in ("__add__", "__mul__"):
        monkeypatch.setattr(RatFun2, name, counted(name, getattr(RatFun2, name)))
    return calls


def test_homfly_runs_no_gcd_and_no_fraction_arithmetic(monkeypatch):
    calls = _count_gcds_and_fraction_ops(monkeypatch)
    for w in _oracle_words():
        homfly(w)
    assert not calls


def _fact_words() -> list[BraidWord]:
    """The oracle words, the torus words (1..n-1)^n and (1..n-1)^(n+1) on 6 and
    7 strands, and 200 seeded random words on 2-7 strands."""
    rng = random.Random(89)
    torus = [BraidWord(tuple(range(1, n)) * k, n) for n in (6, 7) for k in (n, n + 1)]
    return _oracle_words() + torus + [random_word(rng, 12, 7) for _ in range(200)]


def test_trace_coefficients_carry_powers_of_q2_minus_1():
    # the fact that makes the closure value canonical as built: with r = n - c,
    # (q^2 - 1)^(r - k) divides the z^k coefficient c_k of the braid's trace, and
    # c_r = 1 at q = +-1
    from qlink.exactalg.laurent import laurent_divide_exact
    from qlink.homfly import _trace

    t_minus_1 = IntLaurent({2: 1, 0: -1})
    for w in _fact_words():
        r = w.strands - closure_stats(w).components
        tau = _trace(HeckeElement.from_braid(w))
        coeffs = [IntLaurent({e: v for (j, e), v in tau.items() if j == k}) for k in range(w.strands)]
        for k, c in enumerate(coeffs[:r]):
            laurent_divide_exact(c, t_minus_1 ** (r - k))  # raises ArithmeticError if inexact
        assert sum(v for _, v in coeffs[r].items()) == sum(v * (-1) ** e for e, v in coeffs[r].items()) == 1, w


def test_homfly_numerators_are_free_of_q_minus_1_and_q_plus_1():
    # at q = +-1 the numerator is (-1)^e q^(n - 2e) W^c S(a) with S(1) = (-1)^(n - c):
    # neither q - 1 nor q + 1 divides it, so it needs no gcd
    from qlink.exactalg.laurent import _divide2_or_none, laurent_divide_exact

    w_a = IntLaurent({1: 1, -1: -1})  # W = a - a^-1 as a polynomial in a
    for w in _fact_words():
        n, e, c = w.strands, w.writhe, closure_stats(w).components
        num = homfly(w).num
        for f in (IntLaurent({1: 1, 0: -1}), IntLaurent({1: 1, 0: 1})):
            assert _divide2_or_none(num, IntLaurent2.from_q(f)) is None, (w, f)
        for q0 in (1, -1):
            at_q0 = Counter()
            for (a, q), v in num.items():
                at_q0[a] += v * q0**q
            s = laurent_divide_exact(IntLaurent(dict(at_q0)), w_a**c)
            assert sum(v for _, v in s.items()) == (-1) ** (e + n - c) * q0 ** (n - 2 * e), (w, q0)


def test_homfly_a_exponents_have_the_parity_of_the_strand_count():
    # every term of the closure value has a-degree = n mod 2 (its denominator is
    # free of a), so its x-specialization has one v-parity: `numeric_sweep`
    # evaluates that one parity's terms at q0
    for w in _fact_words():
        h = homfly(w)
        assert {d for (d, _), _ in h.den.items()} == {0}, w
        assert {d % 2 for (d, _), _ in h.num.items()} == {w.strands % 2}, w


def test_flat_basis_traces_match_polynomial_recursion():
    # the level-by-level trace of each single T_w against the coset recursion,
    # over the basis elements of the oracle words and of the torus words
    # (1..n-1)^n and (1..n-1)^(n+1) on 6 and 7 strands, which reach all n! of them
    from qlink.homfly import _trace

    words = _oracle_words() + [BraidWord(tuple(range(1, n)) * k, n) for n in (6, 7) for k in (n, n + 1)]
    basis = {b for w in words for b in HeckeElement.from_braid(w).terms}
    assert len(basis) > 5040
    for b in basis:
        assert _trace(HeckeElement(len(b), {b: {(0, 0): 1}})) == _flat(_basis_coeffs(b)), b


def test_flat_trace_sum_matches_polynomial_sum():
    from qlink.homfly import _trace

    for w in _oracle_words():
        e = HeckeElement.from_braid(w)
        assert _trace(e) == _flat(_trace_coeffs(e)), w


def test_closure_numerator_matches_products_and_kronecker_division():
    from qlink.exactalg.laurent import laurent2_divide_exact
    from qlink.homfly import _closure_numerator

    for w in _oracle_words():
        n, e, c = w.strands, w.writhe, closure_stats(w).components
        coeffs = _trace_coeffs(HeckeElement.from_braid(w))
        expected = laurent2_divide_exact(
            _times_mu_power(coeffs, n).shift(0, n - 2 * e), Q2_MINUS_1 ** (n - c)
        )
        assert _closure_numerator(_flat(coeffs), n, n - c, n - 2 * e) == expected, w
        assert _closure_numerator(_flat(coeffs), n, n - c, n - 2 * e, -1) == -expected, w


def test_closure_numerator_raises_on_an_inexact_division():
    from qlink.homfly import _closure_numerator

    with pytest.raises(ArithmeticError):
        _closure_numerator({(0, 0): 1}, 1, 1)  # N = W = a - a^-1
    with pytest.raises(ArithmeticError):
        _closure_numerator({(0, 1): 1, (1, 0): 1}, 2, 1)  # N = q W^2 + U W, both q-parities
    assert _closure_numerator({(1, 0): 1}, 1, 1) == IntLaurent2.term(-1, 1, 0)  # U / (q^2 - 1)


def test_q2_minus_1_power_is_the_binomial_expansion():
    from math import comb

    from qlink.homfly import _q2_minus_1_power

    for c in (*range(61), 1999):
        expected = IntLaurent2({(0, 2 * i): (-1) ** (c - i) * comb(c, i) for i in range(c + 1)})
        assert _q2_minus_1_power(c) == expected, c
    assert _q2_minus_1_power(5) == Q2_MINUS_1 ** 5


laurents = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9), max_size=4).map(IntLaurent)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(laurents, min_size=1, max_size=n + 1))
    ),
    st.integers(0, 4),
    st.integers(-4, 4),
    st.sampled_from((1, -1)),
)
@example((3, [IntLaurent(), IntLaurent()]), 2, 0, 1)  # all zero
@example((2, [IntLaurent({-3: 1}), IntLaurent({1: 2, 2: -1})]), 1, 1, -1)  # odd exponents
@example((3, [IntLaurent({0: -1, 2: 1}), IntLaurent({1: 2, 2: -1})]), 1, 0, 1)  # only c_0 is divided
def test_closure_numerator_on_random_coefficients(n_coeffs, r, dq, sign):
    # with a planted factor (q^2 - 1)^r the quotient is the undivided sum of
    # the original coefficients; without it, the builder raises exactly when
    # some c_k with k < r is not divisible by (q^2 - 1)^(r - k), and otherwise
    # equals the Kronecker quotient
    from qlink.exactalg.laurent import _divide_or_none, laurent2_divide_exact
    from qlink.homfly import _closure_numerator

    n, coeffs = n_coeffs
    t_minus_1 = IntLaurent({0: -1, 2: 1})
    got = _closure_numerator(_flat(tuple(c * t_minus_1**r for c in coeffs)), n, r, dq, sign)
    assert got == _times_mu_power(coeffs, n).shift(0, dq).scale(sign)
    if any(_divide_or_none(c, t_minus_1 ** (r - k)) is None for k, c in enumerate(coeffs[:r])):
        with pytest.raises(ArithmeticError):
            _closure_numerator(_flat(coeffs), n, r, dq, sign)
    else:
        expected = laurent2_divide_exact(_times_mu_power(coeffs, n).shift(0, dq), Q2_MINUS_1**r)
        assert _closure_numerator(_flat(coeffs), n, r, dq, sign) == expected.scale(sign)


def test_homfly_runs_no_kronecker_division_and_no_two_variable_product(monkeypatch):
    import sys

    import qlink.exactalg.laurent as laurent

    calls = Counter()
    divide = laurent.laurent2_divide_exact

    def counted_divide(*args):
        calls["laurent2_divide_exact"] += 1
        return divide(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qlink") and getattr(module, "laurent2_divide_exact", None) is divide:
            monkeypatch.setattr(module, "laurent2_divide_exact", counted_divide)
    mul = IntLaurent2.__mul__

    def counted_mul(*args):
        calls["IntLaurent2.__mul__"] += 1
        return mul(*args)

    monkeypatch.setattr(IntLaurent2, "__mul__", counted_mul)
    for w in _oracle_words():
        homfly(w)
    assert not calls
    RatFun2._div(Q2_MINUS_1, Q2_MINUS_1)
    Q2_MINUS_1 * Q2_MINUS_1
    assert calls == {"laurent2_divide_exact": 1, "IntLaurent2.__mul__": 1}  # the counters work


# ---------------------------------------------------------------------------
# closed-form scalars
# ---------------------------------------------------------------------------


def test_mu_colored_base():
    assert mu_colored(1) == MU


def test_mu_colored_two():
    digon = (A * Q.inverse() - A.inverse() * Q) / (Q - Q.inverse())
    expected = MU * digon * Q / RatFun.from_laurent(qint(2)).to_ratfun2()
    assert mu_colored(2) == expected


def test_mu_colored_recursion():
    for k in range(2, 6):
        step = (
            (A * Q ** (1 - k) - A.inverse() * Q ** (k - 1))
            / (Q - Q.inverse())
            * Q ** (k - 1)
            / RatFun.from_laurent(qint(k)).to_ratfun2()
        )
        assert mu_colored(k) == mu_colored(k - 1) * step


def test_twist_coefficients():
    assert homfly_twist_coeff(1, 1) == A.inverse() * Q
    assert homfly_twist_coeff(2, 1) == RatFun2.monomial(1, -2, 6)
    for k in range(1, 6):
        assert homfly_twist_coeff(k, 1) * homfly_twist_coeff(k, -1) == ONE


def test_mu_colored_integer_specialization_is_binomial():
    # at a = q^n the k-colored circle is q^(-k(n-k)) {n choose k}; in
    # particular it vanishes for k > n.
    from qlink.qnum import qbinomial

    for n in range(1, 6):
        for k in range(1, 7):
            lhs = mu_colored(k).subs_a_power_of_q(n)
            assert lhs == RatFun.q_power(-k * (n - k)) * qbinomial(n, k)
            if k > n:
                assert lhs.is_zero()


# ---------------------------------------------------------------------------
# R-matrix oracle
# ---------------------------------------------------------------------------


def _rmatrix_dense(n: int, sign: int):
    """Dense matrix of the braiding on V (x) V, indexed by color pairs."""
    from qlink.exactalg import IntLaurent
    from qlink.homfly import _rmatrix_rules

    pos, neg = _rmatrix_rules(n)
    rules = pos if sign > 0 else neg
    pairs = [(x, y) for x in range(n) for y in range(n)]
    index = {p: i for i, p in enumerate(pairs)}
    mat = [[IntLaurent.zero() for _ in pairs] for _ in pairs]
    for p in pairs:
        for target, coeff in rules[p]:
            mat[index[target]][index[p]] = coeff
    return pairs, mat


def _mat_mul(a, b):
    from qlink.exactalg import IntLaurent

    size = len(a)
    return [
        [
            sum((a[i][k] * b[k][j] for k in range(size)), IntLaurent.zero())
            for j in range(size)
        ]
        for i in range(size)
    ]


def test_rmatrix_quadratic_and_inverse():
    from qlink.exactalg import IntLaurent

    for n in (2, 3):
        pairs, S = _rmatrix_dense(n, 1)
        _, S_inv = _rmatrix_dense(n, -1)
        size = len(pairs)
        ident = [
            [IntLaurent.one() if i == j else IntLaurent.zero() for j in range(size)]
            for i in range(size)
        ]
        assert _mat_mul(S, S_inv) == ident
        # (S - 1)(S + q^2) = 0
        q2 = IntLaurent.q_power(2)
        s_minus = [[S[i][j] - ident[i][j] for j in range(size)] for i in range(size)]
        s_plus = [
            [S[i][j] + (ident[i][j] * q2) for j in range(size)] for i in range(size)
        ]
        zero = [[IntLaurent.zero()] * size for _ in range(size)]
        assert _mat_mul(s_minus, s_plus) == zero


def test_rmatrix_braid_relation():
    # S_12 S_23 S_12 = S_23 S_12 S_23 on V (x) V (x) V, checked by direct
    # application to every basis state.
    from qlink.exactalg import IntLaurent
    from qlink.homfly import _rmatrix_rules
    from itertools import product as iproduct

    for n in (2, 3):
        pos, _ = _rmatrix_rules(n)

        def apply_at(vec, slot):
            out = {}
            for state, amp in vec.items():
                for (x2, y2), coeff in pos[(state[slot], state[slot + 1])]:
                    s2 = state[:slot] + (x2, y2) + state[slot + 2 :]
                    acc = out.get(s2, IntLaurent.zero()) + amp * coeff
                    if acc.is_zero():
                        out.pop(s2, None)
                    else:
                        out[s2] = acc
            return out

        for start in iproduct(range(n), repeat=3):
            lhs = {start: IntLaurent.one()}
            rhs = {start: IntLaurent.one()}
            for slot in (0, 1, 0):
                lhs = apply_at(lhs, slot)
            for slot in (1, 0, 1):
                rhs = apply_at(rhs, slot)
            assert lhs == rhs


def test_rt_unknot():
    from qlink.exactalg import IntLaurent

    # mu at a = q^2 is q + q^-1
    assert rt_invariant(parse_braid("", strands=1), 2) == RatFun(IntLaurent({-1: 1, 1: 1}))
    assert rt_invariant(parse_braid("", strands=1), 3) == RatFun(IntLaurent({-2: 1, 0: 1, 2: 1}))


def test_rt_stabilized_unknot():
    assert rt_invariant(parse_braid("1"), 2) == RatFun.from_laurent(qint(2))
    assert rt_invariant(parse_braid("1"), 3) == RatFun.from_laurent(qint(3))


def test_unframed_values_match_classical_homfly_tables():
    # External anchor for the full two-variable invariant: after removing
    # the framing and the circle factor, values agree with the classical
    # v-z tables under v = a^-1, z = q - q^-1 (direction fixed by the
    # skein a P+ - a^-1 P- = z P0 our normalization satisfies).
    def reduced_unframed(w):
        return homfly(w) * (A.inverse() * Q) ** w.writhe / MU

    z = Q - Q.inverse()
    v = A.inverse()
    tref = parse_braid("1 1 1")
    assert reduced_unframed(tref) == 2 * v**2 - v**4 + v**2 * z * z
    t25 = parse_braid("1 1 1 1 1")
    assert reduced_unframed(t25) == 3 * v**4 - 2 * v**6 + (4 * v**4 - v**6) * z * z + v**4 * z**4
    fig8 = parse_braid("1 -2 1 -2")
    assert reduced_unframed(fig8) == v**-2 - ONE + v**2 - z * z
    # mirror image: v -> v^-1
    assert reduced_unframed(mirror(tref)) == 2 * v**-2 - v**-4 + v**-2 * z * z


def test_unframed_rank2_values_match_classical_jones():
    # External anchor: q^-writhe * rt(w, 2) is the unreduced Jones value
    # V(t = q^2) * (q + q^-1).  The figure-eight is amphichiral, so its
    # value pins the normalization independently of any chirality
    # convention; the torus knots document which handedness the positive
    # letters carry under t = q^2.
    from qlink.exactalg import IntLaurent

    def unreduced_jones(vdict):
        v = IntLaurent({2 * e: c for e, c in vdict.items()})
        return RatFun.from_laurent(v * IntLaurent({1: 1, -1: 1}))

    fig8 = parse_braid("1 -2 1 -2")
    got = RatFun.q_power(-fig8.writhe) * rt_invariant(fig8, 2)
    assert got == unreduced_jones({-2: 1, -1: -1, 0: 1, 1: -1, 2: 1})

    tref = parse_braid("1 1 1")
    got = RatFun.q_power(-tref.writhe) * rt_invariant(tref, 2)
    assert got == unreduced_jones({-1: 1, -3: 1, -4: -1})

    t25 = parse_braid("1 1 1 1 1")
    got = RatFun.q_power(-t25.writhe) * rt_invariant(t25, 2)
    assert got == unreduced_jones({-2: 1, -4: 1, -5: -1, -6: 1, -7: -1})


def test_rt_matches_homfly_specialization():
    rng = random.Random(71)
    for _ in range(12):
        w = random_word(rng, 6, 3)
        h = homfly(w)
        for n in (2, 3):
            assert h.subs_a_power_of_q(n) == rt_invariant(w, n)
