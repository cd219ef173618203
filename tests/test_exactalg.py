"""Exact-arithmetic substrate: canonical fractions, series, quadratic extension."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlink.exactalg.laurent as laurent
import qlink.exactalg.nu as nu_module
from qlink.braid import BraidWord, mirror, parse_braid
from qlink.exactalg import (
    IntLaurent,
    IntLaurent2,
    NuValue,
    PoleError,
    RatFun,
    RatFun2,
    TruncSeries,
    laurent_gcd,
    normalize,
    normalize2,
    nu_power,
    parse_nu,
    parse_ratfun,
    parse_ratfun2,
    series_expand,
    specialize_a,
)
from qlink.exactalg.laurent import laurent2_divide_exact, laurent2_gcd, laurent_divide_exact
from qlink.exactalg.textio import format_nu, format_ratfun, format_ratfun2
from qlink.homfly import homfly
from qlink.qnum import left_qdelta, qdelta, qrational


def L(d):
    return IntLaurent(d)


def rf(num, den=None):
    return RatFun(L(num), L(den) if den is not None else None)


def count_calls(monkeypatch, owner, names) -> Counter:
    """Wrap `owner.<name>` for each name with a call counter."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def repeated_product(f, n):
    """f ** n as |n| products of f, or of f.inverse() when n < 0."""
    base = f if n >= 0 else f.inverse()
    out = f.one()
    for _ in range(abs(n)):
        out = out * base
    return out


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_cancels_common_factor():
    # (q^4 - 1)/(q^2 - 1) -> q^2 + 1
    f = normalize(L({4: 1, 0: -1}), L({2: 1, 0: -1}))
    assert f == rf({2: 1, 0: 1})


def test_normalize_absorbs_monomial_denominator():
    # (1 + q^2)/q^2 -> q^-2 + 1 over 1
    f = normalize(L({0: 1, 2: 1}), L({2: 1}))
    assert f.den.is_one()
    assert f.num == L({-2: 1, 0: 1})


def test_normalize_strips_shared_content():
    # (2 + 2q^2)/4 -> (1 + q^2)/2
    f = normalize(L({0: 2, 2: 2}), L({0: 4}))
    assert f.num == L({0: 1, 2: 1})
    assert f.den == L({0: 2})


def test_normalize_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        normalize(L({0: 1}), L({}))


def test_normalize_idempotent():
    f = normalize(L({4: 2, 0: -2}), L({2: 6, 0: -6}))
    again = normalize(f.num, f.den)
    assert f == again


# ---------------------------------------------------------------------------
# field operations / invert_q / evaluate
# ---------------------------------------------------------------------------


def test_field_op_examples():
    q2 = rf({2: 1})
    one = RatFun.one()
    assert q2 + one == rf({0: 1, 2: 1})
    assert rf({4: 1, 0: -1}) / rf({2: 1, 0: -1}) == rf({2: 1, 0: 1})
    f = rf({2: 1}, {0: 1, 2: 1})  # q^2/(1+q^2)
    g = rf({0: 1, 2: 1}, {2: 1})  # (1+q^2)/q^2
    assert f * g == one


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFun.one() / RatFun.zero()


def test_rings_stay_apart_and_hash_consistently():
    # the q and (a, q) types share their arithmetic code but not their values
    assert IntLaurent.one() != IntLaurent2.one()
    assert IntLaurent.zero() != IntLaurent2.zero()
    assert RatFun.one() != RatFun2.one()
    assert RatFun.zero() != RatFun2.zero()
    for n in (0, 1, -3):
        for f in (RatFun.from_int(n), RatFun2.from_int(n)):
            assert f == n and n == f
            # equal values must meet in sets and dicts
            assert n in {f} and f in {n}
            assert {n: "v"}.get(f) == "v" and {f: "v"}.get(n) == "v"
    assert 1 in {rf({0: 1, 2: 1}) - RatFun.q_power(2)}
    assert -1 in {RatFun2.monomial(1, 1, 0) * RatFun2.monomial(-1, -1, 0)}
    assert hash(rf({0: 1, 2: 1}) - 1) == hash(RatFun.q_power(2))
    a, t = IntLaurent2.term(1, 1, 0), IntLaurent2({(0, 2): 1, (0, 0): -1})
    built = RatFun2((a + IntLaurent2.one()) * t, t)  # (a + 1)(q^2 - 1)/(q^2 - 1)
    assert built == RatFun2(a + IntLaurent2.one())
    assert hash(built) == hash(RatFun2(a + IntLaurent2.one()))
    assert hash(L({0: 1, 3: -2})) == hash(IntLaurent.term(-2, 3) + IntLaurent.one())
    assert hash(IntLaurent2({(1, 2): 5})) == hash(IntLaurent2.term(5, 1, 2))


def test_an_int_operand_is_the_constant_polynomial():
    # so that `homfly._closure_at`, written for integers, runs over Z[q^+-1] unchanged
    p = L({-1: 2, 3: -1})
    for n in (0, 1, -3):
        c = IntLaurent.term(n)
        assert p + n == n + p == p + c and p - n == p - c
        assert p * n == n * p == p * c == p.scale(n)
        assert IntLaurent2.term(1, 1, 2) + n == n + IntLaurent2.term(1, 1, 2) == IntLaurent2({(1, 2): 1, (0, 0): n})
    assert 0 * p == IntLaurent.zero() and not (0 * p)
    assert sum([p, p, 1]) == L({-1: 4, 3: -2, 0: 1})


def test_every_entrance_refuses_a_denominator_in_a(monkeypatch):
    import qlink.exactalg.ratfun as ratfun

    a, q, one = IntLaurent2.term(1, 1, 0), IntLaurent2.term(1, 0, 1), IntLaurent2.one()
    value, in_a = RatFun2(a + q, q * q - one), RatFun2(a + q)
    calls = count_calls(monkeypatch, ratfun, ("laurent_gcd", "laurent2_gcd"))
    entrances = [
        lambda: RatFun2(a * a - one, a - one),  # (a^2 - 1)/(a - 1)
        lambda: RatFun2(IntLaurent2.zero(), a + q),
        lambda: normalize2(one, (a + q) * (q * q - one)),
        lambda: RatFun2._reduced(one, a.shift(-2, 0) + q),
        lambda: in_a.inverse(),
        lambda: value / in_a,
        lambda: in_a ** -2,
        lambda: parse_ratfun2("(a^2-1)/(a-1)"),
        lambda: parse_ratfun2("q/(a+q^2)"),
    ]
    for entrance in entrances:
        with pytest.raises(ValueError, match="^denominator depends on a$"):
            entrance()
    assert not calls  # refused before any gcd runs
    # a monomial in a moves to the numerator
    assert RatFun2(q, a.shift(2, 1)) == RatFun2.monomial(1, -3, 0)
    moved = RatFun2(a + q, a * (q * q - one))
    assert (moved.num, moved.den) == ((a + q).shift(-1, 0), q * q - one)
    assert value.a_parities() == {0, 1} and RatFun2(a, q + one).a_parities() == {1}


def test_invert_q_examples():
    f = rf({0: 1, 2: 1})
    assert f.invert_q() == rf({0: 1, 2: 1}, {2: 1})
    assert rf({2: 1}).invert_q() == rf({-2: 1})
    g = rf({0: 1, 2: 2, 4: 1, 6: 1}, {0: 1, 2: 1})
    assert g.invert_q().invert_q() == g


def test_evaluate_at_examples():
    assert rf({0: 1, 2: 1}).evaluate(2) == 5
    half = qrational(Fraction(1, 2))
    assert half.evaluate(2) == Fraction(4, 5)
    with pytest.raises(PoleError):
        rf({0: 1}, {2: 1, 0: -4}).evaluate(2)
    with pytest.raises(PoleError):
        rf({-2: 1}).evaluate(0)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(-7, 7), st.integers(-10**6, 10**6), max_size=6),
    st.integers(-50, 50).filter(bool),
    st.integers(1, 50),
)
def test_integer_evaluation_matches_fraction_sum(coeffs, r, s):
    p, q0 = IntLaurent(coeffs), Fraction(r, s)
    assert p.evaluate(q0) == sum((Fraction(v) * q0**e for e, v in p.items()), Fraction(0))


def _power_sum_evaluate(p: IntLaurent, q0: Fraction) -> Fraction:
    """The sum of v (r/s)^e as r^lo s^-hi sum v r^(e-lo) s^(hi-e), two fresh
    powers per term: the evaluation Horner's rule replaced, kept as its oracle."""
    c = dict(p.items())
    r, s = q0.numerator, q0.denominator
    lo, hi = min(c, default=0), max(c, default=0)
    total = sum(v * r ** (e - lo) * s ** (hi - e) for e, v in c.items())
    num, den = total * r ** max(lo, 0), s ** max(hi, 0) * r ** max(-lo, 0)
    return Fraction(num * s ** max(-hi, 0), den)


def test_horner_evaluation_matches_the_power_sum():
    points = [Fraction(n, d) for n in (-7, -3, -2, -1, 1, 2, 3, 7) for d in (1, 2, 3, 5)] + [Fraction(1000003, 999)]
    polys = [IntLaurent(), IntLaurent({0: 5}), IntLaurent({-3: 2}), IntLaurent({7: -1}), IntLaurent({-4: 1, 4: 1}),
             IntLaurent({0: 6, 2: 6}), IntLaurent({1: 3, -1: -3}), IntLaurent({-9: 2, -2: 4, 5: 6})]
    rng = random.Random(16)
    for _ in range(120):
        lo = rng.randint(-15, 10)
        exps = rng.sample(range(lo, lo + 25), rng.randint(1, 8))
        polys.append(IntLaurent({e: rng.choice([-1, 1]) * rng.randint(1, 10**rng.randint(1, 12)) for e in exps}))
    for p in polys:
        for q0 in points:
            assert p.evaluate(q0) == _power_sum_evaluate(p, q0), (p, q0)
        assert p.evaluate(3) == _power_sum_evaluate(p, Fraction(3))  # an int point
    # values whose integer numerator and denominator share a factor before reduction
    assert IntLaurent({0: 6, 2: 6}).evaluate(Fraction(1, 2)) == Fraction(15, 2)
    assert IntLaurent({1: 3, -1: -3}).evaluate(Fraction(-3)) == -8
    assert IntLaurent({-2: 4, 2: 4}).evaluate(Fraction(2, 3)) == Fraction(97, 9)
    # the long denominator of {1999/1000} at a point with large parts
    den = qrational(Fraction(1999, 1000)).den
    for q0 in (Fraction(1000003, 999), Fraction(-3, 2)):
        assert den.evaluate(q0) == _power_sum_evaluate(den, q0)


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_geometric():
    f = rf({0: 1}, {0: 1, 2: -1})  # 1/(1 - q^2)
    s = series_expand(f, 6)
    assert s == TruncSeries(6, {0: 1, 2: 1, 4: 1, 6: 1})


def test_series_long_division():
    f = rf({2: 1}, {0: 1, 2: 1})  # q^2/(1+q^2)
    assert series_expand(f, 6) == TruncSeries(6, {2: 1, 4: -1, 6: 1})


def test_series_laurent_tail():
    s = series_expand(rf({-2: 1}), 2)
    assert s.tail_start == -2
    assert s.coeffs == {-2: Fraction(1)}


def test_series_mul_compatible_with_exact_mul():
    f = rf({2: 1}, {0: 1, 2: 1})
    g = rf({0: 1}, {0: 1, 2: -1})
    prod_exact = series_expand(f * g, 8)
    prod_series = (series_expand(f, 8) * series_expand(g, 8)).truncate(8)
    assert prod_series == prod_exact.truncate(prod_series.order)


def test_series_sums_and_differences_are_those_of_the_expansions():
    f = rf({2: 1}, {0: 1, 2: 1})  # q^2/(1+q^2)
    g = rf({-2: 1, 0: 3}, {0: 1, 2: -1})  # (q^-2 + 3)/(1 - q^2)
    sf, sg = series_expand(f, 8), series_expand(g, 8)
    assert series_expand(f + g, 8) == sf + sg
    assert series_expand(f - g, 8) == sf - sg
    assert series_expand(-g, 8) == -sg
    assert sf + series_expand(g, 4) == series_expand(f + g, 4)  # the lower order wins
    assert (sf - sf).is_zero() and str(sf - sf) == "O(q^9)"
    assert str(sf) == "1*q^2 + -1*q^4 + 1*q^6 + -1*q^8 + O(q^9)"


# ---------------------------------------------------------------------------
# quadratic extension
# ---------------------------------------------------------------------------


def test_nu_square_is_delta_inverse():
    delta = qdelta(Fraction(1, 2))
    nu = NuValue.nu(delta)
    sq = nu * nu
    assert sq.odd.is_zero()
    assert sq.even == delta.inverse()


def test_nu_inverse_is_delta_nu():
    delta = qdelta(Fraction(2, 3))
    nu = NuValue.nu(delta)
    inv = nu.inverse()
    assert inv == NuValue(RatFun.zero(), delta, delta)


def test_nu_x2_context_square():
    delta = rf({2: 1})  # integer context x = 2
    val = NuValue(RatFun.zero(), rf({-1: 1}), delta)  # q^-1 nu
    sq = val * val
    assert sq.odd.is_zero()
    assert sq.even == rf({-4: 1})


def test_nu_sums_differences_and_constructors_are_componentwise():
    x = Fraction(3, 2)
    delta = qdelta(x)
    e1, o1, e2, o2 = qrational(x), rf({1: 1}), rf({0: 1}, {0: 1, 2: 1}), rf({-2: 3, 0: -1})
    u, w = NuValue(e1, o1, delta), NuValue(e2, o2, delta)
    assert u + w == NuValue(e1 + e2, o1 + o2, delta)
    assert u - w == NuValue(e1 - e2, o1 - o2, delta)
    assert -u == NuValue(-e1, -o1, delta)
    zero = NuValue.zero(delta)
    assert zero == NuValue(RatFun.zero(), RatFun.zero(), delta) == u - u == u + -u and zero.is_zero()
    assert NuValue.scalar(e2, delta) == NuValue(e2, RatFun.zero(), delta)
    assert NuValue.scalar(e2, delta) * u == NuValue(e2 * e1, e2 * o1, delta)


def test_nu_mismatched_contexts():
    u = NuValue.nu(rf({2: 1}))
    v = NuValue.nu(rf({4: 1}))
    with pytest.raises(ValueError):
        u + v


def test_nu_zero_norm_inverse():
    # (q + nu) with delta = q^-2: norm = q^2 - q^2 = 0
    delta = rf({-2: 1})
    u = NuValue(rf({1: 1}), RatFun.one(), delta)
    assert u.norm().is_zero()
    with pytest.raises(ZeroDivisionError):
        u.inverse()


def test_nu_power_closed_form():
    delta = qdelta(Fraction(5, 2))
    nu = NuValue.nu(delta)
    acc = NuValue.one(delta)
    for k in range(8):
        assert nu_power(delta, k) == acc
        acc = acc * nu
    assert nu_power(delta, -1) == nu.inverse()
    assert nu_power(delta, -3) == (nu ** 3).inverse()


# ---------------------------------------------------------------------------
# specialize_a
# ---------------------------------------------------------------------------


def F2(num, den=None):
    return RatFun2(IntLaurent2(num), IntLaurent2(den) if den is not None else None)


def test_specialize_stabilized_unknot_value():
    F = F2({(2, 0): 1, (0, 0): -1}, {(0, 2): 1, (0, 0): -1})  # (a^2-1)/(q^2-1)
    for x in (Fraction(2), Fraction(1, 2), Fraction(2, 3)):
        got = specialize_a(F, qdelta(x))
        assert got.odd.is_zero()
        assert got.even == qrational(x)


def test_specialize_bare_a():
    F = F2({(1, 0): 1})
    delta = qdelta(Fraction(5, 2))
    got = specialize_a(F, delta)
    assert got.even.is_zero()
    assert got.odd == RatFun.q_power(1) * delta


def test_specialize_digon_r1():
    # (a q^-1 - a^-1 q)/(q - q^-1) -> q nu {x-1}
    F = F2({(1, -1): 1, (-1, 1): -1}, {(0, 1): 1, (0, -1): -1})
    x = Fraction(2, 3)
    got = specialize_a(F, qdelta(x))
    assert got.even.is_zero()
    assert got.odd == RatFun.q_power(1) * qrational(x - 1)


def test_specialize_homomorphism():
    delta = qdelta(Fraction(3, 4))
    F = F2({(1, 0): 2, (0, 2): 1}, {(0, 0): 1, (0, 2): 1})
    G = F2({(-1, 1): 1, (2, -2): 3})
    lhs = specialize_a(F * G, delta)
    rhs = specialize_a(F, delta) * specialize_a(G, delta)
    assert lhs == rhs


def test_specialize_pole():
    # a denominator free of a is its own image, so the specialization has no pole;
    # a^2 - q^4 (identically 0 under a = q v delta at x = 2) and a + q^2 (of zero
    # norm) were the denominators that had one, and are refused as values
    for den in ({(2, 0): 1, (0, 4): -1}, {(1, 0): 1, (0, 2): 1}):
        with pytest.raises(ValueError, match="^denominator depends on a$"):
            F2({(0, 0): 1}, den)
    F = F2({(2, 0): 1, (0, 4): -1}, {(0, 1): 1, (0, 0): -2})  # (a^2 - q^4)/(q - 2)
    assert specialize_a(F, qdelta(Fraction(2))).is_zero()


def _reference_image(p: IntLaurent2, delta: RatFun) -> NuValue:
    """Image of a polynomial under a = q*v*delta, one monomial at a time in
    the fraction field: a^d q^e -> q^e (q^2 delta)^(d // 2), times q*delta*v
    when d is odd."""
    even = odd = RatFun.zero()
    for (d, e), c in p.items():
        term = RatFun.from_laurent(IntLaurent.term(c, e))
        term = term * repeated_product(RatFun.q_power(2) * delta, d // 2)
        if d % 2 == 0:
            even = even + term
        else:
            odd = odd + term * RatFun.q_power(1) * delta
    return NuValue(even, odd, delta)


def _reference_specialize(F: RatFun2, delta: RatFun) -> NuValue:
    """specialize_a by per-monomial fraction arithmetic (the differential oracle)."""
    return _reference_image(F.num, delta) / _reference_image(F.den, delta)


SPECIALIZE_XS = (Fraction(2), Fraction(-3), Fraction(2, 3), Fraction(5, 2), Fraction(-3, 4))


def test_specialize_matches_per_monomial_reference():
    words = [
        BraidWord(letters, 3)
        for length in range(5)
        for letters in product((1, -1, 2, -2), repeat=length)
    ]
    for text in ("1 1 1", "1 -2 1 -2", "1 1 1 1 1"):
        words += [parse_braid(text), mirror(parse_braid(text))]
    values = {homfly(w) for w in words}
    # integer x makes the right delta a monomial; the flat one is not
    for x in SPECIALIZE_XS:
        for delta in (qdelta(x), left_qdelta(x)):
            for F in values:
                assert specialize_a(F, delta) == _reference_specialize(F, delta)


def _general_specialize(F: RatFun2, delta: RatFun) -> NuValue:
    """specialize_a without the a-free shortcut: numerator and denominator
    both substituted and divided in the extension (the differential oracle)."""
    num = nu_module._specialize_poly(F.num, delta)
    den = nu_module._specialize_poly(F.den, delta)
    return num * den.conjugate() * den.norm().inverse()


def _framed_outcomes(F: RatFun2, delta: RatFun, k: int):
    """specialize_a(F, delta, k) and the general path times v^k."""
    return specialize_a(F, delta, k), _general_specialize(F, delta) * nu_power(delta, k)


def test_framed_specialization_matches_general_path():
    # closure values have the a-free denominators (q^2 - 1)^c
    words = [BraidWord(letters, 3) for length in range(4) for letters in product((1, -1, 2, -2), repeat=length)]
    words += [parse_braid("1 1 1 1 1"), parse_braid("1 -2 1 -2"), parse_braid("", strands=1)]
    values = {homfly(w) for w in words}
    assert all(d == 0 for F in values for (d, _), _ in F.den.items())
    for x in SPECIALIZE_XS:
        for delta in (qdelta(x), left_qdelta(x)):
            for F in values:
                for k in range(-3, 4):
                    got, expected = _framed_outcomes(F, delta, k)
                    assert got == expected, (F, x, k)


def test_specialize_substitutes_without_fraction_arithmetic(monkeypatch):
    # the images are built in Z[q^±1]; the denominator, free of a, is not
    # substituted and no fraction arithmetic runs at all; the general path
    # substitutes it too and divides it out as a quotient
    calls = count_calls(monkeypatch, RatFun, ("__add__", "__mul__"))
    inside = []  # fraction operations seen during each substitution
    substitute = nu_module._specialize_poly

    def tracked(*args):
        before = sum(calls.values())
        out = substitute(*args)
        inside.append(sum(calls.values()) - before)
        return out

    monkeypatch.setattr(nu_module, "_specialize_poly", tracked)
    for x in (Fraction(5, 2), Fraction(-3, 4)):
        specialize_a(homfly(parse_braid("1 -2 1 -2")), qdelta(x))
    assert inside == [0, 0]
    assert not calls
    _general_specialize(F2({(1, 0): 2, (0, 2): 1}, {(0, 0): 1, (0, 2): 1}), qdelta(Fraction(5, 2)))
    assert inside == [0, 0, 0, 0]
    assert calls["__mul__"] > 0  # the counters do see the quotient


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------


def test_format_examples():
    assert format_ratfun(qrational(Fraction(5, 2))) == "(1+2*q^2+q^4+q^6)/(1+q^2)"
    assert format_ratfun(rf({0: 1, 4: 1})) == "1+q^4"
    assert format_ratfun2(F2({(2, 0): 1, (0, 0): -1}, {(0, 2): 1, (0, 0): -1})) == "(-1+a^2)/(-1+q^2)"


def test_parse_round_trip():
    for f in (
        qrational(Fraction(5, 2)),
        qrational(Fraction(-7, 3)),
        rf({-2: -3, 0: 1, 5: 2}, {0: 2, 3: 1}),
        RatFun.zero(),
    ):
        assert parse_ratfun(format_ratfun(f)) == f
    for g in (
        F2({(1, -1): 1, (-1, 1): -1}, {(0, 1): 1, (0, -1): -1}),
        F2({(0, 0): -1, (2, 3): 5}),
        RatFun2.zero(),
    ):
        assert parse_ratfun2(format_ratfun2(g)) == g


def test_one_text_body_serves_both_rings():
    # a one-variable value prints as the same value with the a^0 key
    rng = random.Random(14)
    for _ in range(200):
        num = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(0, 4))}
        den = {rng.randint(-6, 6): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
        if not any(den.values()):
            den = {0: 1}
        f = rf(num, den)
        assert format_ratfun(f) == format_ratfun2(f.to_ratfun2())
    assert repr(L({-1: 2, 0: -1, 3: 1})) == "IntLaurent(2*q^-1-1+q^3)"
    assert repr(IntLaurent2({(1, 0): 1, (-1, 2): -3, (0, 0): 1})) == "IntLaurent2(-3*a^-1*q^2+1+a)"
    assert repr(rf({0: 1, 2: -1}, {0: 1, 1: 1})) == "RatFun(1-q)"
    assert repr(F2({(2, 0): 1, (0, 0): -1}, {(0, 2): 1, (0, 0): -1})) == "RatFun2((-1+a^2)/(-1+q^2))"
    assert repr(IntLaurent.zero()) == "IntLaurent(0)" and repr(RatFun2.zero()) == "RatFun2(0)"


def test_one_is_a_fresh_value_each_time():
    for poly in (IntLaurent, IntLaurent2):
        one = poly.one()
        assert type(one) is poly and one.is_one() and one == poly(poly._ONE)
        assert one._c is not poly._ONE and one._c is not poly.one()._c
        assert type(poly.zero()) is poly and poly.zero().is_zero()


def test_parse_rejects_a_in_one_variable_before_terms_merge():
    for text in ("a - a + q", "(1)/(a - a + q)", "q + a^2 - a^2"):
        with pytest.raises(ValueError, match="unexpected variable a"):
            parse_ratfun(text)
    assert parse_ratfun2("a - a + q") == RatFun2.monomial(1, 0, 1)


def test_parse_whitespace_and_nu():
    assert parse_ratfun(" ( 1 + q ^ 2 )  /  ( q ^ 2 ) ".replace(" ", "")) == rf({0: 1, 2: 1}, {2: 1})
    delta = qdelta(Fraction(1, 2))
    u = NuValue(qrational(Fraction(1, 2)), RatFun.q_power(2), delta)
    assert parse_nu(format_nu(u), delta) == u


# ---------------------------------------------------------------------------
# algebraic laws (property-based)
# ---------------------------------------------------------------------------

small_laurent = st.builds(
    IntLaurent,
    st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4),
)
nonzero_laurent = small_laurent.filter(lambda p: not p.is_zero())
ratfuns = st.builds(lambda n, d: RatFun(n, d), small_laurent, nonzero_laurent)


@settings(max_examples=80, deadline=None)
@given(ratfuns, ratfuns, ratfuns)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(ratfuns)
def test_canonical_form_invariants(f):
    assert normalize(f.num, f.den) == f
    if not f.is_zero():
        assert f.den.min_exp() == 0
        assert f.den.leading_coefficient() > 0
        assert f * f.inverse() == RatFun.one()
    assert f.invert_q().invert_q() == f


@settings(max_examples=40, deadline=None)
@given(ratfuns, ratfuns)
def test_series_respects_multiplication(f, g):
    s = series_expand(f, 6) * series_expand(g, 6)
    assert s == series_expand(f * g, s.order)


@settings(max_examples=60, deadline=None)
@given(ratfuns, ratfuns)
def test_equality_is_cross_multiplication(f, g):
    assert (f == g) == (f.num * g.den == g.num * f.den)


small_laurent2 = st.builds(
    IntLaurent2,
    st.dictionaries(
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(-5, 5), max_size=3
    ),
)
a_free_ratfun2s = st.builds(lambda n, d: RatFun2(n, IntLaurent2.from_q(d)), small_laurent2, nonzero_laurent)


def _invertible(p) -> bool:
    """Whether p is a^k times a polynomial in q, so that 1/p is a value."""
    return not isinstance(p, IntLaurent2) or len({d for (d, _), _ in p.items()}) <= 1


@settings(max_examples=40, deadline=None)
@given(a_free_ratfun2s, a_free_ratfun2s, a_free_ratfun2s)
def test_two_variable_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h


def _shared_unit_or_int(draw, f, polys, norm, kind):
    """A second operand with f's denominator, with denominator 1, or an int."""
    if kind == "int":
        return draw(st.integers(-3, 3))
    c = draw(polys)
    if kind == "unit":
        return norm(c, f.den.one())
    g = norm(c * f.den + f.num, f.den)  # gcd(c d + a, d) = gcd(a, d) = 1
    assert g.is_zero() or g.den == f.den
    return g


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(["q", "aq"]), st.sampled_from(["same", "unit", "int"]), st.booleans())
def test_arithmetic_with_shared_unit_or_int_denominators(data, ring, kind, swap):
    """Sums, differences, products and quotients against the fraction the
    textbook formulas normalize, on the operands that had shortcut branches."""
    polys, nonzero, norm = (
        (small_laurent, nonzero_laurent, normalize)
        if ring == "q"
        else (small_laurent2, nonzero_laurent.map(IntLaurent2.from_q), normalize2)
    )
    f = norm(data.draw(polys), data.draw(nonzero))
    g = _shared_unit_or_int(data.draw, f, polys, norm, kind)
    one = f.den.one()
    (a, b), (c, d) = [(one.scale(h), one) if isinstance(h, int) else (h.num, h.den) for h in (f, g)]
    if swap:
        f, g, a, b, c, d = g, f, c, d, a, b
    cases = [(f + g, a * d + c * b, b * d), (f - g, a * d - c * b, b * d), (f * g, a * c, b * d)]
    if c and not isinstance(f, int) and _invertible(c):  # RatFun2 has no int / fraction; 1/g needs c in a^k Z[q]
        cases.append((f / g, a * d, b * c))
    for got, num, den in cases:
        want = norm(num, den)
        assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=40, deadline=None)
@given(a_free_ratfun2s)
def test_two_variable_canonical_form(f):
    from qlink.exactalg import normalize2

    assert normalize2(f.num, f.den) == f
    if not f.is_zero():
        assert f.den.min_exps() == (0, 0)
        assert f.den.leading_coefficient() > 0
        assert f.subs_bar().subs_bar() == f
        if _invertible(f.num):
            assert f * f.inverse() == RatFun2.one()


@settings(max_examples=30, deadline=None)
@given(a_free_ratfun2s, a_free_ratfun2s)
def test_specialize_a_homomorphism_random(f, g):
    delta = qdelta(Fraction(3, 2))
    assert specialize_a(f * g, delta) == specialize_a(f, delta) * specialize_a(g, delta)


@settings(max_examples=40, deadline=None)
@given(a_free_ratfun2s, st.sampled_from(SPECIALIZE_XS), st.sampled_from((qdelta, left_qdelta)))
def test_specialize_a_matches_reference_random(f, x, context):
    delta = context(x)
    assert specialize_a(f, delta) == _reference_specialize(f, delta)


@settings(max_examples=60, deadline=None)
@given(
    a_free_ratfun2s,
    st.sampled_from(SPECIALIZE_XS),
    st.sampled_from((qdelta, left_qdelta)),
    st.integers(-3, 3),
)
def test_framed_specialization_matches_general_path_random(f, x, context, k):
    got, expected = _framed_outcomes(f, context(x), k)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(ratfuns, a_free_ratfun2s), st.integers(-3, 4))
def test_power_is_repeated_product_in_canonical_form(f, n):
    if f.is_zero() and n < 0:
        with pytest.raises(ZeroDivisionError):
            f ** n
        return
    if n < 0 and not _invertible(f.num):
        with pytest.raises(ValueError, match="^denominator depends on a$"):
            f ** n
        return
    g = f ** n
    assert g == repeated_product(f, n)
    assert (normalize if isinstance(g, RatFun) else normalize2)(g.num, g.den) == g


def test_power_of_zero():
    for zero in (RatFun.zero(), RatFun2.zero()):
        assert zero ** 0 == 1
        assert zero ** 3 == 0
        with pytest.raises(ZeroDivisionError):
            zero ** -2


def test_power_runs_no_gcd(monkeypatch):
    import qlink.exactalg.ratfun as ratfun

    f = rf({0: 1, 1: 2, 3: -1}, {0: 2, 2: 1, 5: 3})
    g = F2({(1, 0): 1, (1, 1): -2}, {(0, 0): 1, (0, 3): 1})  # a (1 - 2q) / (1 + q^3); 1/g has a^-1 on top
    calls = count_calls(monkeypatch, ratfun, ("laurent_gcd", "laurent2_gcd"))
    for h in (f, g):
        for n in range(-3, 5):
            h ** n
    assert not calls
    f * f, g * g
    assert calls["laurent_gcd"] and calls["laurent2_gcd"]  # the counters see products


@settings(max_examples=50, deadline=None)
@given(ratfuns)
def test_grammar_round_trip_random(f):
    assert parse_ratfun(format_ratfun(f)) == f


@settings(max_examples=50, deadline=None)
@given(a_free_ratfun2s)
def test_grammar2_round_trip_random(f):
    from qlink.exactalg.textio import format_ratfun2 as fmt2

    assert parse_ratfun2(fmt2(f)) == f


# ---------------------------------------------------------------------------
# L0 kernels: GCDHEU and integer division against the Fraction Euclid
# ---------------------------------------------------------------------------


def _dense(p: IntLaurent) -> list[int]:
    lo = p.min_exp()
    return [p.coefficient(e) for e in range(lo, p.max_exp() + 1)]


def _reference_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """The monic Euclidean gcd over Q, scaled to a primitive integer polynomial."""
    monic = laurent._frac_gcd(_dense(f), _dense(g))
    den = math.lcm(*(v.denominator for v in monic))
    ints = [int(v * den) for v in monic]
    return IntLaurent({e: v // math.gcd(*ints) for e, v in enumerate(ints) if v})


def _reference_divide(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """The long division over Fraction that `laurent_divide_exact` replaced."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return IntLaurent.zero()
    a = [Fraction(v) for v in _dense(f)]
    b = _dense(g)
    db = len(b) - 1
    quot: dict[int, Fraction] = {}
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = quot[i - db] = a[i] / b[-1]
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    if any(a) or any(v.denominator != 1 for v in quot.values()):
        raise ArithmeticError("inexact polynomial division")
    shift = f.min_exp() - g.min_exp()
    return IntLaurent({e + shift: int(v) for e, v in quot.items() if v})


def _division_outcome(divide, f, g):
    try:
        return divide(f, g)
    except ArithmeticError as exc:  # ZeroDivisionError included
        return type(exc), str(exc)


def _polys(max_deg: int, bound: int, max_shift: int = 3):
    """Nonzero Laurent polynomials in q of degree span up to max_deg."""
    return st.builds(
        lambda coeffs, shift: IntLaurent({e + shift: v for e, v in enumerate(coeffs) if v}),
        st.lists(st.integers(-bound, bound), min_size=1, max_size=max_deg + 1).filter(any),
        st.integers(-max_shift, max_shift),
    )


def _polys2(bound: int):
    """Nonzero Laurent polynomials in (a, q) with a small support."""
    return st.dictionaries(
        st.tuples(st.integers(-1, 3), st.integers(-1, 4)), st.integers(-bound, bound), max_size=5
    ).map(IntLaurent2).filter(bool)


def _q_polys2(max_deg: int, bound: int):
    """Nonzero Laurent polynomials in q, as polynomials in (a, q) free of a."""
    return _polys(max_deg, bound).map(IntLaurent2.from_q)


def _give_up(*_args):
    return None


@settings(max_examples=60, deadline=None)
@given(_polys(14, 10**6), _polys(26, 10**6), _polys(26, 10**6))
def test_gcd_matches_euclid_on_planted_factors(h, u, v):
    f, g = h * u, h * v
    out = laurent_gcd(f, g)
    assert out == _reference_gcd(f, g)
    assert laurent_divide_exact(f, out) * out == f and laurent_divide_exact(g, out) * out == g
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_heu_gcd", _give_up)
        assert laurent_gcd(f, g) == out


@settings(max_examples=80, deadline=None)
@given(_polys(12, 50), _polys(12, 50), _polys(4, 50), st.integers(2, 6), st.integers(0, 2))
def test_division_matches_fraction_long_division(g, h, r, c, kind):
    if kind == 0:  # divisible
        f, d = g * h, g
    elif kind == 1:  # a remainder is left unless g divides r
        f, d = g * h + r, g
    else:  # divisible over Q; the quotient h / c is fractional unless c divides h
        f, d = g * h, g.scale(c)
    assert _division_outcome(laurent_divide_exact, f, d) == _division_outcome(_reference_divide, f, d)


def test_division_edge_cases_match_fraction_long_division():
    cases = [
        (L({0: 1}), L({})),  # zero divisor
        (L({}), L({0: 1, 1: 1})),  # zero dividend
        (L({2: 6, 5: -4}), L({1: 2})),  # monomial divisor
        (L({2: 6, 5: -3}), L({1: 2})),  # monomial divisor, inexact
        (L({-3: 6, 2: -4}), L({-1: -2})),  # monomial divisor, negative exponents
        (L({0: 1, 1: 1}), L({0: 1, 1: 1, 2: 1})),  # divisor of higher degree
        (L({0: 1, 2: -1}), L({0: 1, 1: 1})),
        (L({0: 1, 2: 1}), L({0: 1, 1: 1})),
        (L({0: 3, 1: 3}), L({0: 2, 1: 2})),
    ]
    for f, g in cases:
        assert _division_outcome(laurent_divide_exact, f, g) == _division_outcome(_reference_divide, f, g)


def _reference_divide2(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
    """Long division over Fraction of each a-coefficient of f by g, free of a."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    coeffs: dict[int, dict[int, int]] = {}
    for (d, e), v in f.items():
        coeffs.setdefault(d, {})[e] = v
    gq = IntLaurent({e: v for (_, e), v in g.items()})
    out = {(d, e): v for d, c in coeffs.items() for e, v in _reference_divide(IntLaurent(c), gq).items()}
    return IntLaurent2(out)


@settings(max_examples=60, deadline=None)
@given(_q_polys2(8, 20), _polys2(20), _polys2(20), st.integers(2, 5), st.integers(0, 3))
def test_division2_matches_long_division_in_a(g, h, r, c, kind):
    d = g.scale(c) if kind == 2 else g
    f = {0: g * h, 1: g * h + r, 2: g * h, 3: r}[kind]
    assert _division_outcome(laurent2_divide_exact, f, d) == _division_outcome(_reference_divide2, f, d)


def test_division2_edge_cases_match_long_division_in_a():
    a, q, one = IntLaurent2.term(1, 1, 0), IntLaurent2.term(1, 0, 1), IntLaurent2.one()
    cases = [
        ((one + a) * (one - q), one - q),
        ((one + a) * (one - q), one + q),  # inexact
        (a * q, q.shift(0, 2)),  # monomial divisor
        (IntLaurent2({(-1, 2): 6, (2, -3): -4}), IntLaurent2({(0, -1): 2})),  # negative exponents
        (IntLaurent2({(-1, 2): 6, (2, -3): -3}), IntLaurent2({(0, -1): -2})),  # monomial divisor, inexact
        (IntLaurent2({(0, 0): 5, (1, 1): 10}), IntLaurent2({(0, -1): 5})),
        (IntLaurent2.zero(), one + q),
        (one + a, IntLaurent2.zero()),
        (IntLaurent2.zero(), IntLaurent2.zero()),
    ]
    for f, g in cases:
        assert _division_outcome(laurent2_divide_exact, f, g) == _division_outcome(_reference_divide2, f, g)


def test_heuristics_reject_unlucky_evaluation_points():
    # the first evaluation point is 2 * 2 + 29 = 33, where q - 2 and q + 29 are
    # 31 and 62: the rebuilt q - 2 must fail the trial division
    assert laurent_gcd(L({0: -2, 1: 1}), L({0: 29, 1: 1})).is_one()


def test_two_variable_kernels_on_zero_operands_monomials_and_a():
    a, q, one, zero = IntLaurent2.term(1, 1, 0), IntLaurent2.term(1, 0, 1), IntLaurent2.one(), IntLaurent2.zero()
    t = q * q - one
    f, g = t * (a + q), t * (q + one)  # (q^2 - 1)(a + q) and (q^2 - 1)(q + 1)
    assert laurent2_gcd(f, g) == t and laurent2_gcd(f, g.scale(-3).shift(0, -2)) == t
    assert laurent2_divide_exact(f, t) == a + q and laurent2_divide_exact(g, t) == q + one
    assert laurent2_gcd(f, (q + one) * (q + one)) == q + one
    assert laurent2_gcd(a + q, g).is_one()
    # every a-coefficient counts: one of them alone shares q^2 - 1 with t, the other only q - 1
    for h in (a * (q + one) + one, a + q + one):
        assert laurent2_gcd((q - one) * h, t) == q - one
    # zero operands: gcd(0, 0) = 0 and gcd(0, g) = gcd(g, 0) is g normalized
    assert laurent2_gcd(zero, zero) == zero
    assert laurent2_gcd(zero, g.scale(-2).shift(0, -3)) == laurent2_gcd(g.scale(-2), zero) == g
    assert laurent2_divide_exact(zero, g) == zero
    # monomials: a unit in either place gives 1; division by a monomial in q shifts
    assert laurent2_gcd(f, q.shift(0, 3).scale(6)).is_one()
    assert laurent2_gcd(a.shift(2, 1), g).is_one()
    assert laurent2_divide_exact(f, q.scale(-1)) == -f.shift(0, -1)
    # a divisor, or the second operand of a gcd, in a is refused
    for h in (a, a + q, f, a.shift(0, 2) - one):
        for kernel in (laurent2_gcd, laurent2_divide_exact):
            with pytest.raises(ValueError, match="^denominator depends on a$"):
                kernel(g, h)
    with pytest.raises(ValueError, match="^denominator depends on a$"):
        laurent2_gcd(f, zero)  # gcd(f, 0) is f, which has a


def test_fallbacks_run_and_agree_with_the_heuristics(monkeypatch):
    t = F2({(0, 2): 1, (0, 0): -1}).num
    pairs = [
        (F2({(0, 4): 5, (2, 0): -3, (4, 1): 1}).num, F2({(0, 0): 1, (0, 1): -4, (0, 2): 2}).num),
        (F2({(0, 0): 1, (2, 2): -1}).num, F2({(0, 0): 1, (0, 1): 1}).num),
        (F2({(1, 0): 1, (0, 1): 1}).num * t, F2({(0, 0): 1, (0, 1): 1}).num * t),
        (F2({(1, -1): 1, (-1, 1): -1}).num, F2({(0, 1): 1, (0, -1): -1}).num),
    ]
    pairs += [(f ** 2 * g, g ** 3) for f, g in pairs]
    expected = [laurent2_gcd(f, g) for f, g in pairs]
    assert any(not e.is_one() for e in expected)
    fallbacks = count_calls(monkeypatch, laurent, ("_frac_gcd",))
    assert [laurent2_gcd(f, g) for f, g in pairs] == expected and not fallbacks
    monkeypatch.setattr(laurent, "_heu_gcd", _give_up)
    assert [laurent2_gcd(f, g) for f, g in pairs] == expected
    assert fallbacks["_frac_gcd"]


@pytest.mark.parametrize("n", [4, 6])
def test_normalize2_of_coprime_powers(n):
    f = F2({(0, 4): 5, (2, 0): -3, (4, 1): 1}, {(0, 0): 1, (0, 1): -4, (0, 3): 2})
    g = f ** n
    assert normalize2(g.num, g.den) == g


def test_integer_kernels_run_no_fraction_operation(monkeypatch):
    def no_fractions(*_args):
        raise AssertionError("Fraction used")

    f = L({0: 3, 1: -7, 4: 2, 9: 11}) * L({0: 1, 2: -5, 3: 4})
    g = L({0: 3, 1: -7, 4: 2, 9: 11}) * L({-2: 6, 1: 1, 5: -1})
    common = IntLaurent2.from_q(L({0: 2, 1: -1, 3: 4}))
    f2 = common * F2({(0, 0): 1, (3, 1): -2, (1, 2): 7}).num
    g2 = common * IntLaurent2.from_q(L({0: 7, 2: 1}))
    divisions = count_calls(monkeypatch, laurent, ("laurent_divide_exact", "laurent2_divide_exact"))
    monkeypatch.setattr(laurent, "Fraction", no_fractions)
    h = laurent_gcd(f, g)
    h2 = laurent2_gcd(f2, g2)
    assert h == L({0: 3, 1: -7, 4: 2, 9: 11}) and h2 == common
    assert not divisions  # trial divisions are not counted as divisions
    assert laurent.laurent_divide_exact(f, h) * h == f
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        laurent.laurent_divide_exact(f + L({0: 1}), h)
    assert laurent.laurent2_divide_exact(f2, h2) * h2 == f2
    assert divisions == {"laurent_divide_exact": 2, "laurent2_divide_exact": 1}


def _sympy_gcd(sympy, f, g):
    """sympy's gcd of two Laurent polynomials, made primitive, with min exponent(s) 0."""
    two = isinstance(f, IntLaurent2)
    gens = sympy.symbols("a q") if two else (sympy.Symbol("q"),)
    polys = []
    for p in (f, g):
        low = p.min_exps() if two else (p.min_exp(),)
        terms = {}
        for k, v in p.items():
            k = k if two else (k,)
            terms[tuple(x - m for x, m in zip(k, low))] = v
        polys.append(sympy.Poly.from_dict(terms, *gens))
    out = sympy.gcd(polys[0], polys[1]).as_dict()
    out = IntLaurent2(out) if two else IntLaurent({k[0]: v for k, v in out.items()})
    return out.divide_content(out.content())  # qlink's gcds are primitive


@settings(max_examples=40, deadline=None)
@given(_polys2(30), _q_polys2(8, 30), _q_polys2(8, 30), _polys(10, 1000), _polys(10, 1000), _polys(10, 1000))
def test_gcds_match_sympy(u, h, v, h1, u1, v1):
    sympy = pytest.importorskip("sympy")
    for f, g, gcd in ((h * u, h * v, laurent2_gcd), (h1 * u1, h1 * v1, laurent_gcd)):
        out = gcd(f, g)
        assert out in (_sympy_gcd(sympy, f, g), -_sympy_gcd(sympy, f, g))


def test_gcd2_matches_sympy_on_fixed_pairs():
    sympy = pytest.importorskip("sympy")
    a, q, one = IntLaurent2.term(1, 1, 0), IntLaurent2.term(1, 0, 1), IntLaurent2.one()
    f = F2({(0, 4): 5, (2, 0): -3, (4, 1): 1}).num
    g = F2({(0, 0): 1, (0, 1): -4, (0, 2): 2}).num
    t = F2({(0, 1): 1, (0, 0): -1, (0, 3): 3}).num
    pairs = [(f ** 3 * t, g ** 3 * t ** 2), (f * t ** 2, g * t), (f * g * t, g * t.subs_bar().shift(0, 3))]
    pairs.append(((q * q - one) * (a + q), (q * q - one) * (q + one)))
    for p, r in pairs:
        out = laurent2_gcd(p, r)
        assert out in (_sympy_gcd(sympy, p, r), -_sympy_gcd(sympy, p, r))
    assert laurent2_gcd(*pairs[-1]) == q * q - one
