"""q-deformed rationals: continued fractions, recursions, left deformation, limits."""

import random
from fractions import Fraction

import pytest

from qlink.braid import BraidWord
from qlink.exactalg import IntLaurent, PoleError, RatFun, TruncSeries, series_expand
from qlink.qnum import (
    MAX_QDEGREE,
    EvenCF,
    _qrational_pair,
    even_cf,
    left_qdelta,
    left_qrational,
    q_adic_limit,
    qbinomial,
    qdelta,
    qfactorial,
    qint,
    qrational,
)
from qlink.xinv import numeric_sweep


def qp(e):
    return RatFun.q_power(e)


def qint_closed(n: int) -> RatFun:
    """Independent closed form (q^2n - 1)/(q^2 - 1)."""
    num = IntLaurent({2 * n: 1}) - IntLaurent({0: 1})
    den = IntLaurent({2: 1, 0: -1})
    return RatFun(num, den)


def qrational_recursive(x: Fraction) -> RatFun:
    """Recursion-route oracle: only the two defining identities."""
    x = Fraction(x)
    if x.denominator == 1:
        return qint_closed(x.numerator)
    if x >= 1:
        return qp(2) * qrational_recursive(x - 1) + RatFun.one()
    if x < 0:
        return (qrational_recursive(x + 1) - RatFun.one()) * qp(-2)
    return qrational_recursive(1 / x).invert_q().inverse()


# ---------------------------------------------------------------------------
# even continued fractions
# ---------------------------------------------------------------------------


def test_even_cf_examples():
    assert even_cf(Fraction(5, 2)).terms == (2, 2)
    assert even_cf(1).terms == (0, 1)
    assert even_cf(Fraction(2, 3)).terms == (0, 1, 1, 1)


def test_even_cf_folds_back():
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 150))
        cf = even_cf(x)
        assert len(cf.terms) % 2 == 0
        assert all(a >= 1 for a in cf.terms[1:])
        assert cf.fold() == x


def test_even_cf_validation():
    with pytest.raises(ValueError):
        EvenCF((1,))
    with pytest.raises(ValueError):
        EvenCF((1, 0))


# ---------------------------------------------------------------------------
# q-rationals
# ---------------------------------------------------------------------------


def test_qrational_examples():
    assert qrational(2) == RatFun.from_laurent(IntLaurent({0: 1, 2: 1}))
    assert qrational(Fraction(1, 2)) == RatFun(IntLaurent({2: 1}), IntLaurent({0: 1, 2: 1}))
    assert qrational(Fraction(5, 2)) == RatFun(
        IntLaurent({0: 1, 2: 2, 4: 1, 6: 1}), IntLaurent({0: 1, 2: 1})
    )
    assert qrational(-1) == RatFun.from_laurent(IntLaurent({-2: -1}))
    assert qrational(-2) == qp(-4) * -qrational(2)


def test_integer_consistency():
    for n in range(-20, 21):
        assert qrational(n) == qint_closed(n)
        assert RatFun.from_laurent(qint(n)) == qint_closed(n)


def test_nested_formula_matches_recursion_chain():
    for x in (Fraction(5, 2), Fraction(2, 3), Fraction(-7, 5), Fraction(13, 8), Fraction(-3, 4)):
        assert qrational(x) == qrational_recursive(x)


def test_shift_identity_random():
    rng = random.Random(11)
    for _ in range(60):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 200))
        assert qrational(x + 1) == qp(2) * qrational(x) + RatFun.one()


def test_inversion_identity_random():
    rng = random.Random(13)
    for _ in range(60):
        x = Fraction(rng.randint(1, 500), rng.randint(1, 200))
        assert qrational(1 / x) == qrational(x).invert_q().inverse()


def test_classical_limit_random():
    rng = random.Random(17)
    for _ in range(40):
        x = Fraction(rng.randint(-300, 300), rng.randint(1, 120))
        assert qrational(x).evaluate(1) == x


# ---------------------------------------------------------------------------
# delta and binomials
# ---------------------------------------------------------------------------


def test_qdelta_examples():
    for n in range(-5, 8):
        assert qdelta(n) == qp(2 * (n - 1))
    assert qdelta(Fraction(1, 2)) == RatFun(IntLaurent({0: 1, 4: 1}), IntLaurent({2: 1, 4: 1}))
    assert qdelta(Fraction(2, 3)) == RatFun(
        IntLaurent({0: 1, 4: 1, 6: 1}), IntLaurent({2: 1, 4: 1, 6: 1})
    )


def test_qdelta_matches_difference_of_qrationals():
    # integers, negatives, x = 0 and 1 (where {x} or {x - 1} is 0) and long
    # continued fractions
    xs = {Fraction(p, r) for r in range(1, 7) for p in range(-13, 14)}
    xs |= {Fraction(355, 113), Fraction(-89, 55), Fraction(1, 12), Fraction(-23, 7)}
    for x in sorted(xs):
        assert qdelta(x) == qrational(x) - qrational(x - 1), x
        assert left_qdelta(x) == left_qrational(x) - left_qrational(x - 1), x


def test_qdelta_is_canonical_as_built(monkeypatch):
    # {x} = N/D is coprime with D(+-1) != 0, so ((q^2 - 1) N + D) / (q^2 D) is too:
    # qdelta and left_qdelta run no gcd and give the gcd-normalized fraction
    import qlink.exactalg.laurent as laurent
    import qlink.exactalg.ratfun as ratfun
    from qlink.exactalg import normalize

    rng = random.Random(47)
    fib = [1, 1]
    while len(fib) < 202:
        fib.append(fib[-1] + fib[-2])
    xs = [Fraction(n) for n in range(-9, 10)] + [Fraction(s, n) for n in range(2, 12) for s in (1, -1)]
    xs += [Fraction(rng.randint(-300, 300), rng.randint(1, 80)) for _ in range(150)]
    xs.append(Fraction(fib[201], fib[200]))  # a continued fraction of 200 ones
    expected = {}
    for x in xs:
        for name, f in (("right", qrational(x)), ("left", left_qrational(x))):
            expected[name, x] = normalize(f.num.shift(2) - f.num + f.den, f.den.shift(2))
    calls = []
    gcd = laurent.laurent_gcd

    def counted(*args):
        calls.append(args)
        return gcd(*args)

    for owner in (laurent, ratfun):
        monkeypatch.setattr(owner, "laurent_gcd", counted)
    for x in xs:
        assert qdelta(x) == expected["right", x], x
        assert left_qdelta(x) == expected["left", x], x
    assert not calls
    normalize(IntLaurent({0: 1, 2: 1}), IntLaurent({0: 1, 4: -1}))
    assert len(calls) == 1  # the counter works


def _delta_value(delta: RatFun, q0: Fraction) -> Fraction | None:
    try:
        return delta.evaluate(q0) or None
    except PoleError:
        return None


def _qdelta_at(x: Fraction, q0: Fraction, left: bool = False) -> Fraction | None:
    """delta_x(q0), or the left one's, as one fraction: ((q0^2 - 1) {x}(q0) + 1) / q0^2 from
    the integer pair Xn / Xd = {x}(q0) of `_qrational_pair`; None at a pole and where it is 0."""
    pair = _qrational_pair(x, q0.numerator, q0.denominator, left)
    return ((q0 * q0 - 1) * Fraction(*pair) + 1) / (q0 * q0) if pair else None


def test_qdelta_at_matches_the_symbolic_delta():
    # the integer ladder at q0 against the symbolic delta_x evaluated there,
    # with a pole or a zero read as None; both flavors; numeric_sweep, which reads
    # the ladder, refuses q0 = 0
    rng = random.Random(53)
    fib = [1, 1]
    while len(fib) < 202:
        fib.append(fib[-1] + fib[-2])
    xs = [Fraction(n) for n in range(-9, 10)] + [Fraction(s, n) for n in range(2, 12) for s in (1, -1)]
    xs += [Fraction(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(120)]
    xs.append(Fraction(fib[201], fib[200]))  # a continued fraction of 200 ones
    q0s = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
    q0s.append(Fraction(1000003, 999))
    for x in xs + [Fraction(2000), Fraction(1, 2000), Fraction(-1999, 2)]:  # the last three at the q-degree cap
        for left, delta in ((False, qdelta(x)), (True, left_qdelta(x))):
            # the symbolic {1/2000} takes seconds to evaluate at 1000003/999
            for q0 in q0s[:-1] if x == Fraction(1, 2000) else q0s:
                assert _qdelta_at(x, q0, left) == _delta_value(delta, q0), (x, q0, left)
    for x in (Fraction(2001), Fraction(1, 2001)):
        for left in (False, True):
            with pytest.raises(ValueError, match=f"^q-deformation too large: its q-degree may exceed {MAX_QDEGREE}$"):
                _qdelta_at(x, Fraction(2), left)
    with pytest.raises(ValueError, match="^q0 must be nonzero$"):
        numeric_sweep(BraidWord((1,), 2), Fraction(0), [Fraction(1, 2)])


def gaussian_binomial(n: int, k: int) -> RatFun:
    """Classical product formula over integer q-integers only."""
    out = RatFun.one()
    for i in range(1, k + 1):
        out = out * qint_closed(n - k + i) / qint_closed(i)
    return out


def test_qbinomial_examples():
    assert qbinomial(Fraction(7, 3), 0) == RatFun.one()
    assert qbinomial(4, 2) == RatFun.from_laurent(IntLaurent({0: 1, 2: 1, 4: 2, 6: 1, 8: 1}))
    assert qbinomial(2, 3).is_zero()


def test_qbinomial_matches_gaussian():
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert qbinomial(n, k) == gaussian_binomial(n, k)


def test_qfactorial():
    assert qfactorial(3) == RatFun.from_laurent(qint(2)) * RatFun.from_laurent(qint(3))


# ---------------------------------------------------------------------------
# left deformation
# ---------------------------------------------------------------------------


def test_left_base_values():
    assert left_qrational(1) == qp(2)
    for n in range(-3, 6):
        assert left_qrational(n) == qrational(n - 1) + qp(2 * n)
    assert left_qdelta(2) == RatFun.from_laurent(IntLaurent({0: 1, 2: -1, 4: 1}))


def test_left_shift_identity():
    rng = random.Random(19)
    for _ in range(40):
        x = Fraction(rng.randint(-120, 120), rng.randint(1, 40))
        assert left_qrational(x + 1) == qp(2) * left_qrational(x) + RatFun.one()


def test_left_differs_from_right():
    rng = random.Random(23)
    for _ in range(40):
        x = Fraction(rng.randint(-120, 120), rng.randint(1, 40))
        assert left_qrational(x) != qrational(x)


def test_left_inversion_spot_checks():
    # Not asserted in general; these specific instances hold and are pinned.
    for x in (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(3, 2)):
        assert left_qrational(1 / x) == left_qrational(x).invert_q().inverse()


def test_left_matches_limit_oracle():
    for x in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(2, 3)):
        seq = (qrational(x - Fraction(1, k)) for k in range(2, 10**9))
        assert q_adic_limit(seq, 20) == series_expand(left_qrational(x), 20)


def test_left_and_right_agree_along_irrational_limits():
    # Along convergents of an irrational the two deformations share one
    # q-adic limit; rational points are where they disagree.
    def sqrt2_convergents():
        p0, q0, p1, q1 = 1, 1, 3, 2
        while True:
            yield Fraction(p1, q1)
            p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0

    right = q_adic_limit((qrational(x) for x in sqrt2_convergents()), 20)
    left = q_adic_limit((left_qrational(x) for x in sqrt2_convergents()), 20)
    assert right == left
    assert right.coefficient(6) == 1 and right.coefficient(10) == -2


def test_left_matches_limit_oracle_slow_denominator():
    x = Fraction(7, 5)
    seq = (qrational(x - Fraction(1, k)) for k in range(2, 10**9))
    assert q_adic_limit(seq, 20, budget=2000) == series_expand(left_qrational(x), 20)


# ---------------------------------------------------------------------------
# q-adic limits
# ---------------------------------------------------------------------------


def test_q_adic_limit_constant():
    f = qrational(Fraction(5, 2))
    assert q_adic_limit((f for _ in range(100)), 12) == series_expand(f, 12)


def test_q_adic_limit_left_of_one():
    seq = (qrational(Fraction(k - 1, k)) for k in range(2, 10**9))
    assert q_adic_limit(seq, 10) == TruncSeries(10, {2: 1})


def test_q_adic_limit_fibonacci():
    # q-deformed golden ratio prefix; value frozen from the oracle itself.
    def ratios():
        a, b = 1, 1
        while True:
            a, b = b, a + b
            yield qrational(Fraction(b, a))

    assert q_adic_limit(ratios(), 8) == TruncSeries(8, {0: 1, 4: 1, 6: -1, 8: 2})


def test_q_adic_limit_increasing_integers_converges():
    # {k} -> 1/(1 - q^2) coefficient-wise
    seq = (qrational(k) for k in range(1, 10**9))
    assert q_adic_limit(seq, 6) == TruncSeries(6, {0: 1, 2: 1, 4: 1, 6: 1})


def test_q_adic_limit_divergent():
    seq = (qrational(Fraction(1, 2) if k % 2 else Fraction(1, 3)) for k in range(10**9))
    with pytest.raises(ValueError, match="not q-adically convergent"):
        q_adic_limit(seq, 6, budget=50)
