"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (run with `pytest -s` to see them
as they complete).  Sample sizes and runtime bounds are part of the
criteria and are asserted, not aspirational.
"""

import itertools
import os
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import invert_q
from qlink.braid import BraidWord, mirror, parse_braid
from qlink.exactalg import IntLaurent, RatFun, RatFun2, series_expand, specialize_a
from qlink.homfly import homfly, rt_invariant
from qlink.qnum import q_adic_limit, qbinomial, qdelta, qint, qrational, left_qdelta, left_qrational
from qlink.xinv import (
    flat_context,
    flat_invariant,
    normalized_invariant,
    numeric_sweep,
    verify_uniqueness_constraint,
    x_context,
    x_invariant,
)

A = RatFun2.monomial(1, 1, 0)
Q = RatFun2.monomial(1, 0, 1)
ONE2 = RatFun2.from_int(1)

DATA_TABLE = os.path.join(os.path.dirname(__file__), "data", "knots_10crossings.csv")


@contextmanager
def criterion(number: int, description: str, limit: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] criterion {number:2d} ({description}): PASS ({elapsed:.2f}s)")
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"


def random_rational(rng: random.Random, bound: int = 1000) -> Fraction:
    num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_word(rng: random.Random, max_len: int, max_strands: int) -> BraidWord:
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_len)
    letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(letters, n)


def test_criterion_01_qrational_identities():
    with criterion(1, "shift and inversion identities, 200 random rationals", limit=10.0):
        rng = random.Random(20240101)
        q2 = RatFun.q_power(2)
        one = RatFun.one()
        for _ in range(200):
            x = random_rational(rng)
            assert qrational(x + 1) == q2 * qrational(x) + one
            if x > 0:
                assert qrational(1 / x) == invert_q(qrational(x)).inverse()


def test_criterion_02_classical_limit():
    with criterion(2, "evaluation at q=1 recovers x, 100 random rationals"):
        rng = random.Random(20240202)
        for _ in range(100):
            x = random_rational(rng)
            f = qrational(x)
            assert f.den.evaluate(Fraction(1)) != 0
            assert f.evaluate(Fraction(1)) == x


def test_criterion_03_value_regressions():
    with criterion(3, "closed-form regressions for integers, 5/2, binomials"):
        q2m1 = IntLaurent({2: 1, 0: -1})
        for n in range(-20, 21):
            num = IntLaurent({2 * n: 1}) - IntLaurent({0: 1})
            assert qrational(n) == RatFun(num, q2m1)
        assert qrational(-2) == RatFun.q_power(-4) * -qrational(2)
        # nested formula vs pure recursion chain for 5/2
        five_halves = (RatFun.q_power(2) * (RatFun.q_power(2) * qrational(Fraction(1, 2)) + 1)) + 1
        assert qrational(Fraction(5, 2)) == five_halves
        assert qrational(Fraction(1, 2)) == invert_q(qrational(2)).inverse()
        for n in range(0, 13):
            for k in range(0, n + 1):
                gauss = RatFun.one()
                for i in range(1, k + 1):
                    num = IntLaurent({2 * (n - k + i): 1}) - IntLaurent({0: 1})
                    den = IntLaurent({2 * i: 1}) - IntLaurent({0: 1})
                    gauss = gauss * RatFun(num, den)
                assert qbinomial(n, k) == gauss


def test_criterion_04_skein_markov_suite():
    with criterion(4, "skein/Markov suite, 100 instances each", limit=120.0):
        rng = random.Random(20240404)
        qi = Q.inverse()
        for _ in range(100):
            # Conway skein triple (positive letter carries the q coefficient)
            w = random_word(rng, 8, 4)
            pos = rng.randint(0, len(w.letters))
            i = rng.randint(1, w.strands - 1)
            u, v = w.letters[:pos], w.letters[pos:]
            plus = homfly(BraidWord(u + (i,) + v, w.strands))
            minus = homfly(BraidWord(u + (-i,) + v, w.strands))
            zero = homfly(BraidWord(u + v, w.strands))
            assert Q * plus - qi * minus == (Q - qi) * zero
        for _ in range(100):
            # conjugation invariance
            w = random_word(rng, 8, 4)
            k = rng.randint(0, max(0, len(w.letters)))
            assert homfly(w) == homfly(BraidWord(w.letters[k:] + w.letters[:k], w.strands))
        for _ in range(100):
            # framed stabilization factors q^{-1}a and q a^{-1}
            w = random_word(rng, 6, 3)
            n = w.strands
            h = homfly(w)
            assert homfly(BraidWord(w.letters + (n,), n + 1)) == qi * A * h
            assert homfly(BraidWord(w.letters + (-n,), n + 1)) == Q * A.inverse() * h
        for _ in range(100):
            # free cancellation
            w = random_word(rng, 8, 4)
            pos = rng.randint(0, len(w.letters))
            i = rng.randint(1, w.strands - 1)
            padded = BraidWord(w.letters[:pos] + (i, -i) + w.letters[pos:], w.strands)
            assert homfly(padded) == homfly(w)
        for _ in range(100):
            # braid relation
            w = random_word(rng, 6, 4)
            n = max(w.strands, 3)
            w = BraidWord(w.letters, n)
            i = rng.randint(1, n - 2)
            pos = rng.randint(0, len(w.letters))
            lhs = BraidWord(w.letters[:pos] + (i, i + 1, i) + w.letters[pos:], n)
            rhs = BraidWord(w.letters[:pos] + (i + 1, i, i + 1) + w.letters[pos:], n)
            assert homfly(lhs) == homfly(rhs)


def test_criterion_05_oracle_equivalence():
    with criterion(5, "Hecke trace vs R-matrix, exhaustive + random", limit=600.0):
        for strands, alphabet in ((2, (1, -1)), (3, (1, -1, 2, -2))):
            for length in range(0, 7):
                for letters in itertools.product(alphabet, repeat=length):
                    w = BraidWord(letters, strands)
                    h = homfly(w)
                    for n in (2, 3):
                        assert h.subs_a_power_of_q(n) == rt_invariant(w, n)
        rng = random.Random(20240505)
        for _ in range(50):
            w = random_word(rng, 8, 4)
            h = homfly(w)
            for n in (2, 3):
                assert h.subs_a_power_of_q(n) == rt_invariant(w, n)


def test_criterion_06_stabilized_unknot():
    with criterion(6, "stabilized unknot values"):
        s1 = parse_braid("1")
        assert homfly(s1) == (A * A - ONE2) / (Q * Q - ONE2)
        for x in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 2)):
            v = x_invariant(s1, x_context(x))
            assert v.odd.is_zero() and v.even == qrational(x)
        for n in (2, 3):
            v = x_invariant(s1, x_context(Fraction(n)))
            assert v.even == RatFun.from_laurent(qint(n))
            assert rt_invariant(s1, n) == RatFun.from_laurent(qint(n))


def test_criterion_07_trefoil_example():
    with criterion(7, "trefoil closed form at six x values + framed Jones"):
        # Under the stabilized-unknot calibration the closed form belongs to
        # the closure of sigma_1^-3; sigma_1^3 carries its mirror image.
        tref = parse_braid("-1 -1 -1")
        mirr = parse_braid("1 1 1")
        for x in (Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 2), Fraction(-1)):
            ctx = x_context(x)
            bracket = RatFun.q_power(4) + (RatFun.one() - RatFun.q_power(2)) * qrational(x + 1)
            closed_even = qrational(x) * bracket / qdelta(x)
            v = x_invariant(tref, ctx)
            assert v.odd.is_zero() and v.even == closed_even
            vm = x_invariant(mirr, ctx)
            assert vm == specialize_a(homfly(tref).subs_bar(), ctx.delta)
        # at x = 2 the even part is the framed Jones value (rank-2 oracle)
        v2 = x_invariant(tref, x_context(Fraction(2)))
        assert v2.even == rt_invariant(tref, 2)
        assert v2.even == homfly(tref).subs_a_power_of_q(2)


def test_criterion_08_two_thirds_chirality():
    with criterion(8, "x=2/3 trefoil chirality + printed-fraction comparison"):
        ctx = x_context(Fraction(2, 3))
        tref = x_invariant(parse_braid("-1 -1 -1"), ctx).even
        mirr = x_invariant(parse_braid("1 1 1"), ctx).even
        assert tref != mirr
        computed_den = IntLaurent({0: 1, 2: 1, 4: 2, 6: 2, 8: 2, 10: 1})
        printed_den = IntLaurent({0: 1, 2: 1, 4: 1, 6: 2, 8: 2, 10: 1})
        assert tref == RatFun(IntLaurent({4: 1, 6: 1, 8: 2, 10: 2}), computed_den)
        assert mirr == RatFun(IntLaurent({-2: 1, 4: 1, 6: 1, 8: 2, 10: 1}), computed_den)
        # comparison outcome against the printed pair: numerators agree, the
        # printed common denominator differs in exactly one coefficient
        diff = computed_den - printed_den
        assert diff == IntLaurent({4: 1})
        print(
            "[acceptance]   note: printed x=2/3 denominator differs from the"
            " computed one by a single q^4 coefficient; engine values kept"
        )


def test_criterion_09_left_deformation():
    with criterion(9, "left deformation matches the q-adic limit oracle"):
        for x in (Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2), Fraction(2, 3)):
            seq = (qrational(x - Fraction(1, k)) for k in itertools.count(2))
            assert q_adic_limit(seq, 20) == series_expand(left_qrational(x), 20)
        assert left_qdelta(2) == RatFun.from_laurent(IntLaurent({0: 1, 2: -1, 4: 1}))


def test_criterion_10_flat_invariant():
    with criterion(10, "flat invariant detects trefoil chirality"):
        a = flat_invariant(parse_braid("1 1 1"), 2)
        b = flat_invariant(parse_braid("-1 -1 -1"), 2)
        assert a != b
        ctx = flat_context(Fraction(2))
        assert normalized_invariant(parse_braid("1 1 1"), ctx) != normalized_invariant(
            parse_braid("-1 -1 -1"), ctx
        )


def test_criterion_10_table_coincidence_pairs():
    if not os.path.exists(DATA_TABLE):
        pytest.skip(
            "10-crossing braid table not supplied "
            f"(placing one at {DATA_TABLE} enables the coincidence-pair check)"
        )
    with criterion(10, "flat-invariant coincidence pairs from supplied table"):
        _check_ten_crossing_pairs()


def _check_ten_crossing_pairs():
    from qlink.cli import load_knot_table

    table = dict(load_knot_table(DATA_TABLE).entries)
    ctx = flat_context(Fraction(2))
    for a, b in (("5_1", "10_132"), ("10_25", "10_56")):
        wa, wb = table[a], table[b]
        matched = False
        for wb_variant in (wb, mirror(wb)):
            if normalized_invariant(wa, ctx) == normalized_invariant(wb_variant, ctx):
                ha = homfly(wa) * RatFun2.monomial(1, -1, 1) ** wa.writhe
                hb = homfly(wb_variant) * RatFun2.monomial(1, -1, 1) ** wb_variant.writhe
                assert ha == hb, f"{a}/{b}: flat values collide but HOMFLY values differ"
                matched = True
                break
        assert matched, f"expected flat-invariant coincidence for {a} and {b}"
    print("[acceptance]   note: 10-crossing coincidence pairs verified from supplied table")


def test_criterion_11_uniqueness_constraint():
    with criterion(11, "uniqueness constraint scan", limit=1.0):
        assert verify_uniqueness_constraint(-6, 6) == {(0, -1)}


def test_criterion_12_sweep_reproduction():
    with criterion(12, "stabilized-unknot sweep at q0=2"):
        s1 = parse_braid("1")
        xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
        rows, diagnostics = numeric_sweep(s1, Fraction(2), xs)
        assert not diagnostics
        values = [r.value for r in rows]
        assert values[0] == 0
        assert values[2] == Fraction(4, 5)
        assert values[4] == 1
        for row in rows:
            assert row.value == qrational(row.x).evaluate(2)
            assert row.flag == ""
        assert values == sorted(values)  # monotone over this sample
        assert values[1] == Fraction(64, 85) and values[3] == Fraction(84, 85)
        # the underlying function of x is genuinely discontinuous: the
        # left-limit value at 1/2 differs from the value itself
        assert left_qrational(Fraction(1, 2)).evaluate(2) == Fraction(16, 17)
        assert qrational(Fraction(1, 2)).evaluate(2) == Fraction(4, 5)
