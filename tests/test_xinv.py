"""x-indexed specializations: anchors, chirality, colored scalars, sweeps."""

import random
from fractions import Fraction
from itertools import product

import pytest

from helpers import closure_stats
from qlink.braid import BraidWord, parse_braid
from qlink.exactalg import IntLaurent, IntLaurent2, NuValue, RatFun, RatFun2, specialize_a
from qlink.homfly import homfly, homfly_twist_coeff
from qlink.qnum import MAX_QDEGREE, _delta, left_qdelta, left_qrational, qbinomial, qdelta, qint, qrational
from qlink.xinv import (
    XContext,
    colored_stab_unknot,
    colored_unknot_u,
    digon_specialize,
    flat_context,
    flat_invariant,
    normalized_invariant,
    numeric_sweep,
    specialize_closure,
    twist_coeff_x,
    verify_uniqueness_constraint,
    x_context,
    x_invariant,
)

UNKNOT = parse_braid("", strands=1)
S1 = parse_braid("1")
S1_INV = parse_braid("-1")
HOPF = parse_braid("1 1")
TREFOIL = parse_braid("-1 -1 -1")  # closure matching the closed-form cube below
TREFOIL_MIRROR = parse_braid("1 1 1")
FIG8 = parse_braid("1 -2 1 -2")

X_SAMPLES = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(2, 3), Fraction(5, 2)]


def trefoil_closed_form(x: Fraction) -> RatFun:
    """nu^2 {x} (q^4 + (1 - q^2){x+1}), reduced to its even part."""
    bracket = RatFun.q_power(4) + (RatFun.one() - RatFun.q_power(2)) * qrational(x + 1)
    return qrational(x) * bracket / qdelta(x)


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def test_stabilized_unknot_gives_qrational():
    for x in X_SAMPLES:
        v = x_invariant(S1, x_context(x))
        assert v.odd.is_zero()
        assert v.even == qrational(x)


def test_unknot_gives_nu_qrational():
    for x in X_SAMPLES:
        v = x_invariant(UNKNOT, x_context(x))
        assert v.even.is_zero()
        assert v.odd == qrational(x)


def test_integer_context_recovers_rank_n_invariant():
    from qlink.homfly import rt_invariant

    corpus = [UNKNOT, S1, HOPF, TREFOIL_MIRROR, TREFOIL, FIG8, parse_braid("1 1 1 1 1")]
    for n in (2, 3):
        ctx = x_context(Fraction(n))
        for w in corpus:
            v = x_invariant(w, ctx)
            collapsed = v.even + v.odd * RatFun.q_power(1 - n)  # v = q^(1-n) at x = n
            assert collapsed == homfly(w).subs_a_power_of_q(n)
            assert collapsed == rt_invariant(w, n)


def test_trefoil_example_formula():
    for x in X_SAMPLES + [Fraction(-1)]:
        v = x_invariant(TREFOIL, x_context(x))
        assert v.odd.is_zero()
        assert v.even == trefoil_closed_form(x)


def test_trefoil_mirror_is_bar_image():
    for x in [Fraction(2), Fraction(1, 2)]:
        v = x_invariant(TREFOIL_MIRROR, x_context(x))
        w = specialize_a(homfly(TREFOIL).subs_bar(), qdelta(x))
        assert v == w


def test_two_thirds_chirality_and_printed_fractions():
    ctx = x_context(Fraction(2, 3))
    tref = x_invariant(TREFOIL, ctx).even
    mirr = x_invariant(TREFOIL_MIRROR, ctx).even
    assert tref != mirr
    computed_den = IntLaurent({0: 1, 2: 1, 4: 2, 6: 2, 8: 2, 10: 1})
    assert tref == RatFun(IntLaurent({4: 1, 6: 1, 8: 2, 10: 2}), computed_den)
    assert mirr == RatFun(IntLaurent({-2: 1, 4: 1, 6: 1, 8: 2, 10: 1}), computed_den)
    # The printed pair of fractions carries the same numerators over a
    # denominator that differs from the computed one in the single q^4
    # coefficient (1 instead of 2); the engine value is authoritative.
    printed_den = IntLaurent({0: 1, 2: 1, 4: 1, 6: 2, 8: 2, 10: 1})
    assert computed_den - printed_den == IntLaurent({4: 1})


def test_nu_parity_is_components_plus_writhe():
    rng = random.Random(73)
    ctx = x_context(Fraction(2, 3))
    for _ in range(12):
        n = rng.randint(2, 3)
        letters = tuple(rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6)))
        w = BraidWord(letters, n)
        stats = closure_stats(w)
        v = x_invariant(w, ctx)
        assert v.nu_parity() == (stats.components + stats.writhe) % 2


# ---------------------------------------------------------------------------
# normalized invariant
# ---------------------------------------------------------------------------


def test_normalized_is_markov_invariant():
    # every variant below closes to the same knot as sigma_1^3
    ctx = x_context(Fraction(2, 3))
    base = normalized_invariant(TREFOIL_MIRROR, ctx)
    variants = [
        parse_braid("1 1 1 1 -1"),  # free cancellation
        parse_braid("1 1 1 2", strands=3),  # positive stabilization
        parse_braid("1 1 1 -2", strands=3),  # negative stabilization
        parse_braid("2 1 1 1", strands=3),  # conjugate of the stabilized word
        parse_braid("1 2 1 1", strands=3),
    ]
    for w in variants:
        assert normalized_invariant(w, ctx) == base


def test_normalized_unknot_representatives_agree():
    ctx = x_context(Fraction(5, 2))
    vals = {
        str(normalized_invariant(w, ctx))
        for w in (
            UNKNOT,
            S1,
            S1_INV,
            parse_braid("1 1 -1"),
            parse_braid("1 2", strands=3),
            parse_braid("1 -2", strands=3),
        )
    }
    assert vals == {str(qrational(Fraction(5, 2)))}


def test_normalized_free_cancellation_on_unlink():
    # empty word and sigma_1 sigma_1^-1 on two strands close to the same
    # two-component unlink
    ctx = x_context(Fraction(2, 3))
    empty2 = parse_braid("", strands=2)
    cancel = parse_braid("1 -1")
    got = normalized_invariant(cancel, ctx)
    assert got == normalized_invariant(empty2, ctx)
    assert got == qrational(Fraction(2, 3)) ** 2 / ctx.delta


def test_normalized_trefoil_regressions():
    ctx2 = x_context(Fraction(2))
    assert normalized_invariant(TREFOIL, ctx2) == RatFun(IntLaurent({2: 1, 4: 1, 6: 1, 10: -1}))
    assert normalized_invariant(TREFOIL_MIRROR, ctx2) == RatFun(
        IntLaurent({0: 1, -2: 1, -4: 1, -8: -1})
    )


# ---------------------------------------------------------------------------
# colored scalars
# ---------------------------------------------------------------------------


def test_colored_unknot_closed_form_and_recursion():
    for x in (Fraction(2), Fraction(5, 2)):
        ctx = x_context(x)
        u_prev = None
        for k in range(1, 7):
            u = colored_unknot_u(ctx, k)
            if k == 1:
                assert u.even.is_zero() and u.odd == qrational(x)
            if u_prev is not None:
                step = RatFun.q_power(2 * k - 2) * (qrational(x - k + 1) / RatFun.from_laurent(qint(k)))
                assert u == u_prev * NuValue.nu(ctx.delta) * step
            u_prev = u


def test_colored_unknot_k2():
    x = Fraction(2, 3)
    ctx = x_context(x)
    u = colored_unknot_u(ctx, 2)
    expected = RatFun.q_power(2) * qrational(x) * qrational(x - 1) / RatFun.from_laurent(qint(2))
    assert u.odd.is_zero()
    assert u.even == expected / ctx.delta


def test_colored_unknot_matches_specialized_circle_value():
    # dual route: the closed form agrees with specializing the two-variable
    # k-colored circle value directly
    from qlink.homfly import mu_colored

    for x in (Fraction(2), Fraction(5, 2), Fraction(2, 3)):
        ctx = x_context(x)
        for k in range(1, 6):
            assert specialize_a(mu_colored(k), ctx.delta) == colored_unknot_u(ctx, k)


def test_colored_stab_unknot():
    for x in X_SAMPLES:
        ctx = x_context(x)
        assert colored_stab_unknot(ctx, 1) == qrational(x)
        assert colored_stab_unknot(ctx, 2) == RatFun.q_power(2) * qbinomial(x, 2)
    assert colored_stab_unknot(x_context(Fraction(2)), 2) == RatFun.q_power(2)


def test_twist_coeff_examples():
    ctx = x_context(Fraction(2, 3))
    t1 = twist_coeff_x(ctx, 1, 1)
    assert t1.even.is_zero() and t1.odd == RatFun.one()
    t2 = twist_coeff_x(ctx, 2, 1)
    assert t2.odd.is_zero() and t2.even == RatFun.q_power(4) / ctx.delta


def test_twist_coeff_consistent_with_homfly_curl():
    for x in (Fraction(2), Fraction(2, 3), Fraction(5, 2)):
        ctx = x_context(x)
        for k in range(1, 5):
            for sign in (1, -1):
                raw = specialize_a(homfly_twist_coeff(k, sign), ctx.delta)
                assert raw == twist_coeff_x(ctx, k, sign)


def test_digon_specialize_range():
    for x in (Fraction(2), Fraction(1, 2), Fraction(2, 3)):
        ctx = x_context(x)
        for r in range(-5, 6):
            d = digon_specialize(r, ctx)  # internally checks the closed form
            assert d.even.is_zero()
            assert d.odd == RatFun.q_power(r) * qrational(x - r)


# ---------------------------------------------------------------------------
# uniqueness constraint
# ---------------------------------------------------------------------------


def test_uniqueness_constraint():
    assert verify_uniqueness_constraint(-6, 6) == {(0, -1)}
    assert verify_uniqueness_constraint(1, 6) == set()
    assert verify_uniqueness_constraint(0, 0) == {(0, -1)}
    with pytest.raises(ValueError):
        verify_uniqueness_constraint(3, 1)


# ---------------------------------------------------------------------------
# flat (left) specialization
# ---------------------------------------------------------------------------


def test_flat_stabilized_unknot_value():
    v = flat_invariant(S1, 2)
    delta_flat = left_qdelta(2)
    expected = (RatFun.q_power(2) * delta_flat - RatFun.one()) / (
        RatFun.q_power(2) - RatFun.one()
    )
    assert v.odd.is_zero()
    assert v.even == expected
    assert v.even == left_qrational(2)


def test_flat_unknot():
    v = flat_invariant(UNKNOT, 2)
    assert v.even.is_zero()
    assert v.odd == left_qrational(2)


def test_flat_detects_trefoil_chirality():
    a = flat_invariant(TREFOIL, 2)
    b = flat_invariant(TREFOIL_MIRROR, 2)
    assert a != b
    ctx = flat_context(Fraction(2))
    assert normalized_invariant(TREFOIL, ctx) != normalized_invariant(TREFOIL_MIRROR, ctx)


def test_flat_normalized_is_markov_invariant():
    ctx = flat_context(Fraction(2))
    base = normalized_invariant(TREFOIL_MIRROR, ctx)
    for w in (parse_braid("1 1 1 2", strands=3), parse_braid("1 2 1 1", strands=3)):
        assert normalized_invariant(w, ctx) == base


# ---------------------------------------------------------------------------
# x-values from the Markov pieces
# ---------------------------------------------------------------------------

FOLD_XS = [Fraction(2), Fraction(-3), Fraction(2, 3), Fraction(5, 2), Fraction(-7, 4), Fraction(1), Fraction(0)]

# words with a core and end blocks, some with single strands, as (letters, strands); the last
# one has blocks, a kink and a single strand and no core
CORE_AND_BLOCK_WORDS = [("1 -2 1 -2 3 3 5 5 5", 7), ("1 -2 1 -2 3 3 3 4 4", 5), ("2 -1 2 -1 -3 -3 -4 -4", 5),
                        ("1 1 2 -1 2 3 3 3 -4 -4", 6), ("-1 -1 -1 2 -3 2 -3 4 4", 5),
                        ("1 -2 1 -2 1 -2 3 3 -4 -4 -4 -4 -4", 5), ("1 2 -1 2 2 -3 -3 -4 -4 -4 -4", 5)]


def test_x_values_equal_the_specialized_homfly_value():
    # x_invariant and normalized_invariant, which fold the Markov pieces over Z[q^+-1], against
    # the oracle specialize_closure(homfly(w), ctx, framing): every word of up to 5 letters on
    # 1-4 strands, one per (strands, writhe, trace), and words with cores and blocks
    from qlink.homfly import _markov_pieces, markov_trace

    words = {}
    for n in range(1, 5):
        letters = [s * i for i in range(1, n) for s in (1, -1)]
        for length in range(6):
            for word in product(letters, repeat=length):
                w = BraidWord(word, n)
                words.setdefault((n, w.writhe, frozenset(markov_trace(w).items())), w)
    assert len(words) > 100
    deep = [parse_braid(text, strands) for text, strands in CORE_AND_BLOCK_WORDS]
    pieces = [_markov_pieces(w) for w in deep]
    assert all(p.blocks for p in pieces) and all(p.strands for p in pieces[:-1])  # the last one has no core
    contexts = [make(x) for x in FOLD_XS for make in (x_context, flat_context)]
    zeros = 0
    for w in [*words.values(), *deep]:
        h = homfly(w)
        for ctx in contexts:
            value = x_invariant(w, ctx)
            assert value == specialize_closure(h, ctx), (w, ctx.x, ctx.flavor)
            assert normalized_invariant(w, ctx) == specialize_closure(h, ctx, w.writhe).nu_free_part(), (w, ctx.x)
            zeros += value.is_zero()
    assert zeros


def test_x_value_reads_x_off_the_delta_and_refuses_a_delta_of_no_x():
    # `_x_value` reads {x} off the context's delta alone, through q^2 delta = (q^2 - 1) {x} + 1,
    # so a context that pairs x with another delta (only a hand-built one can) gets the
    # oracle's value at that delta; a delta with delta(1) != 1 or delta(-1) != 1 is delta_x of
    # no {x}, as q^2 - 1 does not divide q^2 P - Q, and is refused
    from qlink.xinv import _x_value

    for ctx in (XContext(Fraction(2), "right", qdelta(3)), XContext(Fraction(2), "flat", qdelta(2)),
                XContext(Fraction(1, 2), "right", left_qdelta(Fraction(1, 2)))):
        for w in (TREFOIL, FIG8):
            h = homfly(w)
            assert x_invariant(w, ctx) == specialize_closure(h, ctx), (w, ctx)
            assert normalized_invariant(w, ctx) == specialize_closure(h, ctx, w.writhe).nu_free_part(), (w, ctx)
    for delta in (RatFun.from_int(2), RatFun.q_power(1)):  # delta(1) = 2; delta(-1) = -1
        ctx = XContext(Fraction(2), "right", delta)
        for fn in (lambda: _x_value(TREFOIL, ctx), lambda: x_invariant(TREFOIL, ctx), lambda: normalized_invariant(FIG8, ctx)):
            with pytest.raises(ValueError, match=r"^the context's delta is not delta_x: delta\(1\) and delta\(-1\) must be 1$"):
                fn()
    assert _x_value(TREFOIL, XContext(Fraction(2), "flat", left_qdelta(2))) == flat_invariant(TREFOIL, 2)


def test_an_x_value_runs_the_ladder_once_in_its_context(monkeypatch):
    # {x} is read off the context's delta, so x's continued-fraction ladder runs once per
    # x_invariant(w, x_context(x)), in the context, and once per symbolic sweep row; `_x_value`
    # itself builds no q-rational and no delta
    import qlink.qnum as qnum
    import qlink.xinv as xinv

    ladders = []  # one entry per run of the ladder, under either name: True over Z[q^+-1]
    ladder = qnum._ladder

    def counted(x, r, s, left=False):
        ladders.append(not isinstance(r, int))
        return ladder(x, r, s, left)

    for owner in (qnum, xinv):
        monkeypatch.setattr(owner, "_ladder", counted)
    xs = [Fraction(0), Fraction(2), Fraction(-7, 4), Fraction(5, 2), Fraction(13, 5)]
    for x in xs:
        for make in (x_context, flat_context):
            for w in (UNKNOT, TREFOIL, FIG8, parse_braid("1 -2 1 -2 3 3 5 5 5", 7)):
                ladders.clear()
                x_invariant(w, make(x))
                assert ladders == [True], (w, x, make)
    symbolic = _count_symbolic_rows(monkeypatch)
    for flavor in ("right", "flat"):
        for w in (TREFOIL, FIG8):
            symbolic.clear()
            ladders.clear()
            numeric_sweep(w, Fraction(1), xs, flavor=flavor)
            # one integer ladder per row; x = 0 has value 0 at q0 = 1, and its context runs it over Z[q^+-1]
            assert symbolic == [0] and ladders == [False, True] + [False] * (len(xs) - 1), (w, flavor)
    contexts = [make(x) for x in xs for make in (x_context, flat_context)]

    def forbidden(*args):
        raise AssertionError("an x-value built a q-rational or a delta")

    for owner, name in ((xinv, "qrational"), (xinv, "left_qrational"), (qnum, "qrational"), (qnum, "left_qrational"),
                        (qnum, "_delta")):
        monkeypatch.setattr(owner, name, forbidden)
    ladders.clear()
    for ctx in contexts:
        xinv._x_value(FIG8, ctx)
        normalized_invariant(TREFOIL, ctx)
    assert not ladders


# ---------------------------------------------------------------------------
# numeric sweep
# ---------------------------------------------------------------------------


def test_sweep_stabilized_unknot():
    xs = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(2)]
    rows, diagnostics = numeric_sweep(S1, Fraction(2), xs)
    assert not diagnostics
    by_x = {r.x: r for r in rows}
    assert by_x[Fraction(1, 2)].value == Fraction(4, 5)
    assert by_x[Fraction(1)].value == 1
    assert by_x[Fraction(2)].value == 5
    assert by_x[Fraction(0)].value == 0
    for x in xs:
        assert by_x[x].flag == ""
        assert by_x[x].value == qrational(x).evaluate(2)


def test_sweep_odd_values_use_square():
    rows, diagnostics = numeric_sweep(UNKNOT, Fraction(2), [Fraction(1, 2)])
    assert not diagnostics
    (row,) = rows
    assert row.flag == "squared"
    x = Fraction(1, 2)
    assert row.value == (qrational(x) ** 2 / qdelta(x)).evaluate(2)


def test_sweep_normalized_matches_direct_value():
    xs = [Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)]
    rows, diagnostics = numeric_sweep(TREFOIL, Fraction(2), xs, normalized=True)
    assert not diagnostics
    for row in rows:
        ctx = x_context(row.x)
        assert row.value == normalized_invariant(TREFOIL, ctx).evaluate(2)


def test_sweep_evaluates_at_classical_point():
    # q0 = 1 only works because every (q^2 - 1) factor cancels exactly.
    rows, diagnostics = numeric_sweep(S1, Fraction(1), [Fraction(1, 2), Fraction(2)])
    by_x = {r.x: r for r in rows}
    assert by_x[Fraction(1, 2)].value == Fraction(1, 2)
    assert by_x[Fraction(2)].value == 2
    assert not diagnostics


def test_sweep_refuses_a_flavor_that_no_context_has(monkeypatch):
    # any flavor but right and flat is refused as XContext refuses it, before the word is
    # traced; such a flavor once computed the flat rows (61/65 here) in silence
    import qlink.xinv as xinv

    refused = "^flavor must be 'right' or 'flat'$"
    with pytest.raises(ValueError, match=refused):
        XContext(Fraction(1, 2), "bogus", qdelta(Fraction(1, 2)))
    args = (TREFOIL_MIRROR, Fraction(2), [Fraction(1, 2)])
    assert [r.value for r in numeric_sweep(*args, flavor="flat")[0]] == [Fraction(61, 65)]
    assert [r.value for r in numeric_sweep(*args, flavor="right")[0]] == [Fraction(269, 340)]
    monkeypatch.setattr(xinv, "_markov_pieces", lambda w: pytest.fail("the word was traced"))
    for flavor in ("bogus", "left", "Right", ""):
        with pytest.raises(ValueError, match=refused):
            numeric_sweep(*args, flavor=flavor)


def _per_point_sweep(w, q0, xs, normalized, flavor, h=None):
    """The sweep as one symbolic specialization per x, specialize_closure(h, ctx, framing) with
    h = homfly(w) unless given: the oracle of `numeric_sweep`'s rows, independent of the fold
    that `numeric_sweep` runs.  It reads the contexts from `qlink.xinv`, so a monkeypatched
    context reaches the oracle too."""
    import qlink.xinv as xinv

    h = homfly(w) if h is None else h
    rows, diagnostics = [], []
    for x in xs:
        try:
            ctx = xinv.x_context(x) if flavor == "right" else xinv.flat_context(x)
            v = specialize_closure(h, ctx, w.writhe if normalized else 0)
            if normalized:
                rows.append((x, v.nu_free_part().evaluate(q0), ""))
            elif v.odd.is_zero():
                rows.append((x, v.even.evaluate(q0), ""))
            else:
                rows.append((x, (v.odd * v.odd / ctx.delta).evaluate(q0), "squared"))
        except (ZeroDivisionError, ValueError) as exc:
            diagnostics.append(f"x={x}: {exc}")
    return rows, diagnostics


def _sweep(w, q0, xs, normalized=False, flavor="right"):
    rows, diagnostics = numeric_sweep(w, q0, xs, normalized, flavor)
    return [(r.x, r.value, r.flag) for r in rows], diagnostics


def _count_symbolic_rows(monkeypatch) -> list:
    """Record the x of each symbolic row `numeric_sweep` computes: one `_x_value` call each."""
    import qlink.xinv as xinv

    calls = []
    fold = xinv._x_value
    monkeypatch.setattr(xinv, "_x_value", lambda w, ctx, *k: calls.append(ctx.x) or fold(w, ctx, *k))
    return calls


def _inject_x(monkeypatch, f: RatFun) -> None:
    """Make `numeric_sweep` see {x} = f in right contexts, on both paths: the ladder at q0,
    whose pair has den = 0 at a pole of f, and the context, whose delta is delta_x of f,
    which `_x_value` reads {x} off."""
    import qlink.xinv as xinv

    def ladder(x, r, s, left=False):
        q0 = Fraction(r, s)
        num, den = f.num.evaluate(q0), f.den.evaluate(q0)
        return num.numerator * den.denominator, den.numerator * num.denominator

    delta = RatFun(*_delta(f.num, f.den, IntLaurent.q_power(2), 1))
    monkeypatch.setattr(xinv, "x_context", lambda x: XContext(Fraction(x), "right", delta))
    monkeypatch.setattr(xinv, "_ladder", ladder)


def _inject_value(monkeypatch, F: RatFun2) -> None:
    """Make `numeric_sweep` see the closure value F: every integer row is refused, so every
    row is the symbolic one, and `_x_value` specializes F."""
    import qlink.xinv as xinv

    monkeypatch.setattr(xinv, "_closure_at", lambda pieces, writhe, r, s, framing=0: lambda *args: None)
    monkeypatch.setattr(xinv, "_x_value", lambda w, ctx, framing=0, pieces=None: specialize_closure(F, ctx, framing))


def _cf_rational(rng: random.Random, length: int) -> Fraction:
    """A rational with a continued fraction [a1, ..., a_length], a1 of any sign."""
    terms = [rng.randint(-4, 4)] + [rng.randint(1, 4) for _ in range(length - 1)]
    x = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        x = a + 1 / x
    return x


SWEEP_Q0S = [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2), Fraction(-2), Fraction(2, 3), Fraction(1), Fraction(-1)]


def test_sweep_rows_equal_the_symbolic_oracle(monkeypatch):
    # the pointwise rows equal the symbolic ones, at q0 = +-1 too; the symbolic row
    # runs exactly where the value is 0 (such as right x = 0: {0} = 0 makes
    # a^2 = q^2 delta = 1)
    symbolic = _count_symbolic_rows(monkeypatch)
    zero_rows = 0
    rng = random.Random(61)
    for i in range(10):
        n = 1 + i % 5
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))) if n > 1 else ()
        w = BraidWord(letters, n)
        xs = [Fraction(0)] + [_cf_rational(rng, length) for length in range(1, 7)]
        for q0 in SWEEP_Q0S:
            for normalized in (False, True):
                for flavor in ("right", "flat"):
                    symbolic.clear()
                    got = _sweep(w, q0, xs, normalized, flavor)
                    zeros = [x for x, value, _ in got[0] if value == 0]
                    assert symbolic == zeros, (w, q0, normalized, flavor)
                    assert got == _per_point_sweep(w, q0, xs, normalized, flavor), (w, q0, normalized, flavor)
                    assert flavor == "flat" or zeros[:1] == [0]
                    zero_rows += len(zeros)
    assert zero_rows


def test_sweep_falls_back_where_delta_or_the_denominator_is_irregular(monkeypatch):
    # crafted, since no closure value or context on the tested grids has such a point:
    # {x} = (q - 1) / (3q - 9) makes delta = ((q^2 - 1) {x} + 1) / q^2 0 at q0 = 2 and a
    # pole at q0 = 3; the value (a^2 - q^4) / (q - 2) has a denominator that vanishes at
    # q0 = 2 (its rows are poles, except at right x = 2, where a^2 = q^2 delta = q^4 makes
    # it 0)
    _inject_x(monkeypatch, RatFun(IntLaurent({0: -1, 1: 1}), IntLaurent({0: -9, 1: 3})))
    symbolic = _count_symbolic_rows(monkeypatch)
    xs = [Fraction(1, 2)]
    for q0 in (Fraction(2), Fraction(3), Fraction(5)):
        for normalized in (False, True):
            symbolic.clear()
            got = _sweep(TREFOIL, q0, xs, normalized)
            assert symbolic == ([] if q0 == 5 else xs), (q0, normalized)
            assert got == _per_point_sweep(TREFOIL, q0, xs, normalized, "right")
    monkeypatch.undo()
    F = RatFun2(IntLaurent2({(2, 0): 1, (0, 4): -1}), IntLaurent2({(0, 1): 1, (0, 0): -2}))
    _inject_value(monkeypatch, F)
    symbolic = _count_symbolic_rows(monkeypatch)
    for normalized in (False, True):
        for flavor in ("right", "flat"):
            symbolic.clear()
            xs = [Fraction(-5, 3), Fraction(1, 2), Fraction(2)]
            got = _sweep(UNKNOT, Fraction(2), xs, normalized, flavor)
            assert symbolic == xs
            assert got == _per_point_sweep(UNKNOT, Fraction(2), xs, normalized, flavor, F)


def test_sweep_rejects_a_value_of_both_v_parities():
    # closure values have one v-parity, and the fold builds one by construction; the
    # symbolic specialization raises on a crafted value 1 + a that has both
    with pytest.raises(AssertionError, match="^specialized closure value is not homogeneous in v$"):
        specialize_closure(RatFun2(IntLaurent2({(0, 0): 1, (1, 0): 1})), x_context(Fraction(1, 2)))


def test_sweep_runs_no_symbolic_specialization_on_regular_points(monkeypatch):
    import sys

    import qlink.exactalg.laurent as laurent
    import qlink.exactalg.nu as nu
    import qlink.exactalg.ratfun as ratfun
    import qlink.qnum as qnum
    import qlink.xinv as xinv

    homfly_module = sys.modules["qlink.homfly"]  # `qlink.homfly` as an attribute is the function

    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or fn(*args))

    for owner, name in ((laurent, "laurent_gcd"), (ratfun, "laurent_gcd"), (nu, "_specialize_poly"),
                        (homfly_module, "_closure_value"), (homfly_module, "_q2_minus_1_power"),
                        (xinv, "specialize_closure"), (xinv, "_x_value")):
        counted(owner, name)

    def ladder(x, r, s, left=False, run=qnum._ladder):  # counts the runs over Z[q^+-1]; a row runs it in integers
        if not isinstance(r, int):
            calls.append("_ladder")
        return run(x, r, s, left)

    for owner in (qnum, xinv):
        monkeypatch.setattr(owner, "_ladder", ladder)
    # every polynomial is built by _Laurent.__init__ or _new, or from an IntLaurent2, and
    # every fraction by _Fraction.__init__ or _make: count the class of each
    for owner, name in ((laurent._Laurent, "__init__"), (ratfun._Fraction, "__init__")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args, fn=fn: calls.append(type(self).__name__) or fn(self, *args))
    for owner, name in ((laurent._Laurent, "_new"), (ratfun._Fraction, "_make")):
        fn = getattr(owner, name).__func__
        monkeypatch.setattr(owner, name, classmethod(lambda cls, *args, fn=fn: calls.append(cls.__name__) or fn(cls, *args)))
    xs = [Fraction(-7, 3), Fraction(1, 2), Fraction(2), Fraction(5, 8), Fraction(13, 5)]
    for w in (UNKNOT, S1, HOPF, TREFOIL, FIG8, parse_braid("1 2 -1 2 3 -2")):
        for q0 in (Fraction(2), Fraction(-1, 2), Fraction(3, 2), Fraction(1), Fraction(-1)):
            for normalized in (False, True):
                for flavor in ("right", "flat"):
                    numeric_sweep(w, q0, xs, normalized, flavor)
    assert not calls
    numeric_sweep(TREFOIL, Fraction(1), [Fraction(0), Fraction(1, 2)])  # right x = 0 is a symbolic row
    assert set(calls) == {"_x_value", "_ladder", "IntLaurent", "RatFun"}
    xinv.specialize_closure(homfly(TREFOIL), x_context(Fraction(5, 8)))  # the symbolic specialization
    assert set(calls) == {"_x_value", "_closure_value", "_q2_minus_1_power", "specialize_closure", "_specialize_poly",
                          "laurent_gcd", "_ladder", "IntLaurent", "IntLaurent2", "RatFun", "RatFun2"}  # the counters work


def test_sweep_squared_row_falls_back_to_the_fraction(monkeypatch):
    # No closure value and context on the tested grids has such a point, so
    # both are crafted: a / ((q - 2)(q - 3)) under delta = (q - 2)^2 has the
    # odd part q (q - 2) / (q - 3).  At q0 = 2 odd(q0)^2 / delta(q0) is 0/0
    # and the fraction odd^2 / delta = q^2 / (q - 3)^2 reads 4; at q0 = 3 both
    # raise.
    import qlink.xinv as xinv

    F = RatFun2(IntLaurent2({(1, 0): 1}), IntLaurent2({(0, 2): 1, (0, 1): -5, (0, 0): 6}))
    delta = RatFun(IntLaurent({0: 4, 1: -4, 2: 1}))
    _inject_value(monkeypatch, F)
    monkeypatch.setattr(xinv, "x_context", lambda x: XContext(Fraction(x), "right", delta))
    odd = specialize_a(F, delta).odd
    outcomes = []
    for q0 in (Fraction(2), Fraction(3)):
        with pytest.raises(ZeroDivisionError):
            odd.evaluate(q0) ** 2 / delta.evaluate(q0)
        rows, diagnostics = numeric_sweep(UNKNOT, q0, [Fraction(1, 2)])
        try:
            expected = ([(Fraction(1, 2), (odd * odd / delta).evaluate(q0), "squared")], [])
        except ZeroDivisionError as exc:
            expected = ([], [f"x=1/2: {exc}"])
        assert ([(r.x, r.value, r.flag) for r in rows], diagnostics) == expected
        outcomes.append(expected)
    assert outcomes == [([(Fraction(1, 2), Fraction(4), "squared")], []), ([], ["x=1/2: pole at q = 3"])]


def test_sweep_takes_one_trace_and_builds_no_homfly_value(monkeypatch):
    # the symbolic rows fold the pieces the sweep already holds, so `_markov_pieces`
    # runs once, counted under both names it is called by, and neither `homfly` nor
    # `_closure_value` runs
    import sys

    import qlink.xinv as xinv

    homfly_module = sys.modules["qlink.homfly"]  # `qlink.homfly` as an attribute is the function
    xs = [Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2), Fraction(7, 5)]
    traces, calls = [], []
    trace = homfly_module._markov_pieces
    for owner in (xinv, homfly_module):
        monkeypatch.setattr(owner, "_markov_pieces", lambda w: traces.append(w) or trace(w))
    for name in ("homfly", "_closure_value"):
        fn = getattr(homfly_module, name)
        monkeypatch.setattr(homfly_module, name, lambda *args, name=name, fn=fn: calls.append(name) or fn(*args))
    symbolic = _count_symbolic_rows(monkeypatch)
    for w in (TREFOIL, FIG8, UNKNOT, HOPF):
        for q0 in (Fraction(-2, 3), Fraction(1)):
            for normalized in (False, True):
                for flavor in ("right", "flat"):
                    for log in (traces, calls, symbolic):
                        log.clear()
                    rows, diagnostics = numeric_sweep(w, q0, xs, normalized, flavor)
                    assert traces == [w] and not calls
                    # x = 0 has value 0 where {0} = 0: always, and {0}^b = 0 at q0 = 1
                    assert symbolic == ([0] if flavor == "right" or q0 == 1 else [])
                    expected = _per_point_sweep(w, q0, xs, normalized, flavor)
                    assert ([(r.x, r.value, r.flag) for r in rows], diagnostics) == expected


def test_integer_sweep_rows_equal_the_symbolic_oracle_on_every_branch(monkeypatch):
    # each branch of the integer row's sign and power bookkeeping against the oracle
    # specialize_closure(homfly(w), ctx, framing) at q0: a negative delta power
    # (normalized, writhe > strands), q0 < 0, the flat flavor, 'squared' rows,
    # several rows per call, and x at the q-degree cap
    symbolic = _count_symbolic_rows(monkeypatch)
    kinks = parse_braid("1 1 1 1 1")  # normalized: delta^-1
    words = [UNKNOT, S1, TREFOIL, FIG8, kinks, parse_braid("-1 -1 -1 -1 2"), parse_braid("1 2 -1 2 3 -2")]
    xs = [Fraction(-7, 3), Fraction(1, 2), Fraction(2), Fraction(5, 8), Fraction(13, 5)]
    half = MAX_QDEGREE // 2
    capped = [Fraction(half), Fraction(1 - half, 2), Fraction(half + 1)]  # the symbolic {1/half} takes seconds
    flags = set()
    for w in words:
        for q0 in (Fraction(-2), Fraction(-3, 2), Fraction(1, 3), Fraction(5, 2)):
            for normalized in (False, True):
                for flavor in ("right", "flat"):
                    grid = xs + capped if w in (UNKNOT, S1) and q0 == Fraction(-3, 2) else xs
                    symbolic.clear()
                    got = _sweep(w, q0, grid, normalized, flavor)
                    assert not symbolic, (w, q0, normalized, flavor)
                    assert got == _per_point_sweep(w, q0, grid, normalized, flavor), (w, q0, normalized, flavor)
                    flags.update(flag for _, _, flag in got[0])
                    if grid is not xs:
                        assert got[1] == [f"x={half + 1}: q-deformation too large: its q-degree may exceed {MAX_QDEGREE}"]
    assert flags == {"", "squared"}
    # delta_x(q0) > 0 at every real q0 on the contexts above, so a crafted {x} = -1,
    # delta = (2 - q^2) / q^2, gives delta(q0) < 0 for q0^2 > 2, in 'squared' rows and
    # under a negative delta power
    monkeypatch.undo()
    _inject_x(monkeypatch, RatFun.from_int(-1))
    symbolic = _count_symbolic_rows(monkeypatch)
    for w in (UNKNOT, FIG8, kinks):
        for q0 in (Fraction(2), Fraction(-3, 2)):
            for normalized in (False, True):
                symbolic.clear()
                got = _sweep(w, q0, xs, normalized)
                assert not symbolic
                assert got == _per_point_sweep(w, q0, xs, normalized, "right"), (w, q0, normalized)
                assert normalized or w is kinks or {flag for _, _, flag in got[0]} == {"squared"}


def test_a_regular_sweep_row_builds_at_most_three_fractions(monkeypatch):
    # a noise-free guard on the row's shape: a regular row is summed in integers
    # and normalized once, so it builds one Fraction (at most 3 allowed), where
    # Fraction products built 12.35 per row before
    symbolic = _count_symbolic_rows(monkeypatch)
    new = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    xs = [Fraction(-7, 3), Fraction(1, 2), Fraction(2), Fraction(5, 8), Fraction(13, 5)]
    calls = [(w, q0, grid, normalized, flavor)
             for w in (UNKNOT, TREFOIL, FIG8, parse_braid("1 1 1 1 1"), parse_braid("1 2 -1 2 3 -2"))
             for q0 in (Fraction(2), Fraction(-3, 2), Fraction(1, 3))
             for grid in (xs, xs[1:2])
             for normalized in (False, True)
             for flavor in ("right", "flat")]
    for args in calls:
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", counted)
        rows, diagnostics = numeric_sweep(*args)
        monkeypatch.undo()
        assert len(rows) == len(args[2]) and not diagnostics and not symbolic, args
        assert len(built) <= 3 * len(rows), (args, len(built))
