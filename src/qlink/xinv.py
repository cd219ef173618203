"""x-indexed specializations of the HOMFLY-PT polynomial.

For a rational x, the context carries delta_x = {x} - {x-1} and the
quadratic extension generated by v with v^2 = delta_x^-1.  Substituting
a = q v delta_x into the HOMFLY-PT value of a braid closure yields the
x-invariant; the flat variant does the same with the left deformation's
delta.  At integer x = n the extension collapses (v = q^(1-n)) and the
invariant recovers the rank-n R-matrix invariant.  Every x-value is a
`NuValue` of the context's delta_x.

Values of closures are homogeneous in v, with parity equal to
(components + writhe) mod 2: a positive kink contributes the factor
q^-1 a -> v^-1, so a knot with even writhe has odd v-degree (the unknot
evaluates to v {x}).  Consequently the framing-corrected invariant
v^writhe * [closure] is a genuine invariant of the underlying link, and
its single nonzero component is the v-free rational function reported by
`normalized_invariant`.

No x-value is built from the HOMFLY-PT value.  Under a = q v delta_x every
Markov piece of a word contributes a fraction in q alone, so `_x_value` folds
the pieces at {x} over Z[q^+-1] (`homfly._closure_at`) and normalizes once, and
`numeric_sweep` runs the same fold in integers at {x}(q0).  `_x_value` reads {x}
off the context's delta_x alone: a^2 = q^2 delta_x = (q^2 - 1) {x} + 1.  The
substitution into the HOMFLY-PT value, `specialize_closure`, stays as the tests'
oracle.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, setfield
from .braid import BraidWord
from .exactalg import (
    IntLaurent,
    IntLaurent2,
    NuValue,
    RatFun,
    RatFun2,
    nu_power,
    specialize_a,
)
from .exactalg.laurent import _divide_or_none
from .exactalg.textio import QUOTE_LIMIT, quote_input
from .homfly import Pieces, _closure_at, _markov_pieces
from .qnum import _delta, _ladder, left_qdelta, left_qrational, qbinomial, qdelta, qrational

__all__ = [
    "XContext",
    "x_context",
    "flat_context",
    "x_invariant",
    "flat_invariant",
    "normalized_invariant",
    "colored_unknot_u",
    "colored_stab_unknot",
    "twist_coeff_x",
    "digon_specialize",
    "verify_uniqueness_constraint",
    "numeric_sweep",
    "SweepRow",
    "specialize_closure",
]


class XContext(Record):
    """Specialization context: the rational x, the deformation flavor
    (right or flat), and the attached nonzero delta."""

    __slots__ = ("x", "flavor", "delta")

    def __init__(self, x: Fraction, flavor: str, delta: RatFun) -> None:
        if flavor not in ("right", "flat"):
            raise ValueError("flavor must be 'right' or 'flat'")
        if delta.is_zero():
            raise ValueError("degenerate context: delta = 0")
        setfield(self, "x", x)
        setfield(self, "flavor", flavor)
        setfield(self, "delta", delta)


def x_context(x: Fraction | int) -> XContext:
    x = Fraction(x)
    return XContext(x, "right", qdelta(x))


def flat_context(x: Fraction | int) -> XContext:
    x = Fraction(x)
    return XContext(x, "flat", left_qdelta(x))


def specialize_closure(h: RatFun2, ctx: XContext, writhe: int = 0) -> NuValue:
    """A closure's HOMFLY-PT value h at a = q v delta_x, framing-corrected
    by v^writhe."""
    value = specialize_a(h, ctx.delta, writhe)
    if not value.is_homogeneous():
        raise AssertionError("specialized closure value is not homogeneous in v")
    return value


def _x_value(w: BraidWord, ctx: XContext, framing: int = 0, pieces: Pieces | None = None) -> NuValue:
    """The closure value of w at a = q v delta_x, times v^framing: `homfly._closure_at` over
    Z[q^+-1] (r = q, s = 1), on pieces = _markov_pieces(w) unless given, normalized once.
    {x} is read off ctx.delta = P / Q, as q^2 delta_x = (q^2 - 1) {x} + 1: {x} = Xn / Q with
    Xn = (q^2 P - Q) / (q^2 - 1) exactly: the pair formula `qnum._delta` run backwards, so
    x's ladder runs once, in the context.  Raises ValueError where delta(1) != 1 or
    delta(-1) != 1, as then q^2 - 1 does not divide q^2 P - Q."""
    P, Q = ctx.delta.num, ctx.delta.den
    Xn = _divide_or_none(P.shift(2) - Q, IntLaurent({0: -1, 2: 1}))
    if Xn is None:
        raise ValueError("the context's delta is not delta_x: delta(1) and delta(-1) must be 1")
    at = _closure_at(_markov_pieces(w) if pieces is None else pieces, w.writhe, IntLaurent.q_power(1), 1, framing)
    pair, zero = at(Xn, Q), RatFun.zero()
    value = RatFun(*pair) if pair else zero
    return NuValue(zero, value, ctx.delta) if (w.strands + framing) & 1 else NuValue(value, zero, ctx.delta)


def x_invariant(w: BraidWord, ctx: XContext) -> NuValue:
    """Specialization of the HOMFLY-PT polynomial of the closure of w."""
    return _x_value(w, ctx)


def flat_invariant(w: BraidWord, x: Fraction | int) -> NuValue:
    """The left-deformation (flat) specialization at rational x."""
    return x_invariant(w, flat_context(Fraction(x)))


def normalized_invariant(w: BraidWord, ctx: XContext) -> RatFun:
    """Framing-corrected invariant of the closure of w: v^writhe times the
    raw value, reported through its unique nonzero component.

    A positive kink carries v^-1, so multiplying by v^writhe removes the
    framing dependence; the result is invariant under all Markov moves.
    Its v-parity equals the component count mod 2 (odd for knots), hence
    the value returned is the component of that parity.
    """
    return _x_value(w, ctx, w.writhe).nu_free_part()


def colored_unknot_u(ctx: XContext, k: int) -> NuValue:
    """Value of a k-labeled circle: q^(k(k-1)) v^k {x choose k}."""
    return nu_power(ctx.delta, k) * colored_stab_unknot(ctx, k)


def colored_stab_unknot(ctx: XContext, k: int) -> RatFun:
    """Value of the k-labeled stabilized unknot: q^(k(k-1)) {x choose k}."""
    if k < 1:
        raise ValueError("circle labels are positive")
    return RatFun.q_power(k * (k - 1)) * qbinomial(ctx.x, k)


def twist_coeff_x(ctx: XContext, k: int, sign: int) -> NuValue:
    """Coefficient v^(sk) q^(2sk(k-1)) of a k-labeled twist of sign s."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return nu_power(ctx.delta, sign * k) * RatFun.q_power(sign * 2 * k * (k - 1))


def digon_specialize(r: int, ctx: XContext) -> NuValue:
    """Specialize (a q^-r - a^-1 q^r)/(q - q^-1); equals q^r v {x - r}.

    Both routes are computed and compared, so every call re-verifies the
    closed form against the raw substitution.
    """
    num = IntLaurent2.term(1, 1, -r) - IntLaurent2.term(1, -1, r)
    den = IntLaurent2.term(1, 0, 1) - IntLaurent2.term(1, 0, -1)
    raw = specialize_a(RatFun2(num, den), ctx.delta)
    deform = qrational if ctx.flavor == "right" else left_qrational
    closed = NuValue.nu(ctx.delta) * (RatFun.q_power(r) * deform(ctx.x - r))
    if raw != closed:
        raise AssertionError(f"digon specialization mismatch at r={r}, x={ctx.x}")
    return raw


def verify_uniqueness_constraint(alpha_lo: int, alpha_hi: int) -> set[tuple[int, int]]:
    """All (alpha, epsilon) in [lo, hi] x {+1, -1} satisfying
    q^-2 + q^(-2+2e) = q^(a-2) + q^(a+4e) as Laurent polynomials."""
    if alpha_lo > alpha_hi:
        raise ValueError("empty alpha range")
    out = set()
    for alpha in range(alpha_lo, alpha_hi + 1):
        for eps in (1, -1):
            lhs = IntLaurent.q_power(-2) + IntLaurent.q_power(-2 + 2 * eps)
            rhs = IntLaurent.q_power(alpha - 2) + IntLaurent.q_power(alpha + 4 * eps)
            if lhs == rhs:
                out.add((alpha, eps))
    return out


class SweepRow(Record):
    __slots__ = ("x", "value", "flag")

    def __init__(self, x: Fraction, value: Fraction, flag: str) -> None:
        setfield(self, "x", x)
        setfield(self, "value", value)
        setfield(self, "flag", flag)


def numeric_sweep(
    w: BraidWord,
    q0: Fraction,
    xs: list[Fraction],
    normalized: bool = False,
    flavor: str = "right",
) -> tuple[list[SweepRow], list[str]]:
    """Exact evaluations of the v-free content of the invariant at q = q0.

    Without the normalized flag the raw value's even part is evaluated
    when the value has v-degree 0; odd-degree values are reported through
    their square (flag column 'squared'), which avoids choosing a square
    root of delta(q0).  Rows whose evaluation hits a pole are skipped and
    reported as diagnostics, which quote an x past QUOTE_LIMIT characters as a
    prefix and its length.

    A row is the closure value at q = q0 and a^2 = q0^2 delta_x(q0), summed in
    integers.  Once per call: the Markov moves' pieces (`homfly._markov_pieces`),
    and from them and the writhe all of q0^n homfly(w) delta^m / a^n that depends on
    q0 alone (`homfly._closure_at`).  Per row: {x}(q0) from x's ladder as an integer
    pair (`qnum._ladder` at r, s), and that sum at it as an integer pair, which one
    `Fraction` normalizes.  Under a = q v delta, a^n v^framing is v^p q^n delta^m,
    m = n - (n + framing - p)/2, p = (n + framing) mod 2, so the row has v-parity p;
    a 'squared' row is value^2 / delta, with delta_x(q0) the pair of `qnum._delta`.  No
    factor has q^2 - 1 in a denominator (X = {x} / (q^2 delta_x)), so rows at q0 = +-1
    are integer rows too.  Where delta_x(q0) is 0 or infinite, or the value is 0 (its
    v-parity is then unknown), the row is the symbolic one: the same fold over Z[q^+-1]
    (`_x_value`) at the context's {x}, evaluated at q0, with its 0/0 points and poles.
    """
    if flavor not in ("right", "flat"):
        raise ValueError("flavor must be 'right' or 'flat'")
    if q0 == 0:
        raise ValueError("q0 must be nonzero")
    rows: list[SweepRow] = []
    diagnostics: list[str] = []
    pieces = _markov_pieces(w)
    n, e, left = w.strands, w.writhe, flavor != "right"
    framing = e if normalized else 0
    r, s = q0.numerator, q0.denominator
    R, S = r * r, s * s
    at = _closure_at(pieces, e, r, s, framing)  # q0^n homfly(w) delta^m / a^n
    squared = (n + framing) & 1 and not normalized
    for x in xs:
        if not isinstance(x, Fraction):
            x = Fraction(x)
        try:
            Xn, Xd = _ladder(x, r, s, left)
            value = at(Xn, Xd)
            if value is not None:
                num, den = value
                if squared:  # value^2 / delta
                    dn, dd = _delta(Xn, Xd, R, S)
                    num, den = num * num * dd, den * den * dn
                rows.append(SweepRow(x, Fraction(num, den), "squared" if squared else ""))
                continue
            # the symbolic row: (parity, value) as a fraction in q
            ctx = x_context(x) if flavor == "right" else flat_context(x)
            v = _x_value(w, ctx, framing, pieces)
            value = v.nu_free_part()
            if v.nu_parity() and not normalized:
                rows.append(SweepRow(x, (value * value / ctx.delta).evaluate(q0), "squared"))
            else:
                rows.append(SweepRow(x, value.evaluate(q0), ""))
        except (ZeroDivisionError, ValueError) as exc:  # a PoleError is a ZeroDivisionError
            text = str(x)
            diagnostics.append(f"x={text if len(text) <= QUOTE_LIMIT else quote_input(text)}: {exc}")
    return rows, diagnostics
