"""q-deformed numbers.

Conventions: the q-integer is {n} = (q^2n - 1)/(q^2 - 1), so {2} = 1 + q^2,
and every rational x gets a q-deformation {x} through its even continued
fraction expansion.  The nested formula alternates between plain rungs
{a} + q^2a / (...) at odd positions and inverted rungs {a}_{q^-2} + q^-2a
/ (...) at even positions.  The two defining identities are

    {x + 1} = q^2 {x} + 1        and        {1/x} = 1 / {x}_{q^-1},

and both are exercised heavily by the test suite.

Left q-deformations {x}^b are the q-adic limits of {x - 1/k} as k grows.
They satisfy the same shift identity but take different values at every
rational.  Closed form: evaluate the same continued-fraction ladder with
one extra virtual innermost rung holding the limit value 1/(1 - q^2) (the
q-adic limit of {m} as m -> infinity).  The limit oracle `q_adic_limit`
stays the source of truth: the closed form is checked against it in tests
order by order.

At a point q = q0 the same ladder runs in integers (`_qrational_pair`): each
rung is a Moebius map of the tail, kept as a projective pair of integers, so
{x}(q0) costs no gcd and no polynomial; `numeric_sweep` reads the pair, and
derives delta_x(q0) from it.  The symbolic `qrational` and `qdelta` stay the
values for symbolic uses and the oracles of the point value.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from ._record import Record, setfield
from .exactalg import IntLaurent, RatFun, TruncSeries, series_expand

__all__ = [
    "EvenCF",
    "even_cf",
    "qint",
    "qrational",
    "qdelta",
    "qbinomial",
    "qfactorial",
    "left_qrational",
    "left_qdelta",
    "q_adic_limit",
    "MAX_QDEGREE",
]

# The largest q-degree of a q-deformation that `qrational` and `left_qrational`
# build.  {x} and {x}^b span at most 2 (|a1| + ... + |a2m|) powers of q, with
# [a1, ..., a2m] the even continued fraction of x: about 2n for x = n or 1/n.
MAX_QDEGREE = 4000


class EvenCF(Record):
    """Even-length continued fraction expansion [a1, ..., a2m].

    a1 may be any integer; all later terms are >= 1; folding reproduces the
    source rational exactly.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: tuple[int, ...]) -> None:
        if len(terms) < 2 or len(terms) % 2:
            raise ValueError("even continued fraction needs even length >= 2")
        if any(a < 1 for a in terms[1:]):
            raise ValueError("continued fraction terms after the head must be >= 1")
        setfield(self, "terms", terms)

    def fold(self) -> Fraction:
        return Fraction(*self._convergent())

    def _convergent(self) -> tuple[int, int]:
        """The folded value as an integer pair (p, q), q > 0."""
        p, q = 1, 0  # the tail a + 1/infinity = a, as convergents p/q
        for a in reversed(self.terms):
            p, q = a * p + q, p
        return p, q


def even_cf(x: Fraction | int) -> EvenCF:
    """Even-length continued fraction of a rational, via the Euclidean
    algorithm plus the tail parity fix [..., a] -> [..., a-1, 1]."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    p, d = x.numerator, x.denominator
    terms: list[int] = []
    while d:
        a = p // d
        terms.append(a)
        p, d = d, p - a * d
    if len(terms) % 2:  # a last quotient of 1 ends only an integer's expansion, where it is the head
        terms[-1] -= 1
        terms.append(1)
    cf = EvenCF(tuple(terms))
    p, q = cf._convergent()
    assert p * x.denominator == q * x.numerator, "continued fraction failed to re-fold"
    return cf


def qint(n: int) -> IntLaurent:
    """The q-integer {n} = (q^2n - 1)/(q^2 - 1) as a Laurent polynomial."""
    if n >= 0:
        return IntLaurent({2 * i: 1 for i in range(n)})
    return IntLaurent({-2 * i: -1 for i in range(1, -n + 1)})


def _ladder_terms(x: Fraction | int) -> tuple[int, ...]:
    """The even continued fraction of x, refused where {x} may pass MAX_QDEGREE."""
    terms = even_cf(x).terms
    if 2 * sum(map(abs, terms)) > MAX_QDEGREE:
        raise ValueError(f"q-deformation too large: its q-degree may exceed {MAX_QDEGREE}")
    return terms


def _ladder(terms: tuple[int, ...], seed: tuple[IntLaurent, IntLaurent]) -> RatFun:
    """Evaluate the nested continued-fraction formula bottom-up.

    Rungs at odd positions (1-indexed) contribute {a} + q^2a / tail, rungs
    at even positions {a}_{q^-2} + q^-2a / tail.  `seed` is the innermost
    tail as a raw fraction: infinity for {x}, whose innermost rung is then
    the closing {a}_{q^-2}, or 1 / (1 - q^2) for the left deformation.  The
    intermediate fractions generated here are coprime up to monomials by
    construction, so the final fraction skips the gcd.
    """
    num, den = seed
    for i in range(len(terms), 0, -1):
        a = terms[i - 1]
        if i % 2:  # plain rung
            head, q_shift = qint(a), 2 * a
        else:  # inverted rung
            head, q_shift = qint(a).subs_qinv(), -2 * a
        num, den = head * num + den.shift(q_shift), num
        if den.is_zero():
            raise ZeroDivisionError("degenerate continued fraction ladder")
    return RatFun._reduced(num, den)


def qrational(x: Fraction | int) -> RatFun:
    """The q-deformation {x} of a rational number."""
    return _ladder(_ladder_terms(x), (IntLaurent.one(), IntLaurent.zero()))


# q-adic limit of {m} for m -> infinity: the innermost rung of every left
# deformation.  As a raw fraction: 1 / (1 - q^2).
_LEFT_SEED = (IntLaurent.one(), IntLaurent({0: 1, 2: -1}))


def left_qrational(x: Fraction | int) -> RatFun:
    """The left q-deformation {x}^b: the q-adic limit of {x - 1/k}."""
    return _ladder(_ladder_terms(x), _LEFT_SEED)


def _delta(f: RatFun) -> RatFun:
    """((q^2 - 1) f + 1) / q^2 as one canonical fraction, for f = N/D = {x} or {x}^b.

    N and D are coprime, so a common factor of (q^2 - 1) N + D and q^2 D divides
    q^2 - 1; it divides D too, and D(+-1) != 0 because f tends to x as q^2 -> 1.
    So the fraction is coprime as built, and needs no gcd."""
    return RatFun._reduced(f.num.shift(2) - f.num + f.den, f.den.shift(2))


def qdelta(x: Fraction | int) -> RatFun:
    """delta_x = {x} - {x - 1} = ((q^2 - 1) {x} + 1) / q^2 by the shift
    identity {x} = q^2 {x - 1} + 1; reduces to q^(2n-2) at integers."""
    return _delta(qrational(Fraction(x)))


def left_qdelta(x: Fraction | int) -> RatFun:
    """The left analogue {x}^b - {x-1}^b = ((q^2 - 1) {x}^b + 1) / q^2: the
    shift identity passes to the q-adic limit, so it holds for {x}^b too."""
    return _delta(left_qrational(Fraction(x)))


def _qrational_pair(x: Fraction | int, r: int, s: int, left: bool = False) -> tuple[int, int] | None:
    """{x}(q0), or {x}^b(q0), at q0 = r/s != 0 as an integer pair (num, den), not reduced:
    `_ladder`'s rungs at q^2 = R/S.

    Each rung's u = q^2 or q^-2 is U/V = R/S or S/R, and the tail is a projective
    pair (num, den), seeded at infinity (1, 0) or at 1 / (1 - q^2): a rung is a
    Moebius map, so no common factor is removed.  The pair is the coprime ladder
    fraction times monomials, nonzero at q0 != 0, so den = 0 exactly at a pole.
    None where delta_x(q0) = ((R - S) num + S den) / (R den) is 0 or infinite.
    """
    terms = _ladder_terms(x)
    R, S = r * r, s * s
    num, den = (S, S - R) if left else (1, 0)
    for i in range(len(terms), 0, -1):
        a, (U, V) = terms[i - 1], ((R, S) if i % 2 else (S, R))
        Uk, Vk = U ** abs(a), V ** abs(a)
        G = (Uk - Vk) // (U - V) if U != V else abs(a)  # {|a|}_u = G / V^(|a|-1); U = V = 1 at q0 = +-1
        if a >= 0:  # {a}_u + u^a / tail
            num, den = G * V * num + Uk * den, Vk * num
        else:  # {a}_u = -V G / U^-a, u^a = V^-a / U^-a
            num, den = Vk * den - G * V * num, Uk * num
    return (num, den) if den and (R - S) * num + S * den else None


def qfactorial(k: int) -> RatFun:
    """{k}! = {k}{k-1}...{1}."""
    out = RatFun.one()
    for i in range(2, k + 1):
        out = out * RatFun.from_laurent(qint(i))
    return out


def qbinomial(x: Fraction | int, k: int) -> RatFun:
    """Generalized q-binomial {x}{x-1}...{x-k+1} / {k}!; k = 0 gives 1."""
    if k < 0:
        raise ValueError("q-binomial needs a nonnegative lower index")
    x = Fraction(x)
    out = RatFun.one()
    for i in range(k):
        out = out * qrational(x - i)
        if out.is_zero():
            return out
    return out / qfactorial(k)


def q_adic_limit(
    seq: Iterable[RatFun],
    order: int,
    window: int = 3,
    budget: int | None = None,
) -> TruncSeries:
    """Coefficient-wise limit of the q-expansions of a sequence.

    Convergence is detected empirically.  A run of `window` identical
    expansions is necessary but not sufficient: coefficients right at the
    truncation boundary sit on deceptive plateaus whose length grows with
    the index (sequences like {x - 1/k} change their expansion ever more
    rarely), so the run must additionally have lasted as long again as it
    took to reach its start.  Raises when the iteration budget (default
    32 * order) is exhausted without such a run; slow-converging sequences
    (large denominators) may need an explicit budget.
    """
    if budget is None:
        budget = max(32 * order, 64)
    it: Iterator[RatFun] = iter(seq)
    last: TruncSeries | None = None
    last_change = 1
    for i in range(1, budget + 1):
        try:
            f = next(it)
        except StopIteration:
            break
        s = series_expand(f, order)
        if last is None or s != last:
            last_change = i
            last = s
        elif i - last_change + 1 >= window and i >= 2 * last_change:
            return s
    raise ValueError(f"sequence not q-adically convergent at order {order}")
