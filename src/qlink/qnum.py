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

One ladder, `_ladder`, serves every ring: each rung is a Moebius map of the
tail, kept as a projective pair, in integers at a point q = q0 = r/s or over
Z[q^+-1] at r = q, s = 1.  So {x}(q0) costs no gcd and no polynomial, and
`qrational` is the same pair over Z[q^+-1], made canonical.  delta_x =
((q^2 - 1) {x} + 1) / q^2 is one pair formula, `_delta`, on the ladder's pair:
`qdelta`, `numeric_sweep` and `homfly._closure_at` all read it.  The tests
check both against the recursion on the two defining identities.
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


def _ladder(x: Fraction | int, r, s, left: bool = False) -> tuple:
    """{x}, or {x}^b where left, at q = r/s as a pair (num, den), not reduced: r and s are
    nonzero integers, or r = q and s = 1 over Z[q^+-1], where the pair is {x} itself.
    ValueError where {x} may pass MAX_QDEGREE.

    The even continued fraction is folded bottom-up, at q^2 = R/S.  A rung at an odd
    position (1-indexed) is {a}_u + u^a / tail with u = q^2 = U/V = R/S, one at an even
    position the same with u = q^-2 = S/R, and {k}_u = G / V^(k-1) with
    G = sum_(j<k) U^j V^(k-1-j).  G is symmetric in U and V, so it is one sum in R and S,
    built with R^k and S^k by square-and-multiply (G_2j = G_j (R^j + S^j),
    G_(j+1) = G_j R + S^j): no division, and q0 = +-1 needs no case of its own.  The
    tail is a projective pair, seeded at infinity (1, 0) or, for {x}^b, at the q-adic
    limit 1 / (1 - q^2) = -S / (R - S) of {m}: a rung is a Moebius map, so no common
    factor is removed.  Over Z[q^+-1] the ladder fractions are coprime up to monomials by
    construction, so `RatFun._reduced` makes the pair canonical without a gcd.  At
    q0 != 0 the pair is that fraction times monomials, so den = 0 exactly at a pole.
    """
    terms = even_cf(x).terms
    if 2 * sum(map(abs, terms)) > MAX_QDEGREE:
        raise ValueError(f"q-deformation too large: its q-degree may exceed {MAX_QDEGREE}")
    R, S = r * r, s * s
    num, den = (-S, R - S) if left else (1, 0)
    for i, a in enumerate(reversed(terms)):  # an even length: odd positions have odd i
        Rk, Sk, G = (R, S, 1) if a else (1, 1, 0)
        for bit in bin(abs(a))[3:]:  # (R^k, S^k, G) for k = |a|, from the top bit down
            G, Rk, Sk = G * (Rk + Sk), Rk * Rk, Sk * Sk
            if bit == "1":
                G, Rk, Sk = G * R + Sk, Rk * R, Sk * S
        V, Uk, Vk = (S, Rk, Sk) if i & 1 else (R, Sk, Rk)
        if a >= 0:  # {a}_u + u^a / tail
            num, den = G * V * num + Uk * den, Vk * num
        else:  # {a}_u = -V G / U^-a, u^a = V^-a / U^-a
            num, den = Vk * den - G * V * num, Uk * num
    return num, den


_Q = IntLaurent.q_power(1)


def qrational(x: Fraction | int) -> RatFun:
    """The q-deformation {x} of a rational number."""
    return RatFun._reduced(*_ladder(x, _Q, 1))


def left_qrational(x: Fraction | int) -> RatFun:
    """The left q-deformation {x}^b: the q-adic limit of {x - 1/k}."""
    return RatFun._reduced(*_ladder(x, _Q, 1, True))


def _delta(Xn, Xd, R, S) -> tuple:
    """delta_x = ((q^2 - 1) {x} + 1) / q^2 at q^2 = R/S, for {x} = Xn / Xd, as the pair
    ((R - S) Xn + S Xd, R Xd), not reduced: integers, or elements of Z[q^+-1].

    Over Z[q^+-1] (R = q^2, S = 1) a common factor of the pair, for Xn and Xd coprime up
    to monomials, divides q^2 - 1 and Xd; Xd(+-1) != 0 as {x} and {x}^b tend to x when
    q^2 -> 1, so `RatFun._reduced` makes it canonical without a gcd."""
    return (R - S) * Xn + S * Xd, R * Xd


def qdelta(x: Fraction | int) -> RatFun:
    """delta_x = {x} - {x - 1} = ((q^2 - 1) {x} + 1) / q^2 by the shift
    identity {x} = q^2 {x - 1} + 1; reduces to q^(2n-2) at integers."""
    return RatFun._reduced(*_delta(*_ladder(x, _Q, 1), _Q * _Q, 1))


def left_qdelta(x: Fraction | int) -> RatFun:
    """The left analogue {x}^b - {x-1}^b = ((q^2 - 1) {x}^b + 1) / q^2: the
    shift identity passes to the q-adic limit, so it holds for {x}^b too."""
    return RatFun._reduced(*_delta(*_ladder(x, _Q, 1, True), _Q * _Q, 1))


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
