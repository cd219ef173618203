"""Arithmetic in the quadratic extension generated by v with v^2 = delta^-1.

A NuValue is e + o*v with e, o rational functions in q and delta a fixed
nonzero rational function (the context).  Values from different contexts
never mix: combining them is a hard error rather than a silent coercion.

`specialize_a` is the bridge from two-variable fractions: substituting
a = q*v*delta sends a^2 to q^2*delta and each leftover single power of a
to q*delta*v, turning a two-variable fraction into a NuValue of its
context, times a framing power v^k if asked.  It runs in Z[q^±1]: a
`RatFun2`'s denominator is free of a, so it is its own image, and each
v-parity of the numerator's image is one polynomial over a common power of
delta's numerator and denominator.  No pole can occur.  (An x-value of a
braid closure skips this image: `qlink.xinv` folds the Markov pieces at
{x}, in integers at a point q0 or over Z[q^±1], through
`qlink.homfly._closure_at`.  `specialize_a` stays the tests' oracle of that
fold, and `digon_specialize` reads it.)
"""

from __future__ import annotations

from .._record import Record, setfield
from .laurent import IntLaurent, _power
from .ratfun import RatFun, RatFun2, normalize

__all__ = ["NuValue", "nu_power", "specialize_a"]


class NuValue(Record):
    """Element e + o*v of the quadratic extension with v^2 = delta^-1."""

    __slots__ = ("even", "odd", "delta")

    def __init__(self, even: RatFun, odd: RatFun, delta: RatFun) -> None:
        if delta.is_zero():
            raise ZeroDivisionError("delta of a quadratic extension must be nonzero")
        setfield(self, "even", even)
        setfield(self, "odd", odd)
        setfield(self, "delta", delta)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def scalar(value: RatFun, delta: RatFun) -> NuValue:
        return NuValue(value, RatFun.zero(), delta)

    @staticmethod
    def nu(delta: RatFun) -> NuValue:
        return NuValue(RatFun.zero(), RatFun.one(), delta)

    @staticmethod
    def zero(delta: RatFun) -> NuValue:
        return NuValue(RatFun.zero(), RatFun.zero(), delta)

    @staticmethod
    def one(delta: RatFun) -> NuValue:
        return NuValue(RatFun.one(), RatFun.zero(), delta)

    # -- structure -----------------------------------------------------------

    def _check(self, other: NuValue) -> None:
        if self.delta != other.delta:
            raise ValueError("mismatched delta contexts in quadratic-extension arithmetic")

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def is_homogeneous(self) -> bool:
        """Exactly one of the two components vanishes (zero counts as even)."""
        return self.even.is_zero() or self.odd.is_zero()

    def nu_parity(self) -> int:
        """0 for even elements, 1 for odd; requires homogeneity."""
        if self.odd.is_zero():
            return 0
        if self.even.is_zero():
            return 1
        raise ValueError("value is not homogeneous in v")

    def nu_free_part(self) -> RatFun:
        """The single nonzero component of a homogeneous value."""
        return (self.even, self.odd)[self.nu_parity()]

    def norm(self) -> RatFun:
        """Field norm e^2 - o^2/delta."""
        return self.even ** 2 - self.odd ** 2 / self.delta

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: NuValue) -> NuValue:
        self._check(other)
        return NuValue(self.even + other.even, self.odd + other.odd, self.delta)

    def __sub__(self, other: NuValue) -> NuValue:
        self._check(other)
        return NuValue(self.even - other.even, self.odd - other.odd, self.delta)

    def __neg__(self) -> NuValue:
        return NuValue(-self.even, -self.odd, self.delta)

    def __mul__(self, other: NuValue | RatFun | int) -> NuValue:
        if isinstance(other, (RatFun, int)):
            return NuValue(self.even * other, self.odd * other, self.delta)
        self._check(other)
        e1, o1, e2, o2 = self.even, self.odd, other.even, other.odd
        even = e1 * e2 + o1 * o2 / self.delta
        odd = e1 * o2 + o1 * e2
        return NuValue(even, odd, self.delta)

    __rmul__ = __mul__

    def inverse(self) -> NuValue:
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("zero norm in quadratic-extension inversion")
        inv = n.inverse()
        return NuValue(self.even * inv, -self.odd * inv, self.delta)

    def __truediv__(self, other: NuValue) -> NuValue:
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> NuValue:
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, NuValue.one(self.delta))

    def __repr__(self) -> str:
        from .textio import format_nu

        return f"NuValue({format_nu(self)})"

    def __str__(self) -> str:
        from .textio import format_nu

        return format_nu(self)


def nu_power(delta: RatFun, k: int) -> NuValue:
    """v^k in closed form: v^k = delta^-(k - k mod 2)/2 * v^(k mod 2)."""
    p = k & 1
    scale = delta ** (-((k - p) // 2))
    if p:
        return NuValue(RatFun.zero(), scale, delta)
    return NuValue(scale, RatFun.zero(), delta)


def _specialize_poly(p, delta: RatFun, framing: int = 0, den: IntLaurent = IntLaurent.one()) -> NuValue:
    """Substitute a = q*v*delta into an integer Laurent polynomial p in a and
    q, times v^k (k = framing), over the q-polynomial `den`.

    A term c a^d q^e goes to c q^(d+e) delta^m v^((d+k) mod 2) with
    m = d - floor((d+k)/2), gathered as parts[(d+k) mod 2][m] = C_m.  With
    delta = P/Q and lo <= 0 <= hi bounding m, each parity's sum of C_m delta^m
    is one polynomial over P^-lo Q^hi den, built by Horner in P.
    """
    parts: tuple[dict[int, dict[int, int]], ...] = ({}, {})
    for (d, e), c in p.items():
        # parity and m fix d, so d + e never repeats within one C_m
        parts[(d + framing) & 1].setdefault(d - (d + framing) // 2, {})[d + e] = c
    P, Q = delta.num, delta.den
    values = []
    for coeffs in parts:
        lo, hi = min((0, *coeffs)), max((0, *coeffs))
        acc, q_pow = IntLaurent.zero(), IntLaurent.one()
        for m in range(hi, lo - 1, -1):
            acc = acc * P
            if m in coeffs:
                acc = acc + IntLaurent(coeffs[m]) * q_pow
            q_pow = q_pow * Q
        values.append(normalize(acc, P ** -lo * Q ** hi * den))
    return NuValue(*values, delta)


def specialize_a(F: RatFun2, delta: RatFun, framing: int = 0) -> NuValue:
    """Specialize a two-variable fraction at a = q*v*delta, times v^framing:
    its numerator substituted over its own denominator (see `_specialize_poly`)."""
    return _specialize_poly(F.num, delta, framing, F.den.to_q())
