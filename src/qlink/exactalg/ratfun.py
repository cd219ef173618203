"""Canonical fractions of integer Laurent polynomials.

A `RatFun` is a fraction in q.  A `RatFun2` has its numerator in a and q and
its denominator in q alone: every value the pipeline builds lies over one
(closure values over (q^2 - 1)^c, circles and digons over powers of q - q^-1
and q-factorials, twists over 1).  A monomial a^k in a denominator moves to the
numerator; any other denominator in a raises ValueError("denominator depends
on a") before a gcd runs.  So every gcd and division a `RatFun2` asks for has
a second operand free of a, and runs on one-variable kernels (see `laurent`).

A fraction is stored in the canonical form

  * denominator nonzero, with minimal exponent(s) 0 (any monomial factor of
    the denominator is absorbed into the numerator, which may therefore be a
    genuine Laurent polynomial),
  * numerator and denominator with no common polynomial factor over Q,
  * gcd of the two integer contents equal to 1,
  * positive leading denominator coefficient,
  * zero represented as 0/1.

With this normalization, equality of values is equality of the stored
numerator/denominator pairs, which keeps comparisons cheap everywhere else.

Arithmetic keeps results canonical without gratuitous gcds: sums and
products of canonical fractions are reduced using the classical
cross-cancellation identities, so the expensive polynomial gcds only ever
run on the small cofactors actually at risk of sharing a factor.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .laurent import (
    IntLaurent,
    IntLaurent2,
    laurent2_divide_exact,
    laurent2_gcd,
    laurent_divide_exact,
    laurent_gcd,
)

__all__ = [
    "RatFun",
    "RatFun2",
    "PoleError",
    "normalize",
    "normalize2",
]


class PoleError(ZeroDivisionError):
    """Evaluation or specialization hit a vanishing denominator."""


class _Fraction:
    """Canonical-form logic shared by the q and the (a, q) fractions.

    A subclass supplies its polynomial type `_POLY`, its gcd `_gcd` and exact
    division `_div`, `_drop_low` (divide numerator and denominator by the
    lowest monomial of the denominator, and refuse a denominator outside the
    subclass's ring) and its substitutions.  It binds
    `__add__` and `__mul__` in its own namespace, so that each class's
    arithmetic can be patched or profiled on its own, and its `_gcd`/`_div`
    look the kernels up in module globals on every call.

    The constructor is the one path that runs a gcd on num/den; everything
    else knows its operands coprime and goes through `_reduced`.
    """

    __slots__ = ("num", "den")
    _POLY: type

    def __init__(self, num, den=None):
        if den is None:
            den = self._POLY.one()
        if num and den and not den.is_monomial():
            num, den = self._drop_low(num, den)
            g = self._gcd(num, den)
            if not g.is_one():
                num = self._div(num, g)
                den = self._div(den, g)
        reduced = self._reduced(num, den)
        self.num = reduced.num
        self.den = reduced.den

    # -- construction --------------------------------------------------------

    @classmethod
    def _make(cls, num, den):
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @classmethod
    def _reduced(cls, num, den):
        """Canonical fraction num/den, for a numerator and denominator with no
        common polynomial factor: only the monomial shift, the shared integer
        content and the denominator's sign are normalized, and no gcd runs
        (the constructor is the path that runs one).
        """
        if den.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        num, den = cls._drop_low(num, den)
        if num.is_zero():
            return cls.zero()
        cg = math.gcd(num.content(), den.content())
        if cg > 1:
            num = num.divide_content(cg)
            den = den.divide_content(cg)
        if den.leading_coefficient() < 0:
            num, den = -num, -den
        return cls._make(num, den)

    @classmethod
    def zero(cls):
        return cls._make(cls._POLY.zero(), cls._POLY.one())

    @classmethod
    def one(cls):
        return cls._make(cls._POLY.one(), cls._POLY.one())

    @classmethod
    def from_int(cls, n: int):
        return cls._make(cls._POLY.term(n), cls._POLY.one())

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = self.from_int(other)
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # n/1 equals the plain int n (see __eq__), so it must hash like n
        n = self.num.leading_coefficient() if self.num else 0
        if self.den.is_one() and self.num == self._POLY.term(n):
            return hash(n)
        return hash((self.num, self.den))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.from_int(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        gcd, div = self._gcd, self._div
        g = gcd(b, d)
        if g.is_one():
            return self._reduced(a * d + c * b, b * d)
        db = div(b, g)
        dd = div(d, g)
        t = a * dd + c * db
        h = gcd(t, g)
        if not h.is_one():
            t = div(t, h)
            g = div(g, h)
        return self._reduced(t, db * dd * g)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._make(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.from_int(other)
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return self.zero()
        gcd, div = self._gcd, self._div
        g1 = gcd(a, d)
        if not g1.is_one():
            a = div(a, g1)
            d = div(d, g1)
        g2 = gcd(c, b)
        if not g2.is_one():
            c = div(c, g2)
            b = div(b, g2)
        return self._reduced(a * c, b * d)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.from_int(other)
        return self * other.inverse()

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self._reduced(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        # powers of coprime polynomials stay coprime: no gcd is needed
        return self._reduced(self.num ** n, self.den ** n)

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({self})"

    def __str__(self) -> str:
        from .textio import format_ratfun

        return format_ratfun(self)


class RatFun(_Fraction):
    """Canonical fraction of integer Laurent polynomials in q."""

    __slots__ = ()
    _POLY = IntLaurent
    __add__ = __radd__ = _Fraction.__add__
    __mul__ = __rmul__ = _Fraction.__mul__

    @staticmethod
    def _gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
        return laurent_gcd(f, g)

    @staticmethod
    def _div(f: IntLaurent, g: IntLaurent) -> IntLaurent:
        return laurent_divide_exact(f, g)

    @staticmethod
    def _drop_low(num: IntLaurent, den: IntLaurent) -> tuple[IntLaurent, IntLaurent]:
        m = den.min_exp()
        return (num.shift(-m), den.shift(-m)) if m else (num, den)

    @staticmethod
    def from_laurent(p: IntLaurent) -> RatFun:
        return RatFun._make(p, IntLaurent.one())

    @staticmethod
    def q_power(e: int) -> RatFun:
        return RatFun._make(IntLaurent.q_power(e), IntLaurent.one())

    def __rtruediv__(self, other: RatFun | int) -> RatFun:
        if isinstance(other, int):
            other = RatFun.from_int(other)
        return other / self

    # -- substitutions ----------------------------------------------------------

    def invert_q(self) -> RatFun:
        """Substitute q -> q^-1 and renormalize (an involution)."""
        return RatFun._reduced(self.num.subs_qinv(), self.den.subs_qinv())

    def evaluate(self, q0: Fraction | int) -> Fraction:
        """Exact evaluation at a nonzero rational point; raises PoleError at
        zeros of the denominator."""
        q0 = Fraction(q0)
        if q0 == 0 and (not self.num.is_zero()) and self.num.min_exp() < 0:
            raise PoleError("evaluation at q = 0 of negative-exponent terms")
        d = self.den.evaluate(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.evaluate(q0) / d

    def to_ratfun2(self) -> RatFun2:
        return RatFun2._make(IntLaurent2.from_q(self.num), IntLaurent2.from_q(self.den))


def normalize(num: IntLaurent, den: IntLaurent) -> RatFun:
    """Canonical fraction num/den; the denominator must be nonzero."""
    return RatFun(num, den)


# ---------------------------------------------------------------------------
# Two-variable fractions
# ---------------------------------------------------------------------------


class RatFun2(_Fraction):
    """Canonical fraction of an integer Laurent polynomial in a and q over
    one in q (stored as an `IntLaurent2` of a-exponent 0)."""

    __slots__ = ()
    _POLY = IntLaurent2
    __add__ = __radd__ = _Fraction.__add__
    __mul__ = __rmul__ = _Fraction.__mul__

    @staticmethod
    def _gcd(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
        return laurent2_gcd(f, g)

    @staticmethod
    def _div(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
        return laurent2_divide_exact(f, g)

    @staticmethod
    def _drop_low(num: IntLaurent2, den: IntLaurent2) -> tuple[IntLaurent2, IntLaurent2]:
        da, dq = den.min_exps()
        if da or dq:
            num, den = num.shift(-da, -dq), den.shift(-da, -dq)
        den.to_q()  # ValueError when the denominator depends on a
        return num, den

    @staticmethod
    def monomial(coeff: int, a_exp: int = 0, q_exp: int = 0) -> RatFun2:
        if coeff == 0:
            return RatFun2.zero()
        return RatFun2._make(IntLaurent2.term(coeff, a_exp, q_exp), IntLaurent2.one())

    # -- substitutions ----------------------------------------------------------

    def subs_bar(self) -> RatFun2:
        """The mirror substitution a -> a^-1, q -> q^-1."""
        return RatFun2._reduced(self.num.subs_bar(), self.den.subs_bar())

    def subs_a_power_of_q(self, n: int) -> RatFun:
        """Substitute a = q^n, collapsing to a one-variable fraction."""
        num = self.num.subs_a_power_of_q(n)
        den = self.den.subs_a_power_of_q(n)
        if den.is_zero():
            raise PoleError(f"denominator vanishes under a = q^{n}")
        return normalize(num, den)

    def a_parities(self) -> set[int]:
        """Parities of the value's a-exponents, those of its numerator."""
        return self.num.a_parities()


def normalize2(num: IntLaurent2, den: IntLaurent2) -> RatFun2:
    """Canonical fraction num/den, num in Z[a^{±1}, q^{±1}] and den in a^k Z[q^{±1}]."""
    return RatFun2(num, den)
