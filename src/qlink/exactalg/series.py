"""Truncated Laurent series with exact rational coefficients.

A TruncSeries carries coefficients that are exact up to and including a
given exponent bound; everything above the bound is unknown.  Coefficients
are stored as Fractions: series of integer Laurent fractions can pick up
non-integer coefficients as soon as a denominator with non-unit constant
term is inverted.
"""

from __future__ import annotations

from fractions import Fraction

from .ratfun import RatFun

__all__ = ["TruncSeries", "series_expand"]


class TruncSeries:
    """Laurent series known exactly up to exponent `order` (inclusive)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction] | None = None):
        self.order = order
        self.coeffs = {e: Fraction(v) for e, v in (coeffs or {}).items() if v and e <= order}

    def coefficient(self, e: int) -> Fraction:
        if e > self.order:
            raise ValueError(f"coefficient at exponent {e} exceeds truncation order {self.order}")
        return self.coeffs.get(e, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def truncate(self, order: int) -> TruncSeries:
        if order >= self.order:
            return self
        return TruncSeries(order, {e: v for e, v in self.coeffs.items() if e <= order})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, frozenset(self.coeffs.items())))

    def __add__(self, other: TruncSeries) -> TruncSeries:
        order = min(self.order, other.order)
        c = {e: v for e, v in self.coeffs.items() if e <= order}
        for e, v in other.coeffs.items():
            if e <= order:
                w = c.get(e, Fraction(0)) + v
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return TruncSeries(order, c)

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.order, {e: -v for e, v in self.coeffs.items()})

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        # The product is trustworthy only where every contributing pair of
        # exponents is within both operands' known ranges.
        t1 = min(self.coeffs) if self.coeffs else 0
        t2 = min(other.coeffs) if other.coeffs else 0
        order = min(self.order + t2, other.order + t1)
        c: dict[int, Fraction] = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if e <= order:
                    w = c.get(e, Fraction(0)) + v1 * v2
                    if w:
                        c[e] = w
                    elif e in c:
                        del c[e]
        return TruncSeries(order, c)

    def __str__(self) -> str:
        if not self.coeffs:
            return f"O(q^{self.order + 1})"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            parts.append(f"{v}*q^{e}")
        return " + ".join(parts) + f" + O(q^{self.order + 1})"

    def __repr__(self) -> str:
        return f"TruncSeries({self})"


def series_expand(f: RatFun, order: int) -> TruncSeries:
    """Taylor-at-0 (Laurent) expansion of an exact fraction, coefficients
    exact up to the given exponent."""
    if f.is_zero():
        return TruncSeries(order)
    num, den = f.num, f.den
    # Canonical denominators have min exponent 0, hence nonzero constant term.
    c0 = Fraction(den.coefficient(0))
    tail = num.min_exp()
    dcoeffs = {e: Fraction(v) for e, v in den.items() if e > 0}
    out: dict[int, Fraction] = {}
    for e in range(tail, order + 1):
        acc = Fraction(num.coefficient(e))
        for d, v in dcoeffs.items():
            if e - d >= tail:
                b = out.get(e - d)
                if b:
                    acc -= v * b
        b = acc / c0
        if b:
            out[e] = b
    return TruncSeries(order, out)
