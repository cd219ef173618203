"""Integer Laurent polynomials in one variable (q) and two variables (a, q).

Polynomials are stored as finitely supported exponent -> coefficient maps
with arbitrary-precision integer coefficients; zero coefficients are never
stored.  Values are immutable after construction: every operation returns a
fresh object, so they are safe to share between threads.

The gcd and exact-division kernels at the bottom back the canonical-fraction
machinery in `ratfun`, and work on plain integers:

  * Exact division is integer long division on dense coefficient lists,
    `divmod` by the divisor's leading coefficient; it stops at the first
    inexact step.
  * One-variable gcds run the heuristic integer gcd GCDHEU (Char, Geddes &
    Gonnet, J. Symb. Comp. 7, 1989) on the primitive parts: evaluate both at
    an integer xi > 2 min(|f|, |g|) + 1, take the integer gcd, rebuild a
    polynomial from its symmetric xi-adic digits and accept its primitive
    part only if it divides both operands, which proves it is the gcd (a
    rebuilt 1 proves coprimality).  After a few evaluation points it falls
    back to the Euclidean algorithm over `Fraction`.
  * Two-variable fractions have denominators free of a (see `ratfun`), so
    every two-variable gcd and division has a second operand in Z[q^{±1}]:
    they run the one-variable kernels on the a-coefficients of the first.

The trial divisions of the heuristic go through the private `_divide_or_none`,
so only the divisions asked for through the public names show up when those
are counted.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

__all__ = [
    "IntLaurent",
    "IntLaurent2",
    "laurent_gcd",
    "laurent_divide_exact",
    "laurent2_gcd",
    "laurent2_divide_exact",
]

# Evaluation points GCDHEU tries before the gcds fall back to the Euclidean
# algorithm (as in sympy's `dup_zz_heu_gcd`).
_HEU_TRIES = 6


def _trim(c: dict) -> dict:
    return {e: v for e, v in c.items() if v}


class _Laurent:
    """Ring-independent part of the integer Laurent polynomials.

    Subclasses fix the exponent key (an int for q, an (a, q) pair for a and
    q): `_ONE` (the coefficient map of 1), the other constructors and
    everything that reads the key's structure.  An int operand of + and of
    `IntLaurent`'s *, on either side, and of - on the right, is the constant
    polynomial: a fold written for integers then runs over Z[q^+-1] unchanged.
    """

    __slots__ = ("_c",)
    _ONE: dict

    def __init__(self, coeffs: dict | None = None):
        self._c = _trim(coeffs) if coeffs else {}

    @classmethod
    def _new(cls, c: dict):
        """The polynomial of the coefficient map c, which has no zero coefficient, as it is."""
        out = cls.__new__(cls)
        out._c = c
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls(cls._ONE)  # `_trim` copies: `_ONE` itself is never handed out

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple]:
        return iter(self._c.items())

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == self._ONE

    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def leading_coefficient(self) -> int:
        """Coefficient of the largest exponent key; ValueError on zero."""
        return self._c[max(self._c)]

    def content(self) -> int:
        """Nonnegative gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for v in self._c.values():
            g = math.gcd(g, v)
            if g == 1:
                return 1
        return g

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, self.__class__):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):  # an int operand is the constant polynomial
            other = self.one().scale(other)
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return self._new(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({e: -v for e, v in self._c.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, self.one())

    def scale(self, k: int):
        if k == 0:
            return self._new({})
        return self._new({e: k * v for e, v in self._c.items()})

    def divide_content(self, k: int):
        return self._new({e: v // k for e, v in self._c.items()})

    def __repr__(self) -> str:  # debugging aid; canonical text lives in textio
        from .textio import format_laurent

        return f"{self.__class__.__name__}({format_laurent(self)})"


def _power(base, n: int, one):
    """base^n for n >= 0 by square-and-multiply, starting from `one`."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


class IntLaurent(_Laurent):
    """Laurent polynomial in q over the integers."""

    __slots__ = ()
    _ONE = {0: 1}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(coeff: int, exp: int = 0) -> IntLaurent:
        return IntLaurent({exp: coeff})

    @staticmethod
    def q_power(exp: int) -> IntLaurent:
        return IntLaurent({exp: 1})

    # -- queries -----------------------------------------------------------

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no minimal exponent")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self._c)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: IntLaurent | int) -> IntLaurent:
        if isinstance(other, int):
            return self.scale(other)
        a, b = self._c, other._c
        if not a or not b:
            return IntLaurent()
        if len(a) > len(b):
            a, b = b, a
        c: dict[int, int] = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return self._new(c)

    __rmul__ = __mul__

    def shift(self, k: int) -> IntLaurent:
        """Multiply by q^k."""
        return self._new({e + k: v for e, v in self._c.items()})

    def subs_qinv(self) -> IntLaurent:
        """Substitute q -> q^-1."""
        return self._new({-e: v for e, v in self._c.items()})

    def evaluate(self, q0: Fraction) -> Fraction:
        """Exact evaluation at a nonzero rational point."""
        if q0 == 0:
            if self._c and self.min_exp() < 0:
                raise ZeroDivisionError("evaluation at q = 0 of negative-exponent terms")
            return Fraction(self._c.get(0, 0))
        # sum v (r/s)^e = sum v r^(e-lo) s^(hi-e) / (r^-lo s^hi) for lo <= 0 <= hi; the sum
        # by Horner in integers, from the top exponent down, with s_pow = s^(hi-e)
        r, s = q0.numerator, q0.denominator
        lo, hi = min([0, *self._c]), max([0, *self._c])
        total, s_pow, prev = 0, 1, hi
        for e in sorted(self._c, reverse=True):
            s_pow *= s ** (prev - e)
            total, prev = total * r ** (prev - e) + self._c[e] * s_pow, e
        return Fraction(total * r ** (prev - lo), r ** -lo * s ** hi)


class IntLaurent2(_Laurent):
    """Laurent polynomial in a and q over the integers.

    Exponent keys are (a-exponent, q-exponent) pairs.
    """

    __slots__ = ()
    _ONE = {(0, 0): 1}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def term(coeff: int, a_exp: int = 0, q_exp: int = 0) -> IntLaurent2:
        return IntLaurent2({(a_exp, q_exp): coeff})

    @staticmethod
    def from_q(p: IntLaurent) -> IntLaurent2:
        return IntLaurent2({(0, e): v for e, v in p.items()})

    # -- queries -----------------------------------------------------------

    def min_exps(self) -> tuple[int, int]:
        if not self._c:
            raise ValueError("zero polynomial has no minimal exponents")
        return (min(d for d, _ in self._c), min(e for _, e in self._c))

    def a_parities(self) -> set[int]:
        """Set of a-exponents mod 2 present in the support."""
        return {d & 1 for d, _ in self._c}

    def to_q(self) -> IntLaurent:
        """The polynomial as one in q; ValueError when it has a."""
        out = IntLaurent.__new__(IntLaurent)
        out._c = {e: v for (d, e), v in self._c.items() if not d}
        if len(out._c) < len(self._c):
            raise ValueError("denominator depends on a")
        return out

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: IntLaurent2) -> IntLaurent2:
        a, b = self._c, other._c
        if not a or not b:
            return IntLaurent2()
        if len(a) > len(b):
            a, b = b, a
        c: dict[tuple[int, int], int] = {}
        for (d1, e1), v1 in a.items():
            for (d2, e2), v2 in b.items():
                k = (d1 + d2, e1 + e2)
                w = c.get(k, 0) + v1 * v2
                if w:
                    c[k] = w
                elif k in c:
                    del c[k]
        return self._new(c)

    def shift(self, da: int, dq: int) -> IntLaurent2:
        """Multiply by a^da q^dq."""
        return self._new({(d + da, e + dq): v for (d, e), v in self._c.items()})

    def subs_bar(self) -> IntLaurent2:
        """Substitute a -> a^-1, q -> q^-1 (mirror involution)."""
        return self._new({(-d, -e): v for (d, e), v in self._c.items()})

    def subs_a_power_of_q(self, n: int) -> IntLaurent:
        """Substitute a = q^n."""
        c: dict[int, int] = {}
        for (d, e), v in self._c.items():
            k = e + n * d
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            elif k in c:
                del c[k]
        out = IntLaurent.__new__(IntLaurent)
        out._c = c
        return out


# ---------------------------------------------------------------------------
# One-variable kernels on dense integer coefficient lists
# ---------------------------------------------------------------------------


def _poly_list(p: IntLaurent) -> list[int]:
    """Dense coefficient list of p divided by q^min_exp (lowest entry nonzero)."""
    m, top = p.min_exp(), p.max_exp()
    out = [0] * (top - m + 1)
    for e, v in p.items():
        out[e - m] = v
    return out


def _primitive(a: list[int]) -> list[int]:
    """a divided by its integer content and by its power of q (a nonzero)."""
    while not a[0]:
        a = a[1:]
    c = math.gcd(*a)
    return a if c == 1 else [v // c for v in a]


def _ldiv(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient a / b of dense integer polynomials, or None if b does not
    divide a in Z[q].  `a` is nonzero, `b` has a nonzero leading entry."""
    db = len(b) - 1
    n = len(a) - 1 - db
    if n < 0 or (b[0] and a[0] % b[0]):
        return None
    a = list(a)
    lead = b[-1]
    quot = [0] * (n + 1)
    for i in range(n, -1, -1):
        c = a[i + db]
        if c:
            c, r = divmod(c, lead)
            if r:
                return None
            quot[i] = c
            a[i : i + db] = [x - c * y for x, y in zip(a[i : i + db], b)]
    return None if any(a[:db]) else quot


def _eval(a: list[int], xi: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * xi + c
    return v


def _digits(h: int, xi: int) -> list[int]:
    """Symmetric xi-adic digits of h, lowest first."""
    out = []
    half = xi // 2
    while h:
        d = h % xi
        if d > half:
            d -= xi
        out.append(d)
        h = (h - d) // xi
    return out


def _heu_xi(norm_f: int, norm_g: int):
    """The evaluation points of GCDHEU: 2 min(|f|, |g|) + 29, then grown by
    73794/27011 times its fourth root each time, as sympy does."""
    xi = 2 * min(norm_f, norm_g) + 29
    for _ in range(_HEU_TRIES):
        yield xi
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _heu_gcd(a: list[int], b: list[int]) -> list[int] | None:
    """Gcd of primitive dense polynomials by GCDHEU, or None if it gives up.

    A candidate rebuilt from the integer gcd of the values at xi is accepted
    only if it divides both operands; since xi > 2 min(|a|, |b|) + 1, such a
    divisor is the gcd (Char, Geddes & Gonnet 1989).
    """
    for xi in _heu_xi(max(map(abs, a)), max(map(abs, b))):
        h = _primitive(_digits(math.gcd(_eval(a, xi), _eval(b, xi)), xi))
        if len(h) == 1 or (_ldiv(a, h) is not None and _ldiv(b, h) is not None):
            return h
    return None


def _frac_gcd(fa: list[int], fb: list[int]) -> list[Fraction]:
    """Monic gcd over Q via the Euclidean algorithm on coefficient lists.

    The fallback of `laurent_gcd` when GCDHEU gives up, and its test oracle.
    """
    a = [Fraction(v) for v in fa]
    b = [Fraction(v) for v in fb]
    while True:
        while b and not b[-1]:
            b.pop()
        if not b:
            break
        inv = 1 / b[-1]
        b = [v * inv for v in b]
        for i in range(len(a) - 1, len(b) - 2, -1):
            c = a[i]
            if c:
                a[i] = Fraction(0)
                off = i - len(b) + 1
                for j in range(len(b) - 1):
                    a[off + j] -= c * b[j]
        a, b = b, a
    while a and not a[-1]:
        a.pop()
    return a


def _cleared(monic: list[Fraction]) -> list[int]:
    """The primitive integer multiple of a polynomial over Q."""
    den_lcm = math.lcm(*(v.denominator for v in monic))
    return _primitive([int(v * den_lcm) for v in monic])


def laurent_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Gcd up to units, normalized to min exponent 0, positive leading
    coefficient and primitive integer content.  gcd(0, 0) = 0."""
    if f.is_zero() and g.is_zero():
        return IntLaurent.zero()
    if f.is_zero():
        f, g = g, f
    if g.is_zero():
        h = _primitive(_poly_list(f))
    elif f.is_monomial() or g.is_monomial():
        return IntLaurent.one()
    else:
        fa, fb = _primitive(_poly_list(f)), _primitive(_poly_list(g))
        h = _heu_gcd(fa, fb) or _cleared(_frac_gcd(fa, fb))
    if h[-1] < 0:
        h = [-v for v in h]
    return IntLaurent({e: v for e, v in enumerate(h) if v})


def _divide_or_none(f: IntLaurent, g: IntLaurent) -> IntLaurent | None:
    """f / g in Z[q^{±1}] for nonzero g, or None if g does not divide f."""
    if f.is_zero():
        return IntLaurent.zero()
    quot = _ldiv(_poly_list(f), _poly_list(g))
    if quot is None:
        return None
    shift = f.min_exp() - g.min_exp()
    return IntLaurent({e + shift: v for e, v in enumerate(quot) if v})


def _divide_exact(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """f / g in Z[q^{±1}], raising on a zero divisor or an inexact division."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quot = _divide_or_none(f, g)
    if quot is None:
        raise ArithmeticError("inexact polynomial division")
    return quot


def laurent_divide_exact(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Exact division f / g in Z[q^{±1}]; raises if not divisible."""
    return _divide_exact(f, g)


# ---------------------------------------------------------------------------
# Two-variable kernels against a divisor free of a, one a-coefficient at a time
# ---------------------------------------------------------------------------


def _a_coefficients(f: IntLaurent2) -> dict[int, IntLaurent]:
    """f as a polynomial in a: a-exponent -> q-Laurent coefficient."""
    out: dict[int, dict[int, int]] = {}
    for (d, e), v in f.items():
        out.setdefault(d, {})[e] = v
    return {d: IntLaurent(c) for d, c in out.items()}


def laurent2_gcd(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
    """Gcd up to units of f in Z[a^{±1}, q^{±1}] and g free of a, normalized as
    `laurent_gcd`'s: a common factor of g is free of a, so the gcd is that of g
    and f's a-coefficients in Z[q^{±1}].  ValueError when g has a (or when g is
    0 and f has a)."""
    if g.is_zero():
        f, g = g, f
    h = IntLaurent.zero()
    for c in (g.to_q(), *_a_coefficients(f).values()):
        h = laurent_gcd(h, c)
        if h.is_one():
            break
    return IntLaurent2.from_q(h)


def laurent2_divide_exact(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
    """Exact division f / g in Z[a^{±1}, q^{±1}] by g free of a, one a-coefficient
    of f at a time; raises if not divisible, ValueError when g has a."""
    h = g.to_q()
    if h.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    out = {}
    for d, c in _a_coefficients(f).items():
        for e, v in _divide_exact(c, h).items():
            out[(d, e)] = v
    return IntLaurent2(out)
