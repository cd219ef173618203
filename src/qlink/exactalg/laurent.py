"""Integer Laurent polynomials in one variable (q) and two variables (a, q).

Polynomials are stored as finitely supported exponent -> coefficient maps
with arbitrary-precision integer coefficients; zero coefficients are never
stored.  Values are immutable after construction: every operation returns a
fresh object, so they are safe to share between threads.

The gcd helpers at the bottom back the canonical-fraction machinery in
`ratfun`.  One-variable gcds run the rational-coefficient Euclidean
algorithm, with a modular degree certificate to shortcut the (very common)
coprime case on large operands.  Two-variable gcds treat a polynomial in
(a, q) as a polynomial in a with q-Laurent coefficients and run a primitive
pseudo-remainder sequence, which avoids any multivariate factorization.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

__all__ = [
    "IntLaurent",
    "IntLaurent2",
    "laurent_gcd",
    "laurent_divide_exact",
    "laurent2_gcd",
    "laurent2_divide_exact",
]

# Primes for the gcd-degree certificate.  Any prime works as long as it does
# not kill a leading coefficient; we try a few before giving up.
_CERT_PRIMES = (2147483647, 2147483629, 2147483587)
_CERT_DEGREE_CUTOFF = 48


def _trim(c: dict) -> dict:
    return {e: v for e, v in c.items() if v}


class _Laurent:
    """Ring-independent part of the integer Laurent polynomials.

    Subclasses fix the exponent key (an int for q, an (a, q) pair for a and
    q): the constructors, `_ONE` (the coefficient map of 1) and everything
    that reads the key's structure.
    """

    __slots__ = ("_c",)
    _ONE: dict

    def __init__(self, coeffs: dict | None = None):
        self._c = _trim(coeffs) if coeffs else {}

    def _new(self, c: dict):
        out = self.__class__.__new__(self.__class__)
        out._c = c
        return out

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
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return self._new(c)

    def __sub__(self, other):
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) - v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return self._new(c)

    def __neg__(self):
        return self._new({e: -v for e, v in self._c.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, k: int):
        if k == 0:
            return self._new({})
        return self._new({e: k * v for e, v in self._c.items()})

    def divide_content(self, k: int):
        return self._new({e: v // k for e, v in self._c.items()})


class IntLaurent(_Laurent):
    """Laurent polynomial in q over the integers."""

    __slots__ = ()
    _ONE = {0: 1}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> IntLaurent:
        return IntLaurent()

    @staticmethod
    def one() -> IntLaurent:
        return IntLaurent({0: 1})

    @staticmethod
    def term(coeff: int, exp: int = 0) -> IntLaurent:
        return IntLaurent({exp: coeff})

    @staticmethod
    def q_power(exp: int) -> IntLaurent:
        return IntLaurent({exp: 1})

    @staticmethod
    def from_int(n: int) -> IntLaurent:
        return IntLaurent({0: n})

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

    def __mul__(self, other: IntLaurent) -> IntLaurent:
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
        return sum((Fraction(v) * q0**e for e, v in self._c.items()), Fraction(0))

    def __repr__(self) -> str:  # debugging aid; canonical text lives in textio
        from .textio import format_laurent

        return f"IntLaurent({format_laurent(self)})"


class IntLaurent2(_Laurent):
    """Laurent polynomial in a and q over the integers.

    Exponent keys are (a-exponent, q-exponent) pairs.
    """

    __slots__ = ()
    _ONE = {(0, 0): 1}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> IntLaurent2:
        return IntLaurent2()

    @staticmethod
    def one() -> IntLaurent2:
        return IntLaurent2({(0, 0): 1})

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

    def __repr__(self) -> str:
        from .textio import format_laurent2

        return f"IntLaurent2({format_laurent2(self)})"


# ---------------------------------------------------------------------------
# One-variable gcd machinery
# ---------------------------------------------------------------------------


def _poly_list(p: IntLaurent) -> list[int]:
    """Dense coefficient list of a min-exponent-0 polynomial."""
    top = p.max_exp()
    out = [0] * (top + 1)
    for e, v in p.items():
        out[e] = v
    return out


def _shift_to_poly(p: IntLaurent) -> IntLaurent:
    """Divide by the monomial q^min_exp so the result has min exponent 0."""
    m = p.min_exp()
    return p.shift(-m) if m else p


def _modp_gcd_is_trivial(fa: list[int], fb: list[int]) -> bool:
    """True if a modular image certifies gcd(f, g) = 1 over the rationals.

    deg gcd_Q(f, g) <= deg gcd_{F_p}(f mod p, g mod p) whenever p divides
    neither leading coefficient, so a degree-0 modular gcd is a proof of
    coprimality.  Returns False when no certificate was obtained (which only
    means the caller must run the exact Euclidean algorithm).
    """
    for p in _CERT_PRIMES:
        if fa[-1] % p == 0 or fb[-1] % p == 0:
            continue
        a = [v % p for v in fa]
        b = [v % p for v in fb]
        while True:
            while b and b[-1] == 0:
                b.pop()
            if not b:
                break
            if len(b) == 1:
                return True  # unit gcd mod p
            inv = pow(b[-1], p - 2, p)
            b = [v * inv % p for v in b]
            # reduce a mod b
            for i in range(len(a) - 1, len(b) - 2, -1):
                c = a[i]
                if c:
                    a[i] = 0
                    off = i - len(b) + 1
                    for j in range(len(b) - 1):
                        a[off + j] = (a[off + j] - c * b[j]) % p
            a, b = b, a
        return False  # nontrivial common factor mod p: inconclusive for us
    return False


def _frac_gcd(fa: list[int], fb: list[int]) -> list[Fraction]:
    """Monic gcd over Q via the Euclidean algorithm on coefficient lists."""
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


def laurent_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Gcd up to units, normalized to min exponent 0, positive leading
    coefficient and primitive integer content.  gcd(0, 0) = 0."""
    if f.is_zero() and g.is_zero():
        return IntLaurent.zero()
    if f.is_zero():
        f, g = g, f
    if g.is_zero():
        p = _shift_to_poly(f)
        c = p.content()
        p = p.divide_content(c)
        return -p if p.leading_coefficient() < 0 else p
    if f.is_monomial() or g.is_monomial():
        return IntLaurent.one()
    fp, gp = _shift_to_poly(f), _shift_to_poly(g)
    fa, fb = _poly_list(fp), _poly_list(gp)
    if min(len(fa), len(fb)) > _CERT_DEGREE_CUTOFF and _modp_gcd_is_trivial(fa, fb):
        return IntLaurent.one()
    monic = _frac_gcd(fa, fb)
    if len(monic) <= 1:
        return IntLaurent.one()
    # clear denominators, make primitive with positive leading coefficient
    den_lcm = 1
    for v in monic:
        den_lcm = den_lcm * v.denominator // math.gcd(den_lcm, v.denominator)
    ints = [int(v * den_lcm) for v in monic]
    g0 = math.gcd(*ints) if len(ints) > 1 else abs(ints[0])
    ints = [v // g0 for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return IntLaurent({e: v for e, v in enumerate(ints) if v})


def laurent_divide_exact(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Exact division f / g in Z[q^{±1}]; raises if not divisible."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return IntLaurent.zero()
    if g.is_monomial():
        e0, v0 = next(g.items())
        out: dict[int, int] = {}
        for e, v in f.items():
            q, r = divmod(v, v0)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[e - e0] = q
        return IntLaurent(out)
    shift = f.min_exp() - g.min_exp()
    fp, gp = _shift_to_poly(f), _shift_to_poly(g)
    a = [Fraction(v) for v in _poly_list(fp)]
    b = _poly_list(gp)
    db = len(b) - 1
    lead = Fraction(b[-1])
    quot: dict[int, Fraction] = {}
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            c = c / lead
            quot[i - db] = c
            a[i] = Fraction(0)
            for j in range(db):
                a[i - db + j] -= c * b[j]
    if any(a) or any(v.denominator != 1 for v in quot.values()):
        raise ArithmeticError("inexact polynomial division")
    return IntLaurent({e + shift: int(v) for e, v in quot.items() if v})


# ---------------------------------------------------------------------------
# Two-variable gcd machinery (primitive pseudo-remainder sequences in a)
# ---------------------------------------------------------------------------


def _to_a_poly(f: IntLaurent2) -> dict[int, IntLaurent]:
    """View as a polynomial in a with q-Laurent coefficients."""
    out: dict[int, dict[int, int]] = {}
    for (d, e), v in f.items():
        out.setdefault(d, {})[e] = v
    return {d: IntLaurent(c) for d, c in out.items()}


def _from_a_poly(p: dict[int, IntLaurent]) -> IntLaurent2:
    c: dict[tuple[int, int], int] = {}
    for d, coeff in p.items():
        for e, v in coeff.items():
            c[(d, e)] = v
    return IntLaurent2(c)


def _a_content(p: dict[int, IntLaurent]) -> IntLaurent:
    """q-Laurent content: gcd of all a-coefficients."""
    g = IntLaurent.zero()
    for coeff in p.values():
        g = laurent_gcd(g, coeff)
        if g.is_one():
            return g
    return g


def _a_primitive(p: dict[int, IntLaurent]) -> tuple[dict[int, IntLaurent], IntLaurent]:
    cont = _a_content(p)
    if cont.is_one():
        return p, cont
    return {d: laurent_divide_exact(c, cont) for d, c in p.items()}, cont


def _a_prem(f: dict[int, IntLaurent], g: dict[int, IntLaurent]) -> dict[int, IntLaurent]:
    """Fraction-free pseudo-remainder of f by g with respect to a."""
    df, dg = max(f), max(g)
    lg = g[dg]
    r = dict(f)
    while r and max(r) >= dg:
        dr = max(r)
        lr = r[dr]
        new: dict[int, IntLaurent] = {d: c * lg for d, c in r.items()}
        for d, c in g.items():
            dd = d + dr - dg
            w = new.get(dd, IntLaurent.zero()) - c * lr
            if w.is_zero():
                new.pop(dd, None)
            else:
                new[dd] = w
        r = new
    return r


def laurent2_gcd(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
    """Gcd up to units in Z[a^{±1}, q^{±1}], normalized to min exponents 0,
    positive leading (lexicographic) coefficient, primitive content."""
    if f.is_zero() and g.is_zero():
        return IntLaurent2.zero()
    if f.is_zero() or g.is_zero():
        h = g if f.is_zero() else f
        da, dq = h.min_exps()
        h = h.shift(-da, -dq)
        c = h.content()
        h = h.divide_content(c)
        return -h if h.leading_coefficient() < 0 else h
    if f.is_monomial() or g.is_monomial():
        return IntLaurent2.one()
    da, dq = f.min_exps()
    fp = f.shift(-da, -dq)
    da, dq = g.min_exps()
    gp = g.shift(-da, -dq)
    pf, pg = _to_a_poly(fp), _to_a_poly(gp)
    pf, cf = _a_primitive(pf)
    pg, cg = _a_primitive(pg)
    cont = laurent_gcd(cf, cg)
    if max(pf) < max(pg):
        pf, pg = pg, pf
    while True:
        if not pg:
            prim = pf
            break
        if max(pg) == 0:
            prim = {0: IntLaurent.one()}
            break
        r = _a_prem(pf, pg)
        if not r:
            prim = pg
            break
        r, _ = _a_primitive(r)
        pf, pg = pg, r
    prim, _ = _a_primitive(prim)
    out = _from_a_poly(prim)
    if not cont.is_one():
        out = out * IntLaurent2.from_q(cont)
    da, dq = out.min_exps()
    out = out.shift(-da, -dq)
    c = out.content()
    out = out.divide_content(c)
    if out.leading_coefficient() < 0:
        out = -out
    return out


def laurent2_divide_exact(f: IntLaurent2, g: IntLaurent2) -> IntLaurent2:
    """Exact division f / g in Z[a^{±1}, q^{±1}]; raises if not divisible."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return IntLaurent2.zero()
    if g.is_monomial():
        (d0, e0), v0 = next(g.items())
        out: dict[tuple[int, int], int] = {}
        for (d, e), v in f.items():
            q, r = divmod(v, v0)
            if r:
                raise ArithmeticError("inexact polynomial division")
            out[(d - d0, e - e0)] = q
        return IntLaurent2(out)
    fa, fq = f.min_exps()
    ga, gq = g.min_exps()
    pf = _to_a_poly(f.shift(-fa, -fq))
    pg = _to_a_poly(g.shift(-ga, -gq))
    dg = max(pg)
    lg = pg[dg]
    quot: dict[int, IntLaurent] = {}
    r = dict(pf)
    while r:
        dr = max(r)
        if dr < dg:
            raise ArithmeticError("inexact polynomial division")
        c = laurent_divide_exact(r[dr], lg)
        quot[dr - dg] = c
        for d, coeff in pg.items():
            dd = d + dr - dg
            w = r.get(dd, IntLaurent.zero()) - coeff * c
            if w.is_zero():
                r.pop(dd, None)
            else:
                r[dd] = w
    return _from_a_poly(quot).shift(fa - ga, fq - gq)
