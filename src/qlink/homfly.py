"""Framed HOMFLY-PT polynomial of braid closures.

Two independent evaluators are provided and cross-checked in the tests:

* `homfly` runs an Iwahori-Hecke-algebra Markov trace.  Braid letters map
  to the T-basis generators, which satisfy g^2 = (1 - q^2) g + q^2 and
  g^-1 = q^-2 g - (q^-2 - 1); the trace tau is the Markov trace with
  tau(T_e) = 1 and tau(x g_n y) = z tau(x y).  It is Ocneanu's trace
  E_2 o ... o E_n (Jones, Ann. Math. 126, 1987), computed level by level: the
  conditional expectation E_m: H_m -> H_(m-1)[z] is applied to the whole
  element, for m = n down to 2, and terms are merged after each level.  Hecke
  coefficients and traces have one form: integer maps {(k, e): c} for the
  coefficients c of z^k q^e.  The invariant mu^n * d^e * tau(w) of
  the closure of a word w on n strands with writhe e and c components has
  denominator (q^2 - 1)^c (Lickorish & Millett, Topology 26, 1987).  Its
  numerator is built one power of a at a time, as dense integer lists in q^2:
  each coefficient of a is a binomial sum of the z-coefficients of tau(w) times
  powers of q^2 - 1, from which (q^2 - 1)^(n-c) is divided out synthetically.
  Unless the quotient's certificate fails, no two-variable product, division
  or gcd runs.

* `rt_invariant` contracts an explicit R-matrix on the n-dimensional
  vector representation against quantum-trace weights, and must agree with
  homfly under a = q^n.

Normalization.  The calibration is pinned by three conditions, which the
tests check: the empty word on one strand evaluates to
mu = (a - a^-1)/(q - q^-1); appending a positive stabilization letter
multiplies the value by q^-1 a; appending a negative one multiplies it by
q a^-1.  Solving these against the quadratic relation gives

    z = -q a (q - q^-1) / (a - a^-1),        d = -q^-2,

and in particular the closure of sigma_1 on two strands (the stabilized
unknot) evaluates to (a^2 - 1)/(q^2 - 1).  With this orientation of the
generators the Conway skein triple reads

    q [s_i] - q^-1 [s_i^-1] = (q - q^-1) [1],

i.e. the positive letter carries the q-side coefficient.  The mirror
involution a -> a^-1, q -> q^-1 intertwines the two possible orientation
choices; tests pin the one above through the stabilized-unknot value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product
from math import comb

from .braid import BraidWord, closure_stats
from .exactalg import IntLaurent, IntLaurent2, RatFun, RatFun2, normalize2
from .qnum import qfactorial

__all__ = [
    "HeckeElement",
    "hecke_mul_gen",
    "ocneanu_trace",
    "homfly",
    "rt_invariant",
    "mu_colored",
    "homfly_twist_coeff",
]

_W = IntLaurent2({(1, 0): 1, (-1, 0): -1})  # a - a^-1, the denominator of z

Coeff = dict[tuple[int, int], int]  # {(z-power, q-exponent): integer}, in Hecke elements and traces

# The benchmark harness (`perfbench/`) still calls `default_trace_params()` and
# reads `_DEFAULT_PARAMS` as a basis cache; the trace keeps no state to hand it.
_DEFAULT_PARAMS = None


def default_trace_params() -> None:
    return None


@dataclass(frozen=True)
class HeckeElement:
    """Linear combination of T-basis elements of the Hecke algebra H_n.

    Permutations are one-line tuples (w(1), ..., w(n)).  Coefficients are
    `Coeff` maps, of z-power 0 in the image of a braid; no zero coefficient
    and no zero entry is stored.
    """

    strands: int
    terms: dict[tuple[int, ...], Coeff]

    @staticmethod
    def identity(n: int) -> HeckeElement:
        return HeckeElement(n, {tuple(range(1, n + 1)): {(0, 0): 1}})

    @staticmethod
    def from_braid(w: BraidWord) -> HeckeElement:
        e = HeckeElement.identity(w.strands)
        for v in w.letters:
            e = hecke_mul_gen(e, abs(v), 1 if v > 0 else -1)
        return e


def _add(terms: dict, w: tuple[int, ...], c: Coeff) -> None:
    """terms[w] += c, dropping zeros.  A stored map is never changed, only
    replaced, so maps are shared freely."""
    cur = terms.get(w)
    if cur is None:
        terms[w] = c
        return
    cur = dict(cur)
    for key, v in c.items():
        v += cur.get(key, 0)
        if v:
            cur[key] = v
        else:
            del cur[key]
    if cur:
        terms[w] = cur
    else:
        del terms[w]


def hecke_mul_gen(e: HeckeElement, i: int, sign: int) -> HeckeElement:
    """Right multiplication by the image of sigma_i^sign in the T-basis.

    On a basis element T_w:  T_w g_i = T_{ws_i} when the length goes up,
    and q^2 T_{ws_i} + (1 - q^2) T_w otherwise; the inverse follows from
    g^-1 = q^-2 g - (q^-2 - 1).
    """
    if not 1 <= i <= e.strands - 1:
        raise ValueError(f"generator index {i} out of range for {e.strands} strands")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out: dict[tuple[int, ...], Coeff] = {}
    k, s = i - 1, 2 * sign
    for w, c in e.terms.items():
        ws = w[:k] + (w[k + 1], w[k]) + w[k + 2 :]
        if (w[k] < w[k + 1]) == (sign == 1):  # T_w g = T_ws going up, T_w g^-1 = T_ws down
            _add(out, ws, c)
        else:
            cs = {(z, x + s): v for (z, x), v in c.items()}
            _add(out, ws, cs)
            _add(out, w, c)
            _add(out, w, {key: -v for key, v in cs.items()})
    return HeckeElement(e.strands, out)


def _trace(e: HeckeElement) -> Coeff:
    """Markov trace of e as a `Coeff` map: Ocneanu's trace E_2 o ... o E_n, each
    conditional expectation E_m: H_m -> H_(m-1)[z] applied to the whole element.

    E_m fixes T_w when w(m) = m.  Otherwise, with m in position j (counted from
    1) and y = w without m, it maps T_w to z T_y T_(s_(m-2)) ... T_(s_j); the
    terms with the same j are multiplied as one element."""
    terms = e.terms
    for m in range(e.strands, 1, -1):
        out: dict[tuple[int, ...], Coeff] = {}
        moved: dict[int, dict[tuple[int, ...], Coeff]] = {}
        for w, c in terms.items():
            if w[-1] == m:
                _add(out, w[:-1], c)
            else:
                j = w.index(m) + 1
                moved.setdefault(j, {})[w[: j - 1] + w[j:]] = {(k + 1, x): v for (k, x), v in c.items()}
        for j, ys in moved.items():
            part = HeckeElement(m - 1, ys)
            for i in range(m - 2, j - 1, -1):
                part = hecke_mul_gen(part, i, 1)
            for y, c in part.terms.items():
                _add(out, y, c)
        terms = out
    return next(iter(terms.values()), {})


def _divide_by_t_minus_1(p: list[int]) -> list[int]:
    """p / (t - 1) for a dense coefficient list p in t, by synthetic division
    from the top, b_i = p_(i+1) + b_(i+1); raises unless the remainder
    p_0 + b_0 = p(1) is 0."""
    b = list(accumulate(reversed(p)))
    if b and b[-1]:
        raise ArithmeticError("inexact polynomial division")
    return b[-2::-1]


def _closure_numerator(tau: Coeff, n: int, r: int, dq: int = 0, sign: int = 1) -> tuple[IntLaurent2, bool]:
    """sign q^dq N / (q^2 - 1)^r with N = sum_k c_k U^k W^(n-k), for tau = sum_k c_k z^k
    as `_trace` gives it and n at least its z-degree, and the certificate
    that neither q - 1 nor q + 1 divides it.

    The a^(n-2j) coefficient of N is (-1)^j sum_(k <= n-j) (-1)^k C(n-k, j) c_k (q^2 - 1)^k.
    It is built by Horner in t - 1, t = q^2, on dense integer lists, one for each
    parity of the q-exponents (closure traces have one), and divided r times by
    t - 1; an inexact division raises ArithmeticError.  The certificate is that
    some row's coefficient sum, and some row's alternating sum, is nonzero: the
    quotient at q = +-1 is nonzero in Z[a^+-1].
    """
    if not tau:
        return IntLaurent2.zero(), False
    lo = min(e for _, e in tau)
    top = max(k for k, _ in tau)
    width = (max(e for _, e in tau) - lo) // 2 + 1
    # tau = sum_s q^(lo + s) sum_k rows[s][k](t) z^k, each row padded for top Horner steps
    rows = {s: [[0] * (width + top) for _ in range(top + 1)] for s in {(e - lo) & 1 for _, e in tau}}
    for (k, e), v in tau.items():
        rows[(e - lo) & 1][k][(e - lo) >> 1] = v
    out: dict[tuple[int, int], int] = {}
    at_one = at_minus_one = False
    for j in range(n + 1):
        at = [0, 0]  # the row's parts at t = 1
        for s, cs in rows.items():
            p = [0] * (width - 1)
            for k in range(min(top, n - j), -1, -1):
                m = -comb(n - k, j) if (j + k) & 1 else comb(n - k, j)
                # p <- p (t - 1) + m c_k
                p = [x - y + m * c for x, y, c in zip([0, *p], [*p, 0], cs[k])]
            for _ in range(r):
                p = _divide_by_t_minus_1(p)
            a, e0 = n - 2 * j, lo + dq + s
            out.update({(a, e0 + 2 * i): sign * v for i, v in enumerate(p) if v})
            at[s] = sum(p)
        at_one = at_one or at[0] + at[1] != 0
        at_minus_one = at_minus_one or at[0] != at[1]
    return IntLaurent2(out), at_one and at_minus_one


@lru_cache(maxsize=128)
def _q2_minus_1_power(c: int) -> IntLaurent2:
    """(q^2 - 1)^c, the denominator of a c-component closure value."""
    return IntLaurent2({(0, 2 * i): -comb(c, i) if (c - i) & 1 else comb(c, i) for i in range(c + 1)})


def ocneanu_trace(e: HeckeElement) -> RatFun2:
    """Markov trace at the calibrated z."""
    tau = _trace(e)
    top = max((k for k, _ in tau), default=0)
    return normalize2(_closure_numerator(tau, top, 0)[0], _W**top)


def homfly(w: BraidWord) -> RatFun2:
    """Framed HOMFLY-PT polynomial of the closure of a braid word, with the
    calibrated z, d and mu."""
    # mu^n d^e tau = (-1)^e q^(n-2e) N / (q^2 - 1)^n, and (q^2 - 1)^(n-c) divides N:
    # `_closure_numerator` divides it out of each a-power's coefficient in integer
    # lists; a quotient it does not certify free of q -+ 1 gets a gcd in `_reduced`
    n, e, c = w.strands, w.writhe, closure_stats(w).components
    tau = _trace(HeckeElement.from_braid(w))
    num, coprime = _closure_numerator(tau, n, n - c, n - 2 * e, -1 if e % 2 else 1)
    return RatFun2._reduced(num, _q2_minus_1_power(c), coprime=coprime)


# ---------------------------------------------------------------------------
# Closed-form scalars
# ---------------------------------------------------------------------------


def mu_colored(k: int) -> RatFun2:
    """Value of a k-labeled circle:
    prod_{j=0}^{k-1} (a q^-j - a^-1 q^j)/(q - q^-1) * q^(k(k-1)/2) / {k}!."""
    if k < 1:
        raise ValueError("circle labels are positive")
    q_minus = IntLaurent2.term(1, 0, 1) - IntLaurent2.term(1, 0, -1)
    out = RatFun2.one()
    for j in range(k):
        out = out * RatFun2(IntLaurent2.term(1, 1, -j) - IntLaurent2.term(1, -1, j), q_minus)
    out = out * RatFun2.monomial(1, 0, k * (k - 1) // 2)
    fact = qfactorial(k)
    return out / fact.to_ratfun2()


def homfly_twist_coeff(k: int, sign: int) -> RatFun2:
    """Coefficient a^(-sk) q^(sk(2k-1)) of a k-labeled twist of sign s."""
    if k < 1:
        raise ValueError("twist labels are positive")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return RatFun2.monomial(1, -sign * k, sign * k * (2 * k - 1))


# ---------------------------------------------------------------------------
# R-matrix oracle
# ---------------------------------------------------------------------------


def _rmatrix_rules(n: int) -> tuple[dict, dict]:
    """Local rules of the braiding on the n-dimensional vector
    representation, as maps (x, y) -> list of ((x', y'), coefficient).

    The operator satisfies the braid relation and the Hecke quadratic
    (R - 1)(R + q^2) = 0; colors are 0..n-1.
    """
    mq = IntLaurent.term(-1, 1)  # -q
    mq2 = IntLaurent.term(-1, 2)  # -q^2
    one_m_q2 = IntLaurent({0: 1, 2: -1})
    mq_inv = IntLaurent.term(-1, -1)
    mq2_inv = IntLaurent.term(-1, -2)
    one_m_qm2 = IntLaurent({0: 1, -2: -1})
    pos: dict = {}
    neg: dict = {}
    for x in range(n):
        for y in range(n):
            if x == y:
                pos[(x, y)] = [((x, y), mq2)]
                neg[(x, y)] = [((x, y), mq2_inv)]
            elif x < y:
                pos[(x, y)] = [((y, x), mq)]
                neg[(x, y)] = [((y, x), mq_inv), ((x, y), one_m_qm2)]
            else:
                pos[(x, y)] = [((y, x), mq), ((x, y), one_m_q2)]
                neg[(x, y)] = [((y, x), mq_inv)]
    return pos, neg


def rt_invariant(w: BraidWord, n: int) -> RatFun:
    """Framed invariant from the rank-n vector representation.

    Contracts the braid word against the R-matrix rules and closes up with
    the pivotal weights q^(n-1), q^(n-3), ..., q^(1-n); a global writhe
    factor (-q^-2)^writhe aligns the framing normalization with `homfly`.
    Satisfies rt_invariant(w, n) = homfly(w) at a = q^n.
    """
    if n < 1:
        raise ValueError("the representation rank must be positive")
    pos, neg = _rmatrix_rules(n)
    s = w.strands
    total = IntLaurent.zero()
    for start in product(range(n), repeat=s):
        vec: dict[tuple[int, ...], IntLaurent] = {start: IntLaurent.one()}
        for v in w.letters:
            rules = pos if v > 0 else neg
            k = abs(v) - 1
            new: dict[tuple[int, ...], IntLaurent] = {}
            for state, amp in vec.items():
                for (x2, y2), coeff in rules[(state[k], state[k + 1])]:
                    s2 = state[:k] + (x2, y2) + state[k + 2 :]
                    prev = new.get(s2)
                    acc = amp * coeff if prev is None else prev + amp * coeff
                    if acc.is_zero():
                        new.pop(s2, None)
                    else:
                        new[s2] = acc
            vec = new
        amp = vec.get(start)
        if amp is not None and not amp.is_zero():
            weight_exp = sum(n - 1 - 2 * c for c in start)
            total = total + amp.shift(weight_exp)
    e = w.writhe
    framing = IntLaurent.term(1 if e % 2 == 0 else -1, -2 * e)
    return RatFun.from_laurent(total * framing)
