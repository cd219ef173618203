"""Framed HOMFLY-PT polynomial of braid closures.

Two independent evaluators are provided and cross-checked in the tests:

* `homfly` runs an Iwahori-Hecke-algebra Markov trace.  Braid letters map
  to the T-basis generators, which satisfy g^2 = (1 - q^2) g + q^2 and
  g^-1 = q^-2 g - (q^-2 - 1); the trace tau is the Markov trace with
  tau(T_e) = 1 and tau(x g_n y) = z tau(x y), computed by the
  distinguished-coset recursion over Z[q^+-1], as a polynomial in z.  The
  invariant mu^n * d^e * tau(w) of the closure of a word w on n strands with
  writhe e and c components is built in Z[a^+-1, q^+-1] over its denominator
  (q^2 - 1)^c, known from Lickorish & Millett (Topology 26, 1987).

* `rt_invariant` contracts an explicit R-matrix on the n-dimensional
  vector representation against quantum-trace weights, and must agree with
  homfly under a = q^n.

Normalization.  The calibration is pinned by three conditions: the empty
word on one strand evaluates to mu = (a - a^-1)/(q - q^-1); appending a
positive stabilization letter multiplies the value by q^-1 a; appending a
negative one multiplies it by q a^-1.  Solving these against the quadratic
relation gives

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

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product, zip_longest

from .braid import BraidWord, closure_stats
from .exactalg import IntLaurent, IntLaurent2, RatFun, RatFun2, normalize2
from .exactalg.laurent import laurent2_divide_exact
from .qnum import qfactorial

__all__ = [
    "HeckeElement",
    "TraceParams",
    "hecke_mul_gen",
    "ocneanu_trace",
    "homfly",
    "rt_invariant",
    "mu_colored",
    "homfly_twist_coeff",
    "mirror_substitution",
]

# Hecke structure constants for g^2 = (1 - q^2) g + q^2.
_Q2 = IntLaurent.q_power(2)
_QM2 = IntLaurent.q_power(-2)
_ONE_MINUS_Q2 = IntLaurent({0: 1, 2: -1})
_ONE_MINUS_QM2 = IntLaurent({0: 1, -2: -1})

# The calibration in Z[a^+-1, q^+-1]: z = U / W, mu = q W / (q^2 - 1), d = -q^-2.
_W = IntLaurent2({(1, 0): 1, (-1, 0): -1})  # a - a^-1
_U = IntLaurent2({(1, 0): 1, (1, 2): -1})  # -q a (q - q^-1)
_Q2_MINUS_1 = IntLaurent2({(0, 2): 1, (0, 0): -1})


@dataclass(frozen=True)
class HeckeElement:
    """Linear combination of T-basis elements of the Hecke algebra H_n.

    Permutations are one-line tuples (w(1), ..., w(n)); no zero
    coefficients are stored.
    """

    strands: int
    terms: dict[tuple[int, ...], IntLaurent]

    @staticmethod
    def identity(n: int) -> HeckeElement:
        return HeckeElement(n, {tuple(range(1, n + 1)): IntLaurent.one()})

    @staticmethod
    def from_braid(w: BraidWord) -> HeckeElement:
        e = HeckeElement.identity(w.strands)
        for v in w.letters:
            e = hecke_mul_gen(e, abs(v), 1 if v > 0 else -1)
        return e

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.strands == other.strands and self.terms == other.terms


def _add_term(terms: dict, w: tuple[int, ...], c: IntLaurent) -> None:
    cur = terms.get(w)
    s = c if cur is None else cur + c
    if s.is_zero():
        terms.pop(w, None)
    else:
        terms[w] = s


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
    swap, keep = (_Q2, _ONE_MINUS_Q2) if sign == 1 else (_QM2, _ONE_MINUS_QM2)
    out: dict[tuple[int, ...], IntLaurent] = {}
    k = i - 1
    for w, c in e.terms.items():
        ws = list(w)
        ws[k], ws[k + 1] = ws[k + 1], ws[k]
        ws = tuple(ws)
        if (w[k] < w[k + 1]) == (sign == 1):  # T_w g = T_ws going up, T_w g^-1 = T_ws down
            _add_term(out, ws, c)
        else:
            _add_term(out, ws, c * swap)
            _add_term(out, w, c * keep)
    return HeckeElement(e.strands, out)


@dataclass(frozen=True)
class TraceParams:
    """Markov-trace parameters together with the unknot value.

    Only the calibrated values are accepted: unknot value mu, positive
    stabilization factor q^-1 a, negative stabilization factor q a^-1
    (checked at construction).
    """

    z: RatFun2
    d: RatFun2
    mu: RatFun2
    # the only field the trace and `homfly` read: basis-element traces as z-coefficient
    # tuples in Z[q^+-1], keyed by one-line permutation; params-free, inserts idempotent
    _basis_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @staticmethod
    def default() -> TraceParams:
        mu = RatFun2(_W.shift(0, 1), _Q2_MINUS_1)
        return TraceParams(z=RatFun2(_U, _W), d=RatFun2.monomial(-1, 0, -2), mu=mu)

    def verify_calibration(self) -> None:
        """Assert the unknot and the two framed stabilization conditions."""
        a = RatFun2.monomial(1, 1, 0)
        q = RatFun2.monomial(1, 0, 1)
        mu_expected = (a - a.inverse()) / (q - q.inverse())
        if self.mu != mu_expected:
            raise AssertionError("unknot value is not (a - a^-1)/(q - q^-1)")
        pos = self.mu * self.d * self.z
        if pos != a * q.inverse():
            raise AssertionError("positive stabilization factor is not q^-1 a")
        qm2 = RatFun2.monomial(1, 0, -2)
        tau_gen_inv = qm2 * self.z - (qm2 - RatFun2.from_int(1))
        neg = self.mu * self.d.inverse() * tau_gen_inv
        if neg != q * a.inverse():
            raise AssertionError("negative stabilization factor is not q a^-1")

    __post_init__ = verify_calibration


_DEFAULT_PARAMS: TraceParams | None = None


def default_trace_params() -> TraceParams:
    global _DEFAULT_PARAMS
    if _DEFAULT_PARAMS is None:
        _DEFAULT_PARAMS = TraceParams.default()
    return _DEFAULT_PARAMS


def _add_scaled(acc: tuple, c: IntLaurent, coeffs: tuple) -> tuple:
    """acc + c * coeffs, coefficientwise in z."""
    return tuple(x + c * t for x, t in zip_longest(acc, coeffs, fillvalue=IntLaurent.zero()))


def _trace_basis(w: tuple[int, ...], params: TraceParams) -> tuple[IntLaurent, ...]:
    """Markov trace of a T-basis element as its coefficients of z^0, z^1, ...
    by the coset recursion: write w = y * s_{n-1} ... s_j with y fixing
    strand n; then tau_n(T_w) = z * tau_{n-1}(T_y T_{s_{n-2}} ... T_{s_j})."""
    n = len(w)
    if n <= 1:
        return (IntLaurent.one(),)
    cached = params._basis_cache.get(w)
    if cached is not None:
        return cached
    if w[-1] == n:
        val = _trace_basis(w[:-1], params)
    else:
        j = w.index(n) + 1
        y = tuple(v for v in w if v != n)
        elem = HeckeElement(n - 1, {y: IntLaurent.one()})
        for i in range(n - 2, j - 1, -1):
            elem = hecke_mul_gen(elem, i, 1)
        acc: tuple[IntLaurent, ...] = ()
        for w2, c2 in elem.terms.items():
            acc = _add_scaled(acc, c2, _trace_basis(w2, params))
        val = (IntLaurent.zero(), *acc)
    params._basis_cache[w] = val
    return val


def _trace_coeffs(e: HeckeElement, params: TraceParams) -> tuple[IntLaurent, ...]:
    """Markov trace of e as its coefficients of z^0, z^1, ..."""
    acc: tuple[IntLaurent, ...] = ()
    for w, c in e.terms.items():
        acc = _add_scaled(acc, c, _trace_basis(w, params))
    return acc


def _times_mu_power(coeffs: tuple[IntLaurent, ...], m: int) -> IntLaurent2:
    """sum_k c_k U^k W^(m-k) = (q - q^-1)^m mu^m sum_k c_k z^k (m >= k), by Horner in U."""
    acc, wk = IntLaurent2.zero(), _W ** (m + 1 - len(coeffs))
    for c in reversed(coeffs):
        acc = acc * _U + IntLaurent2.from_q(c) * wk
        wk = wk * _W
    return acc


def ocneanu_trace(e: HeckeElement, params: TraceParams | None = None) -> RatFun2:
    """Markov trace at the calibrated z; `params` supplies only the basis cache."""
    coeffs = _trace_coeffs(e, params or default_trace_params())
    k = max(len(coeffs) - 1, 0)
    return normalize2(_times_mu_power(coeffs, k), _W**k)


def homfly(w: BraidWord, params: TraceParams | None = None) -> RatFun2:
    """Framed HOMFLY-PT polynomial of the closure of a braid word, with the
    calibrated z, d and mu; `params` supplies only the basis cache."""
    # mu^n d^e tau = (-1)^e q^(n-2e) N / (q^2 - 1)^n, and (q^2 - 1)^(n-c) divides N;
    # a quotient not certified free of q -+ 1 by evaluation gets a gcd in `_reduced`
    n, e, c = w.strands, w.writhe, closure_stats(w).components
    tau = _trace_coeffs(HeckeElement.from_braid(w), params or default_trace_params())
    num = laurent2_divide_exact(_times_mu_power(tau, n).shift(0, n - 2 * e), _Q2_MINUS_1**(n - c))
    return RatFun2._reduced(-num if e % 2 else num, _Q2_MINUS_1**c, coprime=_coprime_to_q2_minus_1(num))


def _coprime_to_q2_minus_1(num: IntLaurent2) -> bool:
    """Certificate that q -+ 1 does not divide num: num(a, +-1) != 0 in Z[a^+-1]."""
    at_one, at_minus_one = {}, {}
    for (i, k), c in num.items():
        at_one[i] = at_one.get(i, 0) + c
        at_minus_one[i] = at_minus_one.get(i, 0) + (-c if k & 1 else c)
    return any(at_one.values()) and any(at_minus_one.values())


def mirror_substitution(f: RatFun2) -> RatFun2:
    """a -> a^-1, q -> q^-1: the HOMFLY-PT value of the mirror closure."""
    return f.subs_bar()


# ---------------------------------------------------------------------------
# Closed-form scalars
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
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
