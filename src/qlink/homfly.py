"""Framed HOMFLY-PT polynomial of braid closures.

Two independent evaluators are provided and cross-checked in the tests:

* `homfly` runs an Iwahori-Hecke-algebra Markov trace.  Braid letters map
  to the T-basis generators, which satisfy g^2 = (1 - q^2) g + q^2 and
  g^-1 = q^-2 g - (q^-2 - 1); the trace tau is the Markov trace with
  tau(T_e) = 1 and tau(x g_n y) = z tau(x y).  It is Ocneanu's trace
  E_2 o ... o E_n (Jones, Ann. Math. 126, 1987), computed level by level: the
  conditional expectation E_m: H_m -> H_(m-1)[z] is applied to the whole
  element, for m = n down to 2, and terms are merged after each level.  A
  trace is a `Coeff` map {(k, e): c} of the coefficients c of z^k q^e.  The
  invariant mu^n d^e tau(w) of the closure
  of a word w on n strands with writhe e and c components has denominator
  (q^2 - 1)^c (Lickorish & Millett, Topology 26, 1987), and two facts make it
  canonical as built.  At q^2 = 1 the Hecke algebra is Z[S_n]: the braid maps
  to its permutation pi, and tau(T_w) = z^(n - cycles(w)).  With I = (q^2 - 1),
  the T_w coefficient of the braid's image lies in I^d(w, pi), d the number of
  transpositions from w to pi, and the z^k part of tau(T_w) lies in
  I^max(0, n - cycles(w) - k).  So with r = n - c and tau(w) = sum_k c_k z^k,
  (q^2 - 1)^(r-k) divides c_k, and c_r = 1 mod I.  The numerator is a binomial
  sum of the d_k = c_k (q^2 - 1)^(k-r), each formed once on integer lists in
  q^2: a trace has even q-exponents only, as `from_braid` starts at q^0 and
  each letter moves the exponents by 2.  At q = +-1 it is +-W^c S(a) with
  W = a - a^-1 and S(1) = (-1)^r, so it is free of q -+ 1: no two-variable product, division or gcd runs.

* Packed coefficients.  A Hecke coefficient is one integer
  c = sum_i c_i 2^(bits i), standing for sum_i c_i q^(low + 2i), with signed
  digits |c_i| < 2^(bits - 1); the element carries `bits` and `low`.  As
  t g^-1 = g + t - 1 (t = q^2), a letter g^-1 lowers `low` by 2 and multiplies
  by g + t - 1, so coefficients stay polynomials in t, and `hecke_mul_gen` does
  one or three integer operations per term (t c is c << bits).  The width is
  proven: one multiplication by g^+-1 at most triples the sum of |digits| over
  the element, so a width with 3^m < 2^(bits - 1) admits m of them from a
  single basis element.  `from_braid` takes the least multiple of 64 bits for
  its letters and the trace's coset steps, and `hecke_mul_gen` repacks wider,
  from the digits themselves, once an element has used up that room; no
  public call can overflow.  `ocneanu_trace` packs z above t: deg c + l(w),
  the t-degree plus the permutation's length, never rises along a term's path
  through the levels, so span + 1 digits per power of z hold every t-degree
  (span bounds deg c + l(w) over the element), and at most
  min(l(w), (n-1)(n-2)/2) coset steps on a path triple its digits.  The trace
  is unpacked once, at the end, into its `Coeff` map: 2^(bits - 1) is added
  to every digit and each digit's top bit flipped, and the bytes are read as
  signed digits: by one struct call at 64 bits, else by int.from_bytes.  No
  element may hold more than `MAX_HECKE_TERMS` = 8! terms: `hecke_mul_gen` and
  each trace level raise ValueError past the budget.

* The Markov moves shrink the word first, keeping its trace, and only the
  core they leave is expanded.  A core on 3 strands, such as the figure-eight
  g1 g2^-1 g1 g2^-1, is folded letter by letter on the six-element basis T_e,
  T_1, T_2, T_12, T_21, T_121 of H_3: one assignment of six packed integers per
  letter, then tau = e + z (a1 + a2 + t a121) + z^2 (a12 + a21 + (1 - t) a121),
  with t = q^2 (`_h3_trace`).  A core on 4 or more strands goes through
  `ocneanu_trace(HeckeElement.from_braid(core))`, which on the whole word stays
  the unreduced oracle of the tests.  The moves, until none applies:
  - cyclic free cancellation of v, -v (the trace is cyclic);
  - a split at every missing generator sigma_i: the trace is multiplicative,
    tau(x y') = tau(x) tau(y) for x on strands 1..i and y' a word y on
    strands 1..m-i moved up to i+1..m;
  - end-block destabilization: when all occurrences of g = sigma_(m-1) form
    one cyclic run g^k, rotating it to the end gives x g^k with x on m - 1
    strands.  As (g - 1)(g + q^2) = 0, g^k = alpha_k g + 1 - alpha_k with
    alpha_k = sum_(i<k) (-q^2)^i for k >= 0 and alpha_(-k) = -(-q^2)^(-k)
    alpha_k, so tau(x g^k) = (alpha_k z + 1 - alpha_k) tau(x); k = +-1 is
    ordinary destabilization.  sigma_1 is removed the same way through the
    flip sigma_i -> sigma_(m-i), conjugation by the half twist;
  - where no end block is left, braid relations at the end generator
    g = sigma_(m-1), with h = sigma_(m-2) and X, Y runs of letters that
    commute with g (every letter but g and h): the gather
    g^a X g^c -> g^a g^c X for X with no h, and the exchange
    g^a X h^b Y g^c -> X h^c g^b h^a Y for single letters (|a| = |b| = |c| = 1),
    by g h g = h g h and g^a h^b g^-a = h^-a g^b h^a, unless a = c = -b (the
    figure-eight pattern g h^-1 g, where neither relation applies).  Both keep the
    braid.  An exchange lowers the count of g, and a gather the number of its
    cyclic runs without raising the count, so they end, and often leave g one
    run for the end block to remove.  On 4 or more strands sigma_1 takes the
    same moves with h = sigma_2.  There no move at one end adds a letter of the
    other end generator or splits one of its runs, so every move lowers the
    measure (count of sigma_1 plus count of sigma_(m-1), runs of sigma_1 plus
    runs of sigma_(m-1)), compared first by count.  On 3 strands h = sigma_1 is
    the other end generator: an exchange at sigma_1 would raise the count of
    sigma_2 and the two ends could undo each other, so only sigma_2 moves.

  End blocks and braid relations run on one cyclic linked list per piece,
  `_Ring`, in `_destabilize`: strip an end block, else run the moves at the end
  generators, until neither applies.  The ring cancels at every junction a move
  makes, and a lap of the runs of g goes on from each move, keeping the run before
  it, so a cascade of gathers or exchanges costs its own span.  A piece leaves the
  ring as a core, or, once a generator has vanished, as a word that goes back to
  the cancellation and splits.

* Pieces in closure space.  `_markov_pieces(w)` runs the moves and returns
  what they leave, a `Pieces` record: the product tau' of the cores' traces,
  the cores' n' strands and c' components, the exponents k of the end blocks
  with |k| >= 2, the numbers p and m of the blocks with k = 1 and k = -1
  (kinks), and the number s of single strands.  `markov_trace(w)` multiplies
  every factor back in, for the tests.  The closure value is a product over
  the pieces: with n0 = n' + s strands and the rest e0 of the writhe,
  mu^n d^e tau = mu^n0 d^e0 tau' times, for each block, its factor

      beta_k = mu d^k (alpha_k z + 1 - alpha_k)
             = (-1)^k q^(1-2k) (A_k a + C_k a^-1) / (q^2 - 1),
      A_k = 1 - q^2 alpha_k,  C_k = alpha_k - 1,

  as mu z = -q a.  A kink is a monomial, beta_1 = q^-1 a and
  beta_-1 = q a^-1.  For odd k, alpha_k = 1 at q^2 = 1, so q^2 - 1 divides
  A_k and C_k and beta_k is a Laurent polynomial: the block joins its strand
  to another component.  For even k, alpha_k = 0 there, so the numerator is
  +-(a - a^-1) and q^2 - 1 stays in the denominator: one more component.  So
  the closure has c = s + c' + (number of even blocks) components, read off
  the pieces, and c' is read off the cores' traces: at q = 1 a core's trace
  is z^(n' - c').  The value of tau' on n0 strands is canonical as above with
  r = n' - c', and each block's numerator, A_k a + C_k a^-1 or its quotient
  by q^2 - 1, is free of q -+ 1, so the product is canonical as built.
  `homfly(w)` is `_closure_value(_markov_pieces(w), w.writhe)`, which builds
  the value of tau' and the single strands, multiplies each block's numerator
  into its rows as two terms in a, and applies the kinks as an exponent
  offset.  Where no core is left, tau' = 1 and r = 0, so the rows start as the
  signed binomials (-1)^j C(n0, j) of W^n0, one coefficient each; only the
  cores' rows take the division by q^2 - 1 and the binomial sums.

* `_closure_at(pieces, writhe, r, s)` folds the same value at a = q v delta_x, the
  paper's substitution, as a function of {x}: it is the one evaluator of x-values.  As
  z = -q a / mu and mu = a q X with X = (a^2 - 1) / (a^2 (q^2 - 1)),
  mu^n z^k = mu^(n-k) (-q a)^k gives

      mu^n d^e tau = a^n (-1)^e q^(n-2e) sum_k (-1)^k c_k X^(n-k),

  with no pole at a^2 = 1 (n - k >= 1).  Under a^2 = q^2 delta_x = (q^2 - 1) {x} + 1,
  X = {x} / a^2, and as A_k + C_k = -(q^2 - 1) alpha_k an end block's factor is

      a beta_k = (-1)^k q^(1-2k) (A_k {x} - alpha_k),

  so no factor keeps q^2 - 1 in a denominator, and the value is regular at q = +-1.
  With {x} = Xn / Xd and xd = (q^2 - 1) Xn + Xd, a^2 = xd / Xd, X = Xn / xd and
  delta_x = xd / (q^2 Xd): a power of delta_x, as a^N v^framing leaves, changes only the
  exponent of xd.  At q = q0 the fold is a sum of integers over one scale, and over
  Z[q^+-1] (r = q, s = 1) it is the x-value as one fraction; no polynomial in a is built.
  `_closure_at` does the part that depends on q0 alone once, and returns the sum as a
  function of {x}, so that `numeric_sweep` reuses it for every row.

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

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable
from functools import reduce
from itertools import accumulate, compress, count, product
from operator import add, itemgetter, mul, sub
from struct import unpack

from .braid import BraidWord
from .exactalg import IntLaurent, IntLaurent2, RatFun, RatFun2
from .qnum import qfactorial

__all__ = [
    "HeckeElement",
    "hecke_mul_gen",
    "ocneanu_trace",
    "markov_trace",
    "homfly",
    "rt_invariant",
    "mu_colored",
    "homfly_twist_coeff",
]

Coeff = dict[tuple[int, int], int]  # {(z-power, q-exponent): integer}, a trace or an unpacked coefficient

# What the Markov moves leave of a word (module docstring): the cores' trace tau' with z formal and
# their n' strands and c' components, the end blocks' k with |k| >= 2, p kinks g, m kinks g^-1 and
# s single strands.
Pieces = namedtuple("Pieces", "tau strands components blocks pos_kinks neg_kinks singles")

# The benchmark harness (`perfbench/`) still calls `default_trace_params()` and
# reads `_DEFAULT_PARAMS` as a basis cache; the trace keeps no state to hand it.
_DEFAULT_PARAMS = None


def default_trace_params() -> None:
    return None


# The Hecke-term budget: the most T-basis terms one Hecke element may hold.  8! = 40,320,
# so every element on 8 or fewer strands fits, the 8-strand torus word (1 ... 7)^8 included.
MAX_HECKE_TERMS = 40_320


class HeckeElement:
    """Linear combination of T-basis elements of the Hecke algebra H_n.

    Permutations are one-line tuples (w(1), ..., w(n)).  A coefficient is one packed
    integer c = sum_i c_i 2^(bits i), standing for sum_i c_i q^(low + 2i), with signed
    digits |c_i| < 2^(bits - 1); no zero coefficient is stored.  `room` is a number of
    further multiplications by a generator that the width admits: one at most triples the
    sum of |digits| over the element, and that sum times 3^room stays below 2^(bits - 1).
    `span` bounds deg c + l(w) over the terms, the t-degree of a coefficient plus the
    length of its permutation: a multiplication raises it by at most 1, and the trace does
    not raise it.  The defaults suit terms packed at 64 bits that no multiplication has
    measured: room 0 makes the first one measure the digits.  `unpacked` reads the terms
    as `Coeff` maps.  A plain class: several are built per trace."""

    __slots__ = ("strands", "terms", "bits", "low", "room", "span")

    def __init__(self, strands: int, terms: dict[tuple[int, ...], int], bits: int = 64, low: int = 0,
                 room: int = 0, span: int | None = None) -> None:
        self.strands, self.terms, self.bits, self.low, self.room = strands, terms, bits, low, room
        if span is None:  # the top digit, plus the longest permutation
            span = max((abs(c).bit_length() // bits for c in terms.values()), default=0) + strands * (strands - 1) // 2
        self.span = span

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HeckeElement) and self.strands == other.strands and self.unpacked() == other.unpacked()

    def unpacked(self) -> dict[tuple[int, ...], Coeff]:
        """The terms as `Coeff` maps of z-power 0, unpacked as `ocneanu_trace` unpacks its value."""
        return {w: _coeff(c, self.bits, self.low) for w, c in self.terms.items()}

    @staticmethod
    def identity(n: int) -> HeckeElement:
        return HeckeElement(n, {tuple(range(1, n + 1)): 1}, 64, 0, _room(1, 64), 0)

    @staticmethod
    def from_braid(w: BraidWord) -> HeckeElement:
        """The image of w, packed wide enough for its letters and for `ocneanu_trace`, which
        triples the digits at most min(len(w), (n-1)(n-2)/2) times more."""
        n, size = w.strands, len(w.letters)
        steps = size + min(size, (n - 1) * (n - 2) // 2)
        e = HeckeElement(n, {tuple(range(1, n + 1)): 1}, _width(1, steps), 0, steps, 0)
        for v in w.letters:
            e = hecke_mul_gen(e, abs(v), 1 if v > 0 else -1)
        return e


def _width(mass: int, steps: int) -> int:
    """The least multiple of 64 bits with mass 3^steps < 2^(bits - 1), for digits of at most
    `mass` in absolute sum."""
    return ((mass * 3**steps).bit_length() // 64 + 1) * 64


def _room(mass: int, bits: int) -> int:
    """The most multiplications that width admits: the largest r with mass 3^r < 2^(bits - 1)."""
    room = 0
    while (mass := mass * 3).bit_length() < bits:
        room += 1
    return room


def _digits(c: int, bits: int) -> list[int]:
    """The signed digits of a packed integer c of width `bits`, from digit 0 to its top one.
    Adding 2^(bits - 1) to every digit makes them all unsigned, with no carry; flipping each
    digit's top bit then leaves its two's complement, which the bytes of the sum hold, and
    signed int.from_bytes reads each digit from them, or one struct call all 64-bit digits."""
    size = bits // 8
    count = abs(c).bit_length() // bits + 1
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    raw = ((c + bias) ^ bias).to_bytes(size * count, "little")
    if bits == 64:  # ~3.5 us less for a 3-strand figure-eight's 15 digits (Python 3.11)
        return list(unpack(f"<{count}q", raw))
    return [int.from_bytes(raw[i : i + size], "little", signed=True) for i in range(0, len(raw), size)]


def _coeff(c: int, bits: int, low: int, slots: int = 0) -> Coeff:
    """The `Coeff` map of a packed coefficient c: digit i is the coefficient of
    z^(i // slots) q^(low + 2 (i % slots)), with slots = 0 for no z."""
    digits = _digits(c, bits)
    slots = slots or len(digits)
    return {(i // slots, low + 2 * (i % slots)): d for i, d in enumerate(digits) if d}


def _repack(e: HeckeElement, steps: int) -> HeckeElement:
    """e at the least width that admits `steps` more multiplications, by its digits' sum."""
    digits = {w: _digits(c, e.bits) for w, c in e.terms.items()}
    mass = sum(abs(d) for ds in digits.values() for d in ds) or 1  # a zero element has room for any steps
    bits = _width(mass, steps)
    terms = {w: reduce(lambda acc, d: (acc << bits) + d, reversed(ds), 0) for w, ds in digits.items()}
    return HeckeElement(e.strands, terms, bits, e.low, _room(mass, bits), e.span)


def _over_budget() -> ValueError:
    return ValueError(f"braid too large: its Hecke expansion passes {MAX_HECKE_TERMS} terms")


def hecke_mul_gen(e: HeckeElement, i: int, sign: int) -> HeckeElement:
    """Right multiplication by the image of sigma_i^sign in the T-basis.

    On a basis element T_w:  T_w g_i = T_{ws_i} when the length goes up, and
    t T_{ws_i} + (1 - t) T_w otherwise, t = q^2.  As t g^-1 = g + t - 1, g^-1 lowers
    `low` by 2 and multiplies by g + t - 1: T_w goes to T_{ws_i} + (t - 1) T_w when the
    length goes up, and to t T_{ws_i} otherwise.  T_w and T_{ws_i} are taken as a pair, so
    each result is written once; t c is c << bits.  Raises ValueError past
    `MAX_HECKE_TERMS` terms; repacks wider first when e has no room left."""
    if not 1 <= i <= e.strands - 1:
        raise ValueError(f"generator index {i} out of range for {e.strands} strands")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not e.room:
        e = _repack(e, 1)
    terms, bits, k, l = e.terms, e.bits, i - 1, i + 1
    out: dict[tuple[int, ...], int] = {}
    for w, c in terms.items():
        a, b = w[k], w[i]
        ws = w[:k] + (b, a) + w[l:]
        if a < b:  # T_w goes up to T_ws; d is T_ws's coefficient
            d = terms.get(ws)
            if sign > 0:
                if d is None:
                    out[ws] = c
                else:
                    dt = d << bits
                    out[w], x = dt, c + d - dt
                    if x:
                        out[ws] = x
            else:
                x = (c << bits) - c + ((d or 0) << bits)
                if x:
                    out[w] = x
                out[ws] = c
        elif ws not in terms:  # T_w goes down to T_ws, which is not a term
            out[ws] = ct = c << bits
            if sign > 0:
                out[w] = c - ct
    if len(out) > MAX_HECKE_TERMS:
        raise _over_budget()
    return HeckeElement(e.strands, out, bits, e.low if sign > 0 else e.low - 2, e.room - 1, e.span + 1)


def ocneanu_trace(e: HeckeElement) -> Coeff:
    """Markov trace of e as a `Coeff` map {(z-power, q-exponent): c}, with z
    formal (`homfly` substitutes the calibrated z): Ocneanu's trace
    E_2 o ... o E_n, each conditional expectation E_m: H_m -> H_(m-1)[z]
    applied to the whole element.

    E_m fixes T_w when w(m) = m.  Otherwise, with m in position j (counted from
    1) and y = w without m, it maps T_w to z T_y T_(s_(m-2)) ... T_(s_j); the
    terms with the same j are multiplied as one element.

    z is packed above t: a coefficient holds span + 1 digits per power of z, as no t-degree
    passes e.span (deg c + l(w) never rises along a term's path).  Along such a
    path at most min(l(w), (n-1)(n-2)/2) coset steps go down, each tripling the digits, so
    e is repacked first if its room is less; the parts of a level get room for their chain.
    The value is unpacked once, at the end.  Each level is held to `MAX_HECKE_TERMS`."""
    n, span = e.strands, e.span
    steps = min(span, (n - 1) * (n - 2) // 2)
    if e.room < steps:
        e = _repack(e, steps)
    bits, low, terms = e.bits, e.low, e.terms
    zbits = bits * (span + 1)
    for m in range(n, 1, -1):
        out: dict[tuple[int, ...], int] = {}
        moved: dict[int, dict[tuple[int, ...], int]] = {}
        for w, c in terms.items():
            if w[-1] == m:
                out[w[:-1]] = c
            else:
                j = w.index(m) + 1
                moved.setdefault(j, {})[w[: j - 1] + w[j:]] = c << zbits
        for j, ys in moved.items():
            part = HeckeElement(m - 1, ys, bits, low, m - 2, span)
            for i in range(m - 2, j - 1, -1):
                part = hecke_mul_gen(part, i, 1)
            for y, c in part.terms.items():
                c += out.get(y, 0)
                if c:
                    out[y] = c
                else:  # y was a term, and the sum is 0
                    del out[y]
        if len(out) > MAX_HECKE_TERMS:
            raise _over_budget()
        terms = out
    return _coeff(next(iter(terms.values()), 0), bits, low, span + 1)


def _block_lists(k: int) -> tuple[list[int], list[int]]:
    """(A, C) for an end block g^k with |k| >= 2: dense lists of one length in t = q^2, from
    t^0, such that (-1)^k q^(1-2k) t^o (A a + C a^-1), o = min(k, 0), is the numerator of its
    closure factor beta_k over (q^2 - 1)^[k even] (module docstring).  Closed forms, with no
    division: for k > 0, A_k = 1 - t + ... + t^k and C_k = -t + t^2 - ... - t^(k-1) for even
    k, and the quotients A_k / (t - 1) = -(1 + t^2 + ... + t^(k-1)) and
    C_k / (t - 1) = t (1 + t^2 + ... + t^(k-3)) for odd k.  For k < 0 they are the pair of
    -k swapped, and negated for even k.  The coefficients are 0 and +-1, and some are +1."""
    j = abs(k)
    if j & 1:
        fa, fc = [-1, 0] * (j // 2) + [-1], [0, 1] * (j // 2) + [0]
        return (fa, fc) if k > 0 else (fc, fa)
    fa, fc = [1, -1] * (j // 2) + [1], [0, -1] + [1, -1] * (j // 2 - 1) + [0]
    return (fa, fc) if k > 0 else ([-x for x in fc], [-x for x in fa])


def _q2_minus_1_power(c: int) -> IntLaurent2:
    """(q^2 - 1)^c, the denominator of a c-component closure value: its q^(2i)
    coefficient is (-1)^(c-i) C(c, i), by C(c, i+1) = C(c, i) (c-i) / (i+1)."""
    out, b = {}, -1 if c & 1 else 1
    for i in range(c + 1):
        out[0, 2 * i] = b
        b = -b * (c - i) // (i + 1)
    return IntLaurent2._new(out)


def homfly(w: BraidWord) -> RatFun2:
    """Framed HOMFLY-PT polynomial of the closure of a braid word, with the
    calibrated z, d and mu."""
    return _closure_value(_markov_pieces(w), w.writhe)


def _closure_value(pieces: Pieces, writhe: int) -> RatFun2:
    """`homfly(w)` from pieces = _markov_pieces(w) and writhe = w.writhe: the closure value of
    the cores and single strands, on n = n' + s strands with the rest e of the writhe, times
    each end block's beta_k and the kinks' monomial (q^-1 a)^p (q a^-1)^m, over (q^2 - 1)^c
    with c = s + c' + (number of even blocks) (module docstring).

    mu^n d^e tau = (-1)^e q^(n-2e) N / (q^2 - 1)^n with N = sum_k c_k U^k W^(n-k) for the
    cores' tau = sum_k c_k z^k, and N / (q^2 - 1)^r, r = n' - c', is free of q -+ 1.  As
    U = -a (q^2 - 1), N / (q^2 - 1)^r = sum_k (-a)^k d_k W^(n-k) with
    d_k = c_k (q^2 - 1)^(k-r): its a^(n-2j) coefficient is (-1)^j sum_k (-1)^k C(n-k, j) d_k.
    Each d_k is formed once on a dense integer list in t = q^2 (a trace has even q-exponents
    only): c_k is divided r - k times by t - 1, or multiplied k - r times; an inexact
    division raises ArithmeticError.  Each coefficient of a^(n-2j) is summed as one dense
    row j in t.

    With no core (n' = 0) tau' = 1 and r = 0, so row j is the one coefficient (-1)^j C(n, j)
    of W^n, built directly.  The rows are held in one flat list, row j at j * size.

    A block multiplies the rows by (-1)^k q^(1-2k) t^o (A a + C a^-1) (`_block_lists`): row j
    becomes A times itself plus C times row j - 1, and (-1)^k q^(1-2k) t^o joins the sign and
    q-offset of the read-out, as the kinks' monomial a^(p-m) q^(m-p) does.  While the rows
    are single coefficients (as with no core) that is one product per entry; otherwise the
    rows are spread column by column at their new stride into one zero-padded list, and each
    nonzero term +-t^d of A or C is one pass over it.  The read-out pairs the flat list with
    the exponents (da - 2 j, dq + 2 t) of row j and entry t."""
    tau, ks, p, m = pieces.tau, pieces.blocks, pieces.pos_kinks, pieces.neg_kinks
    r, n, e = pieces.strands - pieces.components, pieces.strands + pieces.singles, writhe - p + m
    sign = -1 if e & 1 else 1  # the rest's (-1)^(e - sum ks) times the blocks' (-1)^k
    if not pieces.strands:  # no core: tau' = 1 and r = 0, so row j is the binomial (-1)^j C(n, j) of W^n
        lo, size, flat, b = 0, 1, [], sign
        for j in range(n + 1):
            flat.append(b)
            b = -b * (n - j) // (j + 1)
        height = n + 1
    else:
        exps = [x for _, x in tau]
        lo = min(exps, default=0)
        width = (max(exps, default=lo) - lo) // 2 + 1
        parts: dict[int, list[int]] = {}  # k -> the q^lo t^i coefficients of c_k
        for (k, x), v in tau.items():
            parts.setdefault(k, [0] * width)[(x - lo) >> 1] = v
        for k, d in parts.items():  # c_k becomes d_k
            for _ in range(r - k):  # d / (t - 1) from the top, b_i = d_(i+1) + b_(i+1), if d(1) = 0
                b = list(accumulate(reversed(d)))
                if b and b[-1]:
                    raise ArithmeticError("inexact polynomial division")
                d = b[-2::-1]
            for _ in range(k - r):
                d = [x - y for x, y in zip([0, *d], [*d, 0])]
            parts[k] = d
        size = max(map(len, parts.values()), default=0)
        rows: list = [None] * (n + 1 - min(parts, default=n + 1))  # j -> the q^lo t^i coefficients of a^(n-2j)
        for k, d in parts.items():
            d += [0] * (size - len(d))
            b = -sign if k & 1 else sign  # sign (-1)^(j+k) C(n-k, j), C(n-k, j+1) = C(n-k, j) (n-k-j) / (j+1)
            for j in range(n - k + 1):
                row = rows[j]
                rows[j] = [b * x for x in d] if row is None else [x + b * y for x, y in zip(row, d)]
                b = -b * (n - k - j) // (j + 1)
        flat, height = [x for row in rows for x in row], len(rows)
    da, dq, comps = n + p - m, lo + n - 2 * e + m - p, pieces.singles + pieces.components
    for k in ks:  # each block adds a row, and widens the rows by its top t-power g
        fa, fc = _block_lists(k)
        g = len(fa) - 1
        # size picks the layout.  Over the 2,544 `trace` ops of seed 1 (chunks 0-15) the closure
        # took 28.0 ms with both, 32.7 ms with the passes alone (Python 3.11, interleaved)
        if size == 1:  # row j of single coefficients c_j becomes c_j A + c_(j-1) C
            flat = [x * a + y * c for x, y in zip(flat + [0], [0] + flat) for a, c in zip(fa, fc)]
        else:  # the rows at stride w after two rows of zeros, and one pass per term +-t^d of A or C
            w = size + g
            wide = [0] * (w * (height + 3))  # row j at (j + 2) w; the term's pass starts at 2 w - d, or w - d for C
            for t in range(size):
                wide[2 * w + t : (height + 2) * w : w] = flat[t::size]
            span, terms = (height + 1) * w, [*zip(fa, range(2 * w, w, -1)), *zip(fc, range(w, 0, -1))]
            terms = sorted([t for t in terms if t[0]], reverse=True)  # a term with v = 1 first
            acc = wide[terms[0][1] : terms[0][1] + span]
            for v, o in terms[1:]:
                acc = map(add if v > 0 else sub, acc, wide[o : o + span])
            flat = list(acc)
        size, height = size + g, height + 1
        da, dq, comps = da + 1, dq + 1 + 2 * min(k, 0), comps + 1 - (k & 1)  # an even block adds a component
    keys = product(range(da, da - 2 * height, -2), range(dq, dq + 2 * size, 2))  # row j, entry t
    num = IntLaurent2._new({key: v for key, v in zip(keys, flat) if v})
    # canonical as built: (q^2 - 1)^c is free of a, with constant term +-1, leading coefficient 1
    return RatFun2._make(num, _q2_minus_1_power(comps))


def _mul(a: Coeff, b: Coeff) -> Coeff:
    """The product of two traces."""
    out: Coeff = {}
    for (k1, e1), v1 in a.items():
        for (k2, e2), v2 in b.items():
            key = (k1 + k2, e1 + e2)
            out[key] = out.get(key, 0) + v1 * v2
    return {key: v for key, v in out.items() if v}


def _block_factor(k: int) -> Coeff:
    """alpha_k z + 1 - alpha_k, the trace factor of an end block g^k (k != 0), with
    alpha_k = sum_(i<k) (-q^2)^i and alpha_(-k) = -(-q^2)^(-k) alpha_k."""
    out, sign = {(0, 0): 1}, 1 if k > 0 else -1
    for i in range(k) if k > 0 else range(k, 0):  # alpha_k's q^(2i) coefficient is sign (-1)^i
        c = -sign if i & 1 else sign
        out[1, 2 * i] = c
        out[0, 2 * i] = out.get((0, 2 * i), 0) - c
    return {key: v for key, v in out.items() if v}


def _cyclically_reduced(word: list[int]) -> list[int]:
    """The word with every cancelling pair v, -v removed, cyclically."""
    out: list[int] = []
    for v in word:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    i, j = 0, len(out) - 1
    while i < j and out[i] == -out[j]:
        i, j = i + 1, j - 1
    return out[i : j + 1]


def _destabilize(word: list[int], lo: int, hi: int) -> tuple[list[int], int, int, list[int], bool]:
    """Shrink a cyclically reduced word on strands lo + 1 .. hi that uses every generator
    lo + 1 .. hi - 1 by end blocks and braid relations (module docstring).  While all
    occurrences of sigma_(hi-1), or of sigma_(lo+1), form one cyclic run g^k, the run is
    unlinked and its strand dropped; else gathers and exchanges run at the end generators
    (`_end_moves`).  Pairs v, -v meeting at a junction cancel.  Stops when neither applies or
    a generator has vanished.  Returns the exponents k of the blocks, the new lo and hi, the
    rest of the word in cyclic order, and whether a generator vanished (the rest then splits;
    else it is a core).  The word is left as it is.

    The word is one `_Ring` that keeps each generator's nodes, so that a block costs its own
    length, not the word's.  A word on two strands is one block.  On 3 strands a word with no
    move is known from its plain letter list, and no ring is built: every letter is
    g = sigma_(hi-1) or h = sigma_(hi-2), and a move is an exchange g^a h^b g^c, not
    a = c = -b, so b has the sign of a or of c, and the word holds neighbours g h or h g of
    one sign, whose product is g h.  With none, every change of generator between neighbours
    has product -g h, and more than two changes leave each generator more than one run, so no
    end block either.  The figure-eight is such a word."""
    if hi - lo == 2:  # one generator, so one run: the word is the block
        return [len(word) if word[0] > 0 else -len(word)], lo, hi - 1, [], False
    if hi - lo == 3:  # no ring for a word with no move: ~9 us less per small figure-eight word (Python 3.11)
        gh, pairs = (hi - 1) * (hi - 2), list(map(mul, word, word[1:] + word[:1]))
        if gh not in pairs and pairs.count(-gh) > 2:
            return [], lo, hi, word, False
    ring = _Ring(word)
    val, gen, nxt, prv, occ = ring.val, ring.gen, ring.nxt, ring.prv, ring.occ
    ks: list[int] = []
    while ring.size and not ring.vanished:
        for g in (hi - 1, lo + 1):
            ids = occ[g]
            start = end = next(iter(ids))
            if len(ids) == ring.size:  # the word is the block
                break
            run = 1
            while gen[prv[start]] == g:
                start, run = prv[start], run + 1
            while gen[nxt[end]] == g:
                end, run = nxt[end], run + 1
            if run == len(ids):
                break
        else:  # no end block: the braid relations, at sigma_1 too on 4 or more strands
            moved = _end_moves(ring, next(iter(occ[hi - 1])), hi - 1, hi - 2)
            if hi - lo > 3 and not ring.vanished:
                moved = _end_moves(ring, next(iter(occ[lo + 1])), lo + 1, lo + 2) or moved
            if not moved:
                break
            continue
        ks.append(len(ids) if val[start] > 0 else -len(ids))  # a reduced run has one sign
        for i in occ.pop(g):
            val[i] = gen[i] = 0
        lo, hi = (lo, hi - 1) if g == hi - 1 else (lo + 1, hi)
        ring.size -= len(ids)
        p, s = prv[start], nxt[end]
        nxt[p], prv[s] = s, p
        ring.cancel(p, s)
    return ks, lo, hi, ring.letters(next(compress(count(), val), 0)), ring.vanished


class _Ring:
    """A cyclic word as a doubly linked list over its positions, so that a rewrite costs its
    own span: `val[i]` is the letter at node i and `gen[i]` its generator, both 0 once it is
    cancelled or unlinked, and `nxt` and `prv` link the live nodes in cyclic order.  `occ`
    keeps each generator's live nodes as the keys of a dict, so that a cancellation deletes
    them in constant time, and `vanished` tells whether it removed a generator's last one."""

    __slots__ = ("val", "gen", "nxt", "prv", "size", "occ", "vanished")

    def __init__(self, word: list[int]) -> None:
        size = len(word)
        self.val, self.gen, self.size = list(word), list(map(abs, word)), size
        self.nxt, self.prv = [*range(1, size), 0], [size - 1, *range(size - 1)]
        self.occ: dict[int, dict[int, None]] = {}
        for i, g in enumerate(self.gen):
            self.occ.setdefault(g, {})[i] = None
        self.vanished = False

    def cancel(self, p: int, s: int) -> int:
        """Cancel the pairs v, -v that meet at the linked junction p -> s; returns the live
        node left of the last junction (any node once the ring is empty)."""
        val, gen, nxt, prv, occ = self.val, self.gen, self.nxt, self.prv, self.occ
        while self.size > 1 and val[p] == -val[s]:
            ids = occ[gen[p]]
            del ids[p], ids[s]
            self.vanished = self.vanished or not ids
            val[p] = val[s] = gen[p] = gen[s] = 0
            self.size -= 2
            p, s = prv[p], nxt[s]
            nxt[p], prv[s] = s, p
        return p

    def letters(self, head: int) -> list[int]:
        """The letters in cyclic order, from the live node head."""
        val, nxt = self.val, self.nxt
        out = []
        for _ in range(self.size):
            out.append(val[head])
            head = nxt[head]
        return out


def _gather(ring: _Ring, e1: int, s2: int, e2: int) -> tuple[int, int]:
    """g^a X g^c -> g^a g^c X: the run s2 .. e2 of g joins the run ending at e1, across the
    letters X between them, which commute with g and hold no neighbour of it.  Returns a live
    node, the last of the joined run where any of it is left, else one left of it, and the
    node past what is left of X, or -1 where none of X is left."""
    val, nxt, prv = ring.val, ring.nxt, ring.prv
    x1, x2, after = nxt[e1], prv[s2], nxt[e2]
    nxt[e1], prv[s2], nxt[e2], prv[x1], nxt[x2], prv[after] = s2, e1, x1, e2, after, x2
    left = ring.cancel(x2, after)  # the last node of what is left of X, unless it reached e2
    rest = nxt[left] if left != e2 and val[e2] else -1
    end = ring.cancel(e1, s2) if val[e1] and val[e1] == -val[s2] else left
    return (e2 if val[e2] else end), (rest if rest >= 0 and val[left] else -1)


def _exchange(ring: _Ring, u: int, hn: int, v: int, g: int, h: int) -> int:
    """g^a X h^b Y g^c -> X h^c g^b h^a Y for single letters g^a at u, h^b at hn and g^c at
    v, with X and Y commuting with g: the braid relation, as g^a h^b g^-a = h^-a g^b h^a
    and g h g = h g h; for a = c = -b it is none, and the caller leaves that out.  Node v
    takes g^b and node u h^a, both after hn, so u moves from g's nodes to h's.  Returns a
    live node at or left of what changed."""
    val, gen, nxt, prv, occ = ring.val, ring.gen, ring.nxt, ring.prv, ring.occ
    a, b, c = val[u] // g, val[hn] // h, val[v] // g
    p1, x1, x2, y2, after = prv[u], nxt[u], prv[hn], prv[v], nxt[v]
    nxt[p1], prv[x1] = x1, p1  # u and v out
    nxt[y2], prv[after] = after, y2
    y1 = nxt[hn]  # v and u in after hn
    nxt[hn], prv[v], nxt[v], prv[u], nxt[u], prv[y1] = v, hn, u, v, y1, u
    val[hn], val[v], val[u], gen[u] = c * h, b * g, a * h, h
    del occ[g][u]
    occ[h][u] = None
    left = p1
    for p in (y2, u, x2, p1):  # the new junctions p -> nxt[p], right to left
        if val[p] and val[p] == -val[nxt[p]]:
            left = ring.cancel(p, nxt[p])
    return p1 if val[p1] else left


def _run_end_at(ring: _Ring, x: int, g: int) -> int:
    """The last node of the run of g at or left of the live node x, or -1 where the ring
    has no g or nothing else."""
    gen, nxt, prv = ring.gen, ring.nxt, ring.prv
    for _ in range(ring.size):  # back to a g
        if gen[x] == g:
            break
        x = prv[x]
    else:
        return -1
    for _ in range(ring.size):  # on to the end of its run
        if gen[nxt[x]] != g:
            return x
        x = nxt[x]
    return -1


def _end_moves(ring: _Ring, x: int, g: int, h: int) -> bool:
    """Gathers and exchanges at the end generator g, with h its one neighbour and every
    other letter commuting with g, from the run of g at the live node x, until a lap of the
    runs of g finds none; whether any applied.  The lap holds the last node u of a run and
    scans the gap after it, counting its letters h, up to the next run.  After an exchange
    it goes on from the run at or left of what changed, and after a gather from the joined
    run, past the letters it crossed.  Where a gather cancels both runs, it goes back to the
    run before them, whose gap and count of h it kept, and on past the crossed letters.  So
    a cascade of gathers, or of exchanges, costs its own span."""
    val, gen, nxt = ring.val, ring.gen, ring.nxt
    u = _run_end_at(ring, x, g)
    v, hs, hn = nxt[u], 0, -1  # the gap after u's run, scanned up to v, holds hs letters h, the last at hn
    pu, phs, phn = -1, 0, -1  # the run before u's and its gap, where the lap knows them
    mark, moved = -1, False
    while u >= 0:
        while gen[v] != g:
            if gen[v] == h:
                hs, hn = hs + 1, v
            v = nxt[v]
        e2 = v  # the next run is v .. e2
        while gen[nxt[e2]] == g:
            e2 = nxt[e2]
        if e2 == u:  # one run
            break
        if hs > 1 or hs and (val[u] > 0) == (val[v] > 0) != (val[hn] > 0):  # two or more h, or g^a h^-a g^a: no move
            if mark < 0:
                mark = u
            pu, phs, phn, u, v, hs = u, hs, hn, e2, nxt[e2], 0
            if u == mark:
                break
            continue
        mark, moved = -1, True
        if hs:
            u, pu = _run_end_at(ring, _exchange(ring, u, hn, v, g, h), g), -1
            v, hs = nxt[u], 0
            continue
        end, v = _gather(ring, u, v, e2)
        if v >= 0 and gen[end] == g:  # a run ends at end, and what is left of X follows it
            u, pu = end, -1 if end == pu else pu
        elif v >= 0 and pu >= 0 and val[pu]:  # both runs cancelled: pu's gap runs on past X
            u, hs, hn, pu = pu, phs, phn, -1
        else:
            u, pu = _run_end_at(ring, end, g), -1
            v = nxt[u]
    return moved


def markov_trace(w: BraidWord) -> Coeff:
    """The Markov trace of w's Hecke element, a `Coeff` map with z formal: equal to
    `ocneanu_trace(HeckeElement.from_braid(w))`.  It is the product of `_markov_pieces(w)`:
    the cores' trace times every end block's factor, z for a positive kink and
    q^-2 z + 1 - q^-2 for a negative one.  The cores are what cancellation, splits, end
    blocks and the braid relations of the module docstring leave of w."""
    pieces = _markov_pieces(w)
    factors = [_block_factor(k) for k in pieces.blocks] + [_block_factor(-1)] * pieces.neg_kinks
    return reduce(_mul, factors, {(k + pieces.pos_kinks, e): v for (k, e), v in pieces.tau.items()})


def _markov_pieces(w: BraidWord) -> Pieces:
    """w reduced by the Markov moves of the module docstring to its pieces.  A worklist of
    pieces (lo, hi, letters) drives the moves, the letters kept in w's numbering on strands
    lo + 1 .. hi; nothing recurses.  A piece is cyclically reduced and split at every
    generator it lacks in one pass (a piece with no letters is a single strand), then shrunk
    by end blocks and braid relations on one ring (`_destabilize`).  What a vanished
    generator splits goes back to the worklist.  A piece with no move left is a core,
    renumbered from 1 and traced: on 3 strands by `_h3_trace`, a fold of its letters on the
    six-element basis T_e, T_1, T_2, T_12, T_21, T_121 of H_3, one assignment of six packed
    integers per letter, whose trace is e + z (a1 + a2 + t a121) + z^2 (a12 + a21 +
    (1 - t) a121), at a width proven as `from_braid`'s; on 4 or more strands by
    `ocneanu_trace(HeckeElement.from_braid(core))`, where a core with all of w's letters on
    all its strands is w's braid, so w itself is expanded.  At q = 1 a core's trace is
    z^(n' - c') (module docstring), which gives its components c'."""
    cores: list[Coeff] = []
    ks: list[int] = []
    n = c = p = m = 0
    work = [(0, w.strands, list(w.letters))]
    while work:
        lo, hi, word = work.pop()
        word = _cyclically_reduced(word)
        used = set(map(abs, word))
        cuts = [g for g in range(lo + 1, hi) if g not in used]
        if cuts:
            parts: list[list[int]] = [[] for _ in range(len(cuts) + 1)]
            for v in word:
                parts[bisect_left(cuts, abs(v))].append(v)
            bounds = [lo, *cuts, hi]
            work.extend((bounds[i], bounds[i + 1], part) for i, part in enumerate(parts) if part)
        elif word:
            blocks, lo, hi, word, split = _destabilize(word, lo, hi)
            p, m = p + blocks.count(1), m + blocks.count(-1)
            ks += [k for k in blocks if k * k > 1]
            if split:
                work.append((lo, hi, word))
            elif word:
                if hi - lo == 3:
                    cores.append(_h3_trace([v - lo if v > 0 else v + lo for v in word] if lo else word))
                else:
                    core = w  # no letter or strand removed: the moves kept w's braid
                    if len(word) < len(w.letters) or hi - lo < w.strands:
                        core = BraidWord(tuple(v - lo if v > 0 else v + lo for v in word), hi - lo)
                    cores.append(ocneanu_trace(HeckeElement.from_braid(core)))
                # at q = 1 the core's trace is z^(n' - c'), so sum_k k c_k = n' - c'
                n, c = n + hi - lo, c + hi - lo - sum(map(mul, map(itemgetter(0), cores[-1]), cores[-1].values()))
    s = w.strands - n - len(ks) - p - m  # each end block takes one strand
    # tuple.__new__ skips the record's generated __new__, which costs as much again
    return tuple.__new__(Pieces, ((reduce(_mul, cores) if cores else {(0, 0): 1}), n, c, ks, p, m, s))


def _h3_trace(letters: list[int]) -> Coeff:
    """The Markov trace of a word on 3 strands, equal to `ocneanu_trace(HeckeElement.from_braid(w))`.

    The image of the word is kept on the six-element basis T_e, T_1, T_2,
    T_12 = g1 g2, T_21 = g2 g1, T_121 = g1 g2 g1 of H_3, as six packed integers
    (e, a1, a2, a12, a21, a121) at `from_braid`'s width, and each letter is one assignment,
    by g^2 = (1 - t) g + t and g1 g2 g1 = g2 g1 g2 (t = q^2, t c is c << bits):
      g1:    (t a1, e + a1 - t a1, t a21, t a121, a2 + a21 - t a21, a12 + a121 - t a121)
      g2:    (t a2, t a12, e + a2 - t a2, a1 + a12 - t a12, t a121, a21 + a121 - t a121)
      g1^-1: (t (e + a1) - e, e, t (a2 + a21) - a2, t (a12 + a121) - a12, a2, a12)
      g2^-1: (t (e + a2) - e, t (a1 + a12) - a1, e, a1, t (a21 + a121) - a21, a21)
    where g^-1, as t g^-1 = g + t - 1, multiplies by g + t - 1 and lowers `low` by 2.  As
    tau(T_1) = tau(T_2) = z, tau(T_12) = tau(T_21) = z^2 and tau(T_121) = z tau(g1^2) =
    t z + (1 - t) z^2, the trace is tau = e + z (a1 + a2 + t a121) + z^2 (a12 + a21 + (1 - t) a121),
    with z packed above t as `ocneanu_trace` packs it and unpacked once by `_coeff`.

    The width is proven as `from_braid`'s: each letter at most triples the sum of |digits|
    over the six integers, and tau, which counts a121 at most three times, triples it once
    more, so len + 1 triplings from the digit 1 of T_e fit in _width(1, len + 1).  A letter
    raises the t-degree by at most 1 and tau adds t once, so a power of z takes len + 2
    digits."""
    size = len(letters)
    bits = _width(1, size + 1)
    e, a1, a2, a12, a21, a121 = 1, 0, 0, 0, 0, 0
    # No sum with a zero term is formed: x + 0 copies a big x, and (1 -2)^k keeps a slot at 0,
    # which took (1 -2)^500 from 0.22 to 0.15 s (Python 3.11).  So x + (1 - t) y is x where
    # y = 0, and t (x + y) - x is t y where x = 0 and t x - x where y = 0.
    for v in letters:
        if v == 1:
            t1, t21, t121 = a1 << bits, a21 << bits, a121 << bits
            e, a1, a2, a12, a21, a121 = (
                t1, e + a1 - t1 if a1 else e, t21, t121, a2 + a21 - t21 if a21 else a2,
                a12 + a121 - t121 if a121 else a12)
        elif v == 2:
            t2, t12, t121 = a2 << bits, a12 << bits, a121 << bits
            e, a1, a2, a12, a21, a121 = (
                t2, t12, e + a2 - t2 if a2 else e, a1 + a12 - t12 if a12 else a1, t121,
                a21 + a121 - t121 if a121 else a21)
        elif v == -1:
            e, a1, a2, a12, a21, a121 = (
                ((e + a1 if a1 else e) << bits) - e if e else a1 << bits, e,
                ((a2 + a21 if a21 else a2) << bits) - a2 if a2 else a21 << bits,
                ((a12 + a121 if a121 else a12) << bits) - a12 if a12 else a121 << bits, a2, a12)
        else:
            e, a1, a2, a12, a21, a121 = (
                ((e + a2 if a2 else e) << bits) - e if e else a2 << bits,
                ((a1 + a12 if a12 else a1) << bits) - a1 if a1 else a12 << bits, e, a1,
                ((a21 + a121 if a121 else a21) << bits) - a21 if a21 else a121 << bits, a21)
    zbits, t121 = bits * (size + 2), a121 << bits
    tau = e + ((a1 + a2 + t121) << zbits) + ((a12 + a21 + a121 - t121) << 2 * zbits)
    return _coeff(tau, bits, -2 * sum(map((0).__gt__, letters)), size + 2)


def _closure_at(pieces: Pieces, writhe: int, r, s, framing: int = 0) -> Callable:
    """The x-value of a word w on N strands at q = q0 = r/s, times v^framing, folded from
    pieces = _markov_pieces(w) and writhe = w.writhe as a function of {x}.  Under
    a = q v delta_x, a^N v^framing = v^b q^N delta_x^m with b = (N + framing) mod 2 and
    m = N - floor((N + framing) / 2), so the value is v^b times q0^N homfly(w) delta_x^m / a^N.
    The function returned maps (Xn, Xd), with Xn / Xd = {x}(q0) and delta_x(q0) neither 0 nor
    infinite, to that coefficient as a pair (num, den), not reduced, or to None where it is 0.
    r, s, Xn and Xd are integers, or elements of Z[q^+-1] with r = q and s = 1, where the pair
    is the x-value as a fraction in q.

    With R, S = r^2, s^2 and xd = (R - S) Xn + S Xd: a^2 = (q^2 - 1) {x} + 1 = xd / (S Xd),
    delta_x = xd / (R Xd), and X = {x} / a^2 = S Xn / xd (module docstring).  By the identity
    there, the sum runs over tau on the cores' and single strands, n of them, with the rest e of
    the writhe, and the other pieces are factors of a row.  The kinks' monomial
    a^(kp-km) q^(km-kp), for kp positive and km negative kinks, leaves (S Xd / xd)^km and a
    power of q0, which joins q0^N as dq.  An end block's beta_k / a = a beta_k / a^2 is
    (-1)^k q0^(1-2k) t0^o (A_k(t0) Xn - alpha_k(t0) Xd) S / xd with o = min(k, 0) and
    t0 = q0^2 = R / S.  In closed form, (A_k, alpha_k) = (alpha_k + (-t)^k, alpha_k) for k > 0,
    and t^j (A_k, alpha_k) = -(-1)^j (alpha_j - 1, alpha_j) for k = -j; S^|k| times them at t0,
    integers, are the block's pair, and a row multiplies in the pair against (Xn, -Xd).  So xd
    and Xd are only ever powers, and delta_x^m changes their exponents.  All that depends on q0
    alone is done here, once.

    c_k(q0) = C_k r^elo / s^ehi for C_k = sum_E c r^(E-elo) s^(ehi-E) over c_k's terms c q^E,
    and sum_k (-1)^k c_k X^(n-k) is r^elo / s^ehi times T / xd^n, T = sum_k C_k xn^(n-k) (-xd)^k
    with xn = S Xn, by Horner; the value is (-1)^e T r^p / (s^t xd^n) times the other pieces,
    p - elo = t - ehi = n - 2e + dq.  No factor has q^2 - 1 in a denominator, so q0 = +-1 needs
    no case of its own."""
    tau, ks, kp, km = pieces.tau, pieces.blocks, pieces.pos_kinks, pieces.neg_kinks
    n, e = pieces.strands + pieces.singles, writhe - kp + km
    N, dq = n + len(ks) + kp + km, n + len(ks) + 2 * km  # q0^(N + km - kp)
    m, R, S = N - (N + framing) // 2, r * r, s * s
    pairs, u, v = [], (-1 if e & 1 else 1) * S**km, 1  # (-1)^e of the rest times the blocks' (-1)^k
    for k in ks:
        j, g, sj = abs(k), 0, 1
        for _ in range(j):  # g = S^j alpha_j(t0) = sum_(d<j) (-R)^d S^(j-d), by Horner
            sj *= S
            g = -g * R + sj
        pairs.append((g + (-R) ** j, g) if k > 0 else (g - sj, g) if j & 1 else (-g + sj, -g))
        e, dq, v = e - k, dq + 1 - 2 * max(k, 0), v * S ** (j - 1)
    exps = [E for _, E in tau]
    elo, ehi = min(exps, default=0), max(exps, default=0)
    cs = [0] * n  # C_k; a trace on n strands has z-degree below n
    for (k, E), c in tau.items():
        cs[k] += c * r ** (E - elo) * s ** (ehi - E)
    cs.reverse()
    p, t = elo + n - 2 * e + dq, ehi + n - 2 * e + dq
    u *= r ** max(p, 0) * s ** max(-t, 0) * R ** max(-m, 0)  # and R^-m of delta_x^m = xd^m / (R Xd)^m
    v *= r ** max(-p, 0) * s ** max(t, 0) * R ** max(m, 0)
    dd, dx = km - m, m - n - len(ks) - km  # the powers of Xd and xd

    def at(Xn, Xd):
        xn, xd = S * Xn, (R - S) * Xn + S * Xd
        total, xp, mxd = 0, 1, -xd
        for c in cs:
            xp *= xn
            total = total * mxd + c * xp
        num, den = u * total, v
        for x, y in pairs:
            num *= x * Xn - y * Xd
        num, den = (num * Xd**dd, den) if dd >= 0 else (num, den * Xd**-dd)
        num, den = (num * xd**dx, den) if dx >= 0 else (num, den * xd**-dx)
        return (num, den) if num else None

    return at


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
