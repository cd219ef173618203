"""Helpers shared by the tests: braid-word and fraction operations that only the
tests need, kept here so that each check stays independent of the code it checks."""

from __future__ import annotations

from typing import NamedTuple

from qlink.braid import BraidWord
from qlink.exactalg import RatFun


class ClosureStats(NamedTuple):
    writhe: int
    components: int


def closure_stats(w: BraidWord) -> ClosureStats:
    """Writhe and number of closure components of a word, the components read off
    the cycles of the word's permutation (no Markov move involved)."""
    n = w.strands
    perm = list(range(n))  # perm[i] = strand position occupied after the word, 0-based
    for v in w.letters:
        i = abs(v) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * n
    components = 0
    for i in range(n):
        if not seen[i]:
            components += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return ClosureStats(w.writhe, components)


def shifted(w: BraidWord, offset: int, strands: int) -> BraidWord:
    """w re-embedded on `strands` strands, every strand index moved up by `offset`."""
    return BraidWord(tuple(v + offset if v > 0 else v - offset for v in w.letters), strands)


def invert_q(f: RatFun) -> RatFun:
    """f with q -> q^-1, renormalized (an involution)."""
    return RatFun(f.num.subs_qinv(), f.den.subs_qinv())
