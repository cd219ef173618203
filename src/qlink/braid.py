"""Braid words and their closures.

A braid word is a sequence of nonzero integers: letter i stands for the
Artin generator sigma_i crossing strands i and i+1, letter -i for its
inverse.  The closure of a word on n strands is the framed link obtained
by joining the top of each strand to its bottom; the blackboard framing of
that diagram is recorded by the writhe (positive letters minus negative
letters).  A word is never simplified here.  `homfly._markov_pieces` applies
Markov moves (free cancellation, splits, destabilization) and braid relations
at the end generators, before the Hecke expansion of the cores they leave
(`homfly.markov_trace` is the product of those pieces); the invariance tests
stay meaningful because they also run evaluators that apply no move: the
unreduced trace `ocneanu_trace(HeckeElement.from_braid(w))` and the R-matrix
`rt_invariant`.
"""

from __future__ import annotations

from ._record import Record, setfield
from .exactalg.textio import quote_input

__all__ = ["BraidWord", "MAX_STRANDS", "parse_braid", "mirror"]

# The most strands `parse_braid` accepts.  One letter on 2,000 strands takes about 25 ms to
# trace and format (Python 3.11, 2 shared cores); its value prints as some 1.8 MB.
MAX_STRANDS = 2000


class BraidWord(Record):
    """Braid word: letters (nonzero, |letter| < strands) on `strands` strands."""

    __slots__ = ("letters", "strands")

    def __init__(self, letters: tuple[int, ...], strands: int) -> None:
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        for v in letters:
            if v == 0:
                raise ValueError("braid letters must be nonzero")
            if abs(v) >= strands:
                raise ValueError(f"letter {v} out of range for {strands} strands")
        setfield(self, "letters", letters)
        setfield(self, "strands", strands)

    @property
    def writhe(self) -> int:
        return len(self.letters) - 2 * sum(map((0).__gt__, self.letters))  # less twice the negative letters

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        """Concatenation on the common strand count."""
        n = max(self.strands, other.strands)
        return BraidWord(self.letters + other.letters, n)


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace- or comma-separated signed letters.

    With no explicit strand count the braid lives on max|letter| + 1
    strands (one strand for the empty word).  Either count may be at most
    MAX_STRANDS.
    """
    tokens = [t for t in text.replace(",", " ").split() if t]
    letters = []
    for t in tokens:
        try:
            v = int(t)
        except ValueError:
            raise ValueError(f"bad braid letter {quote_input(t)}") from None
        if v == 0:
            raise ValueError("braid letters must be nonzero")
        letters.append(v)
    if strands is None:
        strands = max((abs(v) for v in letters), default=0) + 1
    if strands > MAX_STRANDS:
        raise ValueError(f"more than {MAX_STRANDS} strands")
    return BraidWord(tuple(letters), strands)


def mirror(w: BraidWord) -> BraidWord:
    """Mirror image: every crossing reversed."""
    return BraidWord(tuple(-v for v in w.letters), w.strands)
