"""Braid words, parsing, mirroring and closure statistics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closure_stats, shifted
from qlink.braid import MAX_STRANDS, BraidWord, mirror, parse_braid


def test_parse_examples():
    w = parse_braid("1 1 1")
    assert w.letters == (1, 1, 1)
    assert w.strands == 2
    fig8 = parse_braid("1 -2 1 -2")
    assert fig8.letters == (1, -2, 1, -2)
    assert fig8.strands == 3
    assert parse_braid("1, -2, 1, -2") == fig8


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_braid("0")
    with pytest.raises(ValueError):
        parse_braid("1 2", strands=2)
    with pytest.raises(ValueError):
        parse_braid("1 x 2")
    # the strand cap, inferred or explicit, is checked before a word is built
    assert parse_braid(str(MAX_STRANDS - 1)).strands == MAX_STRANDS
    assert parse_braid("1", strands=MAX_STRANDS).strands == MAX_STRANDS
    for text, strands in ((str(MAX_STRANDS), None), ("1", MAX_STRANDS + 1), ("1", 10**9)):
        with pytest.raises(ValueError, match=f"more than {MAX_STRANDS} strands"):
            parse_braid(text, strands)


def test_parse_empty_word():
    w = parse_braid("")
    assert w.letters == ()
    assert w.strands == 1
    assert parse_braid("", strands=3).strands == 3


def test_mirror():
    assert mirror(parse_braid("1 1 1")).letters == (-1, -1, -1)
    assert mirror(parse_braid("")) == parse_braid("")
    w = parse_braid("1 -2 1 -2")
    assert mirror(mirror(w)) == w


def test_closure_stats_examples():
    s = closure_stats(parse_braid("1 1 1"))
    assert s.writhe == 3 and s.components == 1
    s = closure_stats(parse_braid("", strands=3))
    assert s.writhe == 0 and s.components == 3
    s = closure_stats(parse_braid("1 1"))
    assert s.writhe == 2 and s.components == 2  # Hopf link


def test_mirror_flips_writhe_keeps_components():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 10))]
        w = BraidWord(tuple(letters), n)
        sw, sm = closure_stats(w), closure_stats(mirror(w))
        assert sm.writhe == -sw.writhe
        assert sm.components == sw.components


def test_disjoint_union_adds_components():
    rng = random.Random(5)
    for _ in range(30):
        n1, n2 = rng.randint(2, 4), rng.randint(2, 4)
        w1 = BraidWord(
            tuple(rng.choice([1, -1]) * rng.randint(1, n1 - 1) for _ in range(rng.randint(0, 6))), n1
        )
        w2 = BraidWord(
            tuple(rng.choice([1, -1]) * rng.randint(1, n2 - 1) for _ in range(rng.randint(0, 6))), n2
        )
        stacked = w1 * shifted(w2, n1, n1 + n2)
        assert (
            closure_stats(stacked).components
            == closure_stats(w1).components + closure_stats(w2).components
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 4)), max_size=12))
def test_round_trip(pairs):
    letters = tuple(i if pos else -i for pos, i in pairs)
    n = max((abs(v) for v in letters), default=0) + 1
    w = BraidWord(letters, n)
    assert parse_braid(str(w), strands=n) == w
    assert closure_stats(w).writhe == sum(1 if v > 0 else -1 for v in letters)
