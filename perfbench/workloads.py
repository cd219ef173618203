"""Seeded inputs of the three workloads.

This module imports nothing from qlink: the program under test receives only
the words, x values and argv generated here.  Every list has a fixed size and
a fixed composition (stratified by the input property that drives its cost),
so that seeds differ in their inputs but not in how much work they ask for.
Each op carries `props`, the input properties its cost depends on, so that a
change that helps only some inputs can report their share.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

DEFAULT_SEED = 1

KNOTS = {"3_1": (1, 1, 1), "4_1": (1, -2, 1, -2), "5_1": (1, 1, 1, 1, 1)}

# A run is a sequence of chunks, one per pass; chunk k of a seed is always
# the same list.  Chunks of one workload share their composition, so a run
# that gets through more of them (a faster program) sees the same mix.

# trace: random words drawn into bins of their Hecke support size (the number
# of T-basis terms the word can reach, an upper bound on len(e.terms)), as
# (low, high, count, most strands) per block, plus one twist word per strand
# count in TWIST_STRANDS per chunk.  Within a bin the words take the strand
# counts that can reach its support in turn, so every chunk has the same mix
# of strands too.  The twist words make the heavy tail.  Random words of
# larger support, or on 6 and 7 strands with support over 15, are left out:
# the cost of one of them ranges over three orders of magnitude (cold traces
# of deep permutations), which no run length here averages out.  Most words
# have support 4-7 and few have support 8-31 (1-400 ms each, with a wide
# spread at every support), so that p90 falls where op times are dense and a
# run holds over a thousand ops: with more support-8-31 words, p90 moved by
# 10% from seed to seed.
TRACE_BINS = ((1, 3, 3, 7), (4, 7, 42, 7), (8, 15, 6, 7), (16, 31, 1, 5))
TRACE_BLOCKS = 3
TRACE_LENGTH = (6, 12)
TWIST_STRANDS = (4, 5, 6)

# sweep: one chunk holds every (word kind, flavor, normalized, continued-
# fraction length of x) combination once.
SWEEP_CF_LENGTHS = (2, 3, 4, 5, 6)
Q0S = ("2", "3", "1/2", "3/2", "-2", "2/3")

# Small tables with x of a 2-term continued fraction: a table's cost grows
# quickly with both, and with 3 entries or 3 terms the tables were the slowest
# tenth of the ops on their own, so their spread set p90's.
TABLE_ENTRIES = 2
TABLE_CF_LENGTHS = (2,)
DEEP_PASSING = (180, 220)  # strand counts the trace recursion still handles
DEEP_FAILING = (1000, 1400)  # beyond the interpreter's recursion limit


def hecke_support(letters: tuple[int, ...], strands: int) -> int:
    """Number of permutations T_w the word's Hecke element can reach."""
    support = {tuple(range(strands))}
    for v in letters:
        k = abs(v) - 1
        out = set()
        for w in support:
            ws = list(w)
            ws[k], ws[k + 1] = ws[k + 1], ws[k]
            out.add(tuple(ws))
            # a length-decreasing g_i, or a length-increasing g_i^-1, keeps T_w too
            if (w[k] < w[k + 1]) != (v > 0):
                out.add(w)
        support = out
    return len(support)


def cf_length(x: Fraction) -> int:
    """Length of the regular continued fraction of x."""
    p, d, n = x.numerator, x.denominator, 0
    while d:
        p, d = d, p - (p // d) * d
        n += 1
    return n


def word_text(letters: tuple[int, ...]) -> str:
    return " ".join(str(v) for v in letters)


def twist_word(strands: int) -> tuple[int, ...]:
    """(s_1 ... s_{n-1})^3 followed by one inverse sweep."""
    up = tuple(range(1, strands))
    return up * 3 + tuple(-v for v in up)


def random_word(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))


def random_rational(rng: random.Random, length: int) -> Fraction:
    """A rational whose regular continued fraction has exactly `length` terms."""
    terms = [rng.randint(-3, 4)] + [rng.randint(1, 4) for _ in range(length - 1)]
    if length > 1 and terms[-1] == 1:
        terms[-1] = 2  # [.., a, 1] is the same number as [.., a + 1]
    x = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        x = a + 1 / x
    return x


def _trace_op(letters: tuple[int, ...], strands: int, family: str) -> dict:
    return {
        "key": f"homfly {strands}: {word_text(letters)}",
        "word": list(letters),
        "strands": strands,
        "props": {
            "family": family,
            "strands": strands,
            "length": len(letters),
            "support": hecke_support(letters, strands),
        },
    }


def trace_ops(seed: int, chunk: int) -> list[dict]:
    """`homfly(w)` on distinct words: TRACE_BLOCKS blocks of binned random
    words and the twist words, in seeded order."""
    rng = random.Random(f"trace/{seed}/{chunk}")
    seen: set[tuple[int, tuple[int, ...]]] = set()
    ops = [_trace_op(twist_word(n), n, "twist") for n in TWIST_STRANDS]
    strands = [itertools.cycle([n for n in range(3, most + 1) if math.factorial(n) >= low])
               for low, _, _, most in TRACE_BINS]
    for _ in range(TRACE_BLOCKS):
        for (low, high, count, _), bin_strands in zip(TRACE_BINS, strands):
            for n in itertools.islice(bin_strands, count):
                while True:
                    letters = random_word(rng, n, rng.randint(*TRACE_LENGTH))
                    if (n, letters) not in seen and low <= hecke_support(letters, n) <= high:
                        break
                seen.add((n, letters))
                ops.append(_trace_op(letters, n, "random"))
    rng.shuffle(ops)
    return ops


def _sweep_word(rng: random.Random, kind: int) -> tuple[str, tuple[int, ...], int]:
    if kind < len(KNOTS):
        name, letters = list(KNOTS.items())[kind]
        return name, letters, max(abs(v) for v in letters) + 1
    n = rng.randint(2, 4)
    return "random", random_word(rng, n, rng.randint(4, 6)), n


def sweep_ops(seed: int, chunk: int) -> list[dict]:
    """One-row `numeric_sweep` calls, one per (word kind, flavor, normalized,
    continued-fraction length) combination, x distinct across rows."""
    rng = random.Random(f"sweep/{seed}/{chunk}")
    plan = [
        (kind, flavor, normalized, length)
        for kind in range(len(KNOTS) + 1)
        for flavor in ("right", "flat")
        for normalized in (False, True)
        for length in SWEEP_CF_LENGTHS
    ]
    rng.shuffle(plan)
    seen: set[Fraction] = set()
    ops = []
    for kind, flavor, normalized, length in plan:
        name, letters, n = _sweep_word(rng, kind)
        x = random_rational(rng, length)
        while x in seen:
            x = random_rational(rng, length)
        seen.add(x)
        q0 = rng.choice(Q0S)
        ops.append({
            "key": f"sweep {n}: {word_text(letters)} x={x} q0={q0} {flavor} norm={int(normalized)}",
            "word": list(letters),
            "strands": n,
            "x": str(x),
            "q0": q0,
            "flavor": flavor,
            "normalized": normalized,
            "props": {"word": name, "strands": n, "length": len(letters), "cf_length": cf_length(x),
                      "flavor": flavor, "normalized": normalized},
        })
    return ops


def _cli_word(rng: random.Random) -> tuple[str, str]:
    if rng.random() < 0.4:
        name = rng.choice(list(KNOTS))
        return name, word_text(KNOTS[name])
    n = rng.randint(2, 4)
    return "random", word_text(random_word(rng, n, rng.randint(4, 6)))


def _rat(rng: random.Random, lengths: tuple[int, ...] = SWEEP_CF_LENGTHS[:4]) -> str:
    return str(random_rational(rng, rng.choice(lengths)))


def _cli_op(kind: str, argv: list[str], csv: str | None = None, **props) -> dict:
    key = "qlink " + " ".join(argv) + ("" if csv is None else " <<" + csv)
    return {"key": key, "argv": argv, "csv": csv,
            "props": {"subcommand": argv[0], "kind": kind, **props}}


def cli_ops(seed: int, chunk: int) -> list[dict]:
    """One `qlink` process per op: 3 qrat, 7 inv, 3 sweep and 3 `table
    --with-mirrors` runs, 3 malformed or unwritable requests and 2 deep
    strand counts.  The deeper one hits a known defect (a RecursionError in
    the trace recursion) and stays in the mix as a failed op."""
    rng = random.Random(f"cli/{seed}/{chunk}")
    ops = []
    for flavor in ("right", "left", "right"):
        x = _rat(rng).lstrip("-")  # argparse would read a leading "-" as an option
        argv = ["qrat", x, "--flavor", flavor]
        if rng.random() < 0.5:
            argv += ["--at", rng.choice(Q0S)]
        ops.append(_cli_op("ok", argv, cf_length=cf_length(Fraction(x))))
    inv_modes = (["homfly"], ["homfly", "--normalized"], ["x"], ["x", "--normalized"],
                 ["flat"], ["flat", "--normalized", "--mirror"], ["x", "--mirror"])
    for mode, *flags in inv_modes:
        name, word = _cli_word(rng)
        if mode != "homfly":
            mode += ":" + _rat(rng)
        ops.append(_cli_op("ok", ["inv", word, "--mode", mode, *flags], word=name))
    for steps in (2, 3, 4):
        name, word = _cli_word(rng)
        lo = rng.randint(-2, 2)
        argv = ["sweep", word, "--q0", rng.choice(Q0S), "--from", str(lo),
                "--to", str(lo + rng.randint(1, 3)), "--steps", str(steps), "--out", "{out}"]
        if rng.random() < 0.5:
            argv.append("--normalized")
        ops.append(_cli_op("ok", argv, word=name))
    for mode in ("homfly", "x:" + _rat(rng, TABLE_CF_LENGTHS), "flat:" + _rat(rng, TABLE_CF_LENGTHS)):
        rows = []
        for i in range(TABLE_ENTRIES):
            name, word = _cli_word(rng)
            rows.append(f'{name}_{i},"{word}"')
        ops.append(_cli_op("ok", ["table", "{csv}", "--mode", mode, "--with-mirrors"],
                           csv="\n".join(rows) + "\n", entries=TABLE_ENTRIES))
    name, word = _cli_word(rng)
    bad = word.split()
    bad.insert(rng.randrange(len(bad) + 1), rng.choice(("x", "1.5", "--", "0")))
    ops.append(_cli_op("malformed", ["inv", " ".join(bad)], word=name))
    num = str(rng.randint(-5, 9))
    ops.append(_cli_op("malformed", rng.choice((["qrat", num + "/0"],
                                                ["inv", word, "--mode", "x:" + num + "/0"]))))
    ops.append(_cli_op("malformed", ["sweep", word, "--q0", "2", "--from", "0", "--to", "1",
                                     "--steps", "2", "--out", "{missing}"], word=name))
    ops.append(_cli_op("deep", ["inv", str(rng.randint(*DEEP_PASSING))]))
    ops.append(_cli_op("deep", ["inv", str(rng.randint(*DEEP_FAILING))]))
    rng.shuffle(ops)
    return ops


OPS = {"trace": trace_ops, "sweep": sweep_ops, "cli": cli_ops}
