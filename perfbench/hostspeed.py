"""Op timings scaled to a nominal host speed.

On a shared host the speed one process gets drifts with what the other
tenants run.  On 2 cores of such a host (Python 3.11), one `trace` pass, the
same ops in a fresh interpreter each time, took from 1.4 s to 2.5 s over a
few minutes, and 30-second averages of a fixed loop spread by 22% (quartile
distance over median).  That is as much as the bounds the benchmark sets,
so raw wall times could not tell a slower program from a busier host.

So the `trace` and `sweep` workers interleave a fixed reference computation
with their ops, written here and independent of qlink, and scale each op's
time by how fast the reference ran next to it: the time is multiplied by
`NOMINAL_S` over the mean of the reference slices timed just before and just
after the op's block.  A timing then reads as it would on a host that runs a
slice in `NOMINAL_S`; a change to qlink moves it as much as it moves the
wall time.  The reference does what qlink's inner loops do (dict polynomial
products with big-integer and `Fraction` coefficients), so that it slows
down with the host as qlink does: over 25 repeats of one `trace` pass the
spread of pass times fell from 22% unscaled to 5% scaled.

Process start-up (`cli` ops and the set-up probes) does not follow that
reference: scaling `cli` passes by it made their spread wider.  It drifts
too, in runs of tens of seconds (the set-up time of three sets of ten runs,
taken minutes apart, had medians 73, 86 and 91 ms).  So it has a reference
of its own: starting an interpreter that imports the standard modules qlink
imports, and nothing of qlink.  Its median over a run, timed after each
set-up probe and after every fourth `cli` op, scales every `cli` op and
set-up time of that run by `NOMINAL_START_S` over that median.  Over 30-second windows its median
followed the median `cli` op time with a correlation of 0.87.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

NOMINAL_S = 0.015  # the median slice on the host the bounds were set on
NOMINAL_START_S = 0.115  # the median reference start-up there
BLOCK_S = 0.1  # timed op time between two slices
_REPEATS = 6
_START = "import argparse, concurrent.futures, csv, dataclasses, fractions, io, json, re, typing"


def _reference() -> None:
    for _ in range(_REPEATS):
        p = {e: Fraction(e * 7919 + 1, e + 3) for e in range(12)}
        q = {e: 3**e * (e - 5) for e in range(12)}
        for _ in range(3):
            r: dict = {}
            for a, x in p.items():
                for b, y in q.items():
                    r[a + b] = r.get(a + b, 0) + x * y
            p = {e: c / (e + 2) for e, c in r.items() if e < 12}


def slice_s() -> float:
    """Seconds one reference slice takes now.  The cyclic collector is off
    meanwhile, so the caller's heap does not enter the slice's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_s(env: dict) -> float:
    """Seconds to start the reference interpreter and let it exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _START], env=env, check=True)
    return time.perf_counter() - t0


class Scaler:
    """Scale factors for a sequence of timed intervals.

    Call `add(seconds)` after each interval; a reference slice runs whenever
    `BLOCK_S` of intervals have gone by since the last one, and once more in
    `finish()`.  Each interval's factor is `NOMINAL_S` over the mean of the
    slices on either side of its block.
    """

    def __init__(self) -> None:
        slice_s()  # warm-up, not used
        self.slices = [slice_s()]
        self.factors: list[float] = []
        self._pending = 0
        self._block = 0.0

    def add(self, seconds: float) -> None:
        self._pending += 1
        self._block += seconds
        if self._block >= BLOCK_S:
            self._close()

    def _close(self) -> None:
        self.slices.append(slice_s())
        factor = NOMINAL_S * 2 / (self.slices[-2] + self.slices[-1])
        self.factors += [factor] * self._pending
        self._pending, self._block = 0, 0.0

    def finish(self) -> list[float]:
        """The factor of every interval added, in order."""
        if self._pending:
            self._close()
        return self.factors
