"""One pass of a workload, in a fresh interpreter spawned by run.py.

    worker.py probe                        import qlink, calibrate, print "ready"
    worker.py run [--traced] [--check]     same, then run the ops read as JSON on
                                           stdin and print the results as JSON
    worker.py cli STATS_PATH ARG...        the `qlink` command with spans on;
                                           their totals are written to STATS_PATH

`qlink` and the calibrated default trace parameters are ready before "ready"
is printed; run.py times that as set-up.  Ops are timed one by one, and
nothing but the op runs inside the timed region: inputs are built before it,
and outputs are formatted and checked after it.  Reference slices of
`hostspeed` run between the ops, outside their timed regions.
"""

from __future__ import annotations

import sys
import time


def _run(workload: str, ops: list[dict], traced: bool, check: bool) -> dict:
    import hashlib
    import resource
    from fractions import Fraction

    from hostspeed import Scaler

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # imported after install, so that these names are the wrapped functions
    from qlink import homfly, numeric_sweep, rt_invariant
    from qlink.braid import BraidWord
    from qlink.exactalg import format_ratfun2

    words = [BraidWord(tuple(op["word"]), op["strands"]) for op in ops]
    if workload == "trace":
        calls = [(homfly, (w,), {}) for w in words]

        def text(value) -> str:
            return format_ratfun2(value)
    else:
        calls = [
            (numeric_sweep, (w, Fraction(op["q0"]), [Fraction(op["x"])]),
             {"normalized": op["normalized"], "flavor": op["flavor"]})
            for w, op in zip(words, ops)
        ]

        def text(value) -> str:
            rows, diagnostics = value
            return "\n".join([f"{r.x},{r.value},{r.flag}" for r in rows] + diagnostics)

    clock = time.perf_counter
    times, values, errors = [], [], []
    scaler = Scaler()
    for fn, args, kwargs in calls:
        t0 = clock()
        try:
            value, error = fn(*args, **kwargs), None
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            value, error = None, f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        scaler.add(times[-1])
        values.append(value)
        errors.append(error)

    oracle_bad = []
    if check and workload == "trace":
        # the Hecke trace against the independent R-matrix evaluator, at a = q^2
        for i, (w, value) in enumerate(zip(words, values)):
            if value is not None and value.subs_a_power_of_q(2) != rt_invariant(w, 2):
                oracle_bad.append(i)
    return {
        "raw_times": times,
        "factors": scaler.finish(),
        "outputs": [None if v is None else hashlib.sha256(text(v).encode()).hexdigest()[:16] for v in values],
        "errors": errors,
        "oracle_bad": oracle_bad,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stats": None if tracer is None else tracer.snapshot(),
    }


def _cli(stats_path: str, args: list[str]) -> int:
    t0 = time.perf_counter()
    import qlink.cli

    import_s = time.perf_counter() - t0
    import json

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return qlink.cli.main(args)
    finally:
        with open(stats_path, "w") as fh:
            json.dump({"import_s": import_s, **tracer.snapshot()}, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "cli":
        return _cli(argv[1], argv[2:])
    from qlink.homfly import default_trace_params

    default_trace_params()
    print("ready", flush=True)
    if mode == "probe":
        return 0
    import json

    request = json.load(sys.stdin)
    result = _run(request["workload"], request["ops"], "--traced" in argv, "--check" in argv)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
