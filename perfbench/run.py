"""qlink benchmark: one seeded workload, measured end to end or per layer.

    python3 perfbench/run.py --workload trace|sweep|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-digests

Run from the root of a checkout; qlink is imported from its `src/`.  Pass k
runs chunk k of the seed's op list, until S seconds have gone by.  Each pass
starts a fresh interpreter (trace, sweep) or one `qlink` process per op
(cli), because qlink's caches live for a whole process.  Load comes from one
caller, one op at a time.  With --trace 0 the last line of stdout is the
end-to-end result; with --trace 1 each chunk runs twice, without and with
spans, and it is the per-layer result.  Op times of `trace` and `sweep` are
scaled to a nominal host speed (hostspeed.py).  A summary goes to stderr and one JSON
line per op run to .perfbench-out/.  --record-digests rewrites
perfbench/digests.json, the expected outputs for the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench-out"

PROBES_PER_PASS = 2
CLI_OPS_PER_START = 4  # the start-up reference needs some 30 samples a run to follow cli ops
MIN_PROBES = 9
RECORDED_CHUNKS = {"trace": 16, "sweep": 12, "cli": 8}  # of the default seed, in digests.json
CLI_ENTRY = "import sys; from qlink.cli import main; sys.exit(main())"  # the `qlink` script
CLI_EXIT_CODES = (0, 2, 3, 4)
SUBCOMMANDS = ("qrat", "inv", "sweep", "table")



def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def probe(env: dict) -> float:
    """Seconds from spawning an interpreter until qlink is imported and the
    default trace parameters are calibrated."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(WORKER), "probe"], env=env,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    if proc.returncode or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def worker_pass(workload: str, ops: list[dict], env: dict, traced: bool, check: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "run"] + ["--traced"] * traced + ["--check"] * check
    with subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        ready = proc.stdout.readline()
        out, _ = proc.communicate(json.dumps({"workload": workload, "ops": ops}))
    if proc.returncode or ready.strip() != "ready":
        raise RuntimeError(f"{workload} worker failed with exit code {proc.returncode}")
    return json.loads(out)


def cli_pass(ops: list[dict], env: dict, traced: bool, work: Path) -> dict:
    """Each op is one `qlink` process, timed from spawn to exit.  A reference
    start-up (hostspeed.py) runs after every CLI_OPS_PER_START ops."""
    paths = {"{out}": work / "sweep.csv", "{csv}": work / "table.csv",
             "{missing}": work / "missing" / "sweep.csv"}
    stats_path = work / "stats.json"
    result = {"raw_times": [], "outputs": [], "errors": [], "oracle_bad": [], "rss_kb": 0,
              "stats": [], "starts": []}
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        for op in ops:
            if op["csv"] is not None:
                paths["{csv}"].write_text(op["csv"])
            paths["{out}"].unlink(missing_ok=True)
            stats_path.unlink(missing_ok=True)
            args = [str(paths.get(a, a)) for a in op["argv"]]
            if traced:
                cmd = [sys.executable, str(WORKER), "cli", str(stats_path), *args]
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY, *args]
            for fh in (out, err):
                fh.seek(0)
                fh.truncate()
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, cmd, env, file_actions=[
                (os.POSIX_SPAWN_DUP2, out.fileno(), 1), (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
            _, status, usage = os.wait4(pid, 0)
            result["raw_times"].append(time.perf_counter() - t0)
            code = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(errors="replace"), err.read().decode(errors="replace")
            written = paths["{out}"].read_text() if paths["{out}"].exists() else ""
            error = None
            if "Traceback" in stderr:
                error = f"exit code {code}, traceback: {stderr.strip().splitlines()[-1]}"
            elif code not in CLI_EXIT_CODES:
                error = f"exit code {code}"
            result["outputs"].append(digest(f"exit {code}\n{stdout}\n--- {op['argv'][0]} file\n{written}"))
            result["errors"].append(error)
            result["rss_kb"] = max(result["rss_kb"], usage.ru_maxrss)
            if traced:
                result["stats"].append(json.loads(stats_path.read_text()) if stats_path.exists() else None)
            if len(result["raw_times"]) % CLI_OPS_PER_START == 0:
                result["starts"].append(hostspeed.start_s(env))
    return result


def run_pass(workload: str, ops: list[dict], env: dict, traced: bool, work: Path) -> dict:
    if workload == "cli":
        p = cli_pass(ops, env, traced, work)
    else:
        p = worker_pass(workload, ops, env, traced, check=not traced)
    p["ops"], p["traced"] = ops, traced
    return p


def run_passes(workload: str, seed: int, seconds: float, trace: bool, env: dict,
               work: Path) -> tuple[list[dict], list[float], float]:
    """Pass k runs chunk k of the seed's op list, until `seconds` have gone
    by.  With `trace`, each chunk runs twice, without and with spans.  Set-up
    probes, each followed by a reference start-up, are spread between the
    passes so that a burst of machine noise hits few of them.  Returns the
    passes with their op times scaled, the scaled set-up times and the
    start-up speed of the run relative to nominal."""
    passes, setups, starts = [], [], []

    def probe_pair() -> None:
        setups.append(probe(env))
        starts.append(hostspeed.start_s(env))

    start = time.perf_counter()
    probe(env)  # not timed: the first import in a checkout compiles the bytecode
    chunk = 0
    while not passes or time.perf_counter() - start < seconds:
        for _ in range(PROBES_PER_PASS):
            probe_pair()
        ops = workloads.OPS[workload](seed, chunk)
        for traced in (False, True)[: 1 + trace]:
            passes.append(run_pass(workload, ops, env, traced, work))
        chunk += 1
    while len(setups) < MIN_PROBES:
        probe_pair()
    starts += [t for p in passes for t in p.get("starts", [])]
    start_speed = hostspeed.NOMINAL_START_S / statistics.median(starts)
    for p in passes:
        if workload == "cli":
            p["factors"] = [start_speed] * len(p["ops"])
        p["times"] = [t * f for t, f in zip(p["raw_times"], p["factors"])]
        p["total_s"] = sum(p["times"])
    return passes, [t * start_speed for t in setups], start_speed


def op_runs(passes: list[dict]):
    """(pass index, op index, op) for every op run."""
    return [(k, i, op) for k, p in enumerate(passes) for i, op in enumerate(p["ops"])]


def verify(workload: str, passes: list[dict]) -> tuple[list[str], set]:
    """Problems found, and the (pass index, op index) pairs that failed.

    An op fails if it raised, exited with an undocumented code or printed a
    traceback, or if its output differs from the digest recorded for it, from
    its output in another pass or from the R-matrix oracle.  A difference is
    also a problem: the run is then not correct.
    """
    expected = json.loads(DIGESTS.read_text()).get(workload, {}) if DIGESTS.exists() else {}
    failed = {(k, i) for k, i, _ in op_runs(passes) if passes[k]["errors"][i] is not None}
    by_key = defaultdict(list)
    for k, i, op in op_runs(passes):
        by_key[op["key"]].append((k, i))
    problems = []
    for key, runs in by_key.items():
        want = expected.get(digest(key))
        outputs = {passes[k]["outputs"][i] for k, i in runs}
        if want is not None and outputs != {want}:
            problems.append(f"{key[:70]}: output differs from the recorded digest")
        elif len(outputs) > 1:
            problems.append(f"{key[:70]}: output differs between passes")
        else:
            continue
        failed.update(runs)
    for k, p in enumerate(passes):
        for i in p["oracle_bad"]:
            problems.append(f"{p['ops'][i]['key'][:70]}: homfly at a = q^2 differs from rt_invariant(w, 2)")
            failed.add((k, i))
    return problems, failed


def rate(passes: list[dict]) -> float:
    """Ops per second of timed op time, over all the given passes."""
    return sum(len(p["ops"]) for p in passes) / sum(p["total_s"] for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    samples = [t * 1e3 for p in passes for t in p["times"]]
    return {
        "ops_per_s": rate(passes),
        "op_p50_ms": statistics.median(samples),
        "op_p90_ms": statistics.quantiles(samples, n=10)[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def _merge(snapshots: list[dict]) -> dict:
    """Span totals of several processes (the ops of one cli pass)."""
    total = {"calls": defaultdict(int), "self_s": defaultdict(float), "nontrivial": defaultdict(int),
             "cache": defaultdict(lambda: [0, 0]), "peak_terms": 0, "basis_entries": 0}
    for snap in snapshots:
        for key in ("calls", "self_s", "nontrivial"):
            for name, value in snap[key].items():
                total[key][name] += value
        for name, (hits, misses) in snap["cache"].items():
            total["cache"][name][0] += hits
            total["cache"][name][1] += misses
        total["peak_terms"] = max(total["peak_terms"], snap["peak_terms"])
        total["basis_entries"] = max(total["basis_entries"], snap["basis_entries"])
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _pass_layers(p: dict) -> dict:
    """Per-layer values of one traced pass."""
    ops = p["ops"]
    per_op = p["stats"] if isinstance(p["stats"], list) else []  # cli: one snapshot per process
    stats = _merge([s for s in per_op if s]) if per_op else p["stats"]
    calls, self_s = stats["calls"], stats["self_s"]
    out = {}
    for name in tracer.LAYERS:
        if name != "homfly.homfly":
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in tracer.GCDS:
        out[f"{name}.nontrivial_frac"] = _ratio(stats["nontrivial"].get(name, 0), calls.get(name, 0))
    for name in tracer.CACHED:
        hits, misses = stats["cache"].get(name, (0, 0))
        out[f"{name}.hit_frac"] = _ratio(hits, hits + misses)
    out["homfly.hecke.peak_terms"] = stats["peak_terms"]
    out["homfly.basis_cache.entries"] = stats["basis_entries"]
    out["homfly.calls_per_op"] = calls.get("homfly.homfly", 0) / len(ops)
    imports = [s["import_s"] for s in per_op if s]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    tables = [(op, s) for op, s in zip(ops, per_op) if op["props"].get("subcommand") == "table" and s]
    out["cli.table.homfly_per_entry"] = _ratio(sum(s["calls"].get("homfly.homfly", 0) for _, s in tables),
                                               sum(op["props"]["entries"] for op, _ in tables))
    return out


def per_layer(passes: list[dict]) -> dict:
    """Medians over the traced passes; wall times per subcommand and the
    untraced side of the tracing overhead come from the untraced passes,
    which ran the same chunks."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    values = [_pass_layers(p) for p in traced]
    metrics = {name: statistics.median(v[name] for v in values) for name in values[0]}
    for sub in SUBCOMMANDS:
        times = [p["times"][i] * 1e3 for p in plain for i, op in enumerate(p["ops"])
                 if op["props"].get("subcommand") == sub]
        metrics[f"cli.{sub}.p50_ms"] = statistics.median(times) if times else 0.0
    metrics["tracing.untraced_ops_per_s"] = rate(plain)
    metrics["tracing.traced_ops_per_s"] = rate(traced)
    metrics["tracing.slowdown"] = rate(plain) / rate(traced)
    return metrics


def stamp(args: argparse.Namespace) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() if proc.returncode == 0 else None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def breakdown(passes: list[dict]) -> list[str]:
    """p50 and share of time per value of the property that drives the
    workload's cost."""
    runs = [(op["props"], p["times"][i] * 1e3) for p in passes for i, op in enumerate(p["ops"])]
    key = next(k for k in ("subcommand", "cf_length", "strands") if k in runs[0][0])
    groups = defaultdict(list)
    for props, ms in runs:
        groups[props[key]].append(ms)
    total = sum(ms for _, ms in runs)
    return [f"  {key}={k}: p50 {statistics.median(v):.2f} ms, {sum(v) / total:.0%} of the time, "
            f"{len(v)} samples" for k, v in sorted(groups.items())]


def write_records(path: Path, info: dict, passes: list[dict], failed: set) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"stamp": info}) + "\n")
        for k, i, op in op_runs(passes):
            p = passes[k]
            fh.write(json.dumps({"pass": k, "traced": p["traced"], "key": op["key"], "props": op["props"],
                                 "ms": round(p["times"][i] * 1e3, 3),
                                 "wall_ms": round(p["raw_times"][i] * 1e3, 3), "failed": (k, i) in failed,
                                 "error": p["errors"][i]}) + "\n")


def record_digests(env: dict, work: Path) -> None:
    recorded = {}
    for workload, chunks in RECORDED_CHUNKS.items():
        passes = [run_pass(workload, workloads.OPS[workload](workloads.DEFAULT_SEED, c), env, False, work)
                  for c in range(chunks)]
        bad = [p["ops"][i]["key"] for p in passes for i in p["oracle_bad"]]
        if bad:
            raise RuntimeError(f"{workload}: homfly differs from the R-matrix oracle on {bad}")
        recorded[workload] = {digest(op["key"]): p["outputs"][i] for p in passes
                              for i, op in enumerate(p["ops"]) if p["errors"][i] is None}
        print(f"{workload}: {len(recorded[workload])} ops recorded", file=sys.stderr)
    DIGESTS.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.OPS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "qlink" / "__init__.py").is_file():
        print(f"perfbench: no qlink sources at {SRC}; run from the root of a qlink checkout",
              file=sys.stderr)
        return 2
    # children cache bytecode, as an installed package has it, whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.record_digests:
            record_digests(env, work)
            return 0
        passes, setups, start_speed = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                                 env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems, failed = verify(args.workload, passes)
    info = stamp(args)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_records(OUT_DIR / f"{name}.jsonl", info, passes, failed)
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["ops"]) for p in passes)
    e2e = end_to_end(plain, setups)

    log = [f"perfbench {name}: {len(plain)} chunks of {len(plain[0]['ops'])} ops"
           f"{', each also traced' if args.trace else ''}; {len(setups)} set-up probes",
           f"  stamp {json.dumps(info)}"]
    log += [f"  {k:12s} {v:12.4f} {units[k]}" for k, v in e2e.items()]
    wall = [t for p in plain for t in p["raw_times"]]
    speeds = f"start-up speed {start_speed:.3f} of nominal"
    if args.workload != "cli":
        speeds = f"host speed {statistics.median(f for p in plain for f in p['factors']):.3f}, " + speeds
    log.append(f"  {speeds}; unscaled {len(wall) / sum(wall):.4f} ops/s, p50 {statistics.median(wall) * 1e3:.4f} ms")
    log.append(f"  {'failed_frac':12s} {len(failed) / attempted:12.4f} ({len(failed)} of {attempted} ops)")
    log += breakdown(plain)
    log += [f"  problem: {p}" for p in problems]
    log += [f"  failed op: {e}" for e in sorted({e for p in passes for e in p["errors"] if e})]
    values = e2e
    if args.trace:
        values = per_layer(passes)
        log += [f"  {k:34s} {v:14.6g} {units[k]}" for k, v in values.items()]
    print("\n".join(log), file=sys.stderr)
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(declared):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(declared)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in declared}
    print(json.dumps({"stamp": info}))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
