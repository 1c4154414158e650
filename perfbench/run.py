#!/usr/bin/env python3
"""Benchmark harness for ehrpos.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; ehrpos is imported from its `src/`.  The
run builds the workload's operation list from the seed and executes whole
rounds of it, single-threaded: a further round starts while it is expected
to end within S seconds, or while fewer than MIN_OPS operations were
attempted.  Every output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json.  With --trace 1 untraced and traced rounds alternate and
the metrics are the per-layer ones, taken from the traced rounds, plus the
tracing overhead.  Full results and spans go to perfbench/out/.  The exit
status is 1 when a check fails or the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MIN_OPS = 100  # at least ten samples beyond the 90th percentile
SETUP_PROBES = 11

# Set-up in a fresh interpreter: import ehrpos and build the workload's
# inputs.  Interpreter start-up itself is left out; it is the noisiest part.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import ehrpos, ehrpos.cli, ehrpos.verify
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), workloads.Context(ehrpos, ""))
print(time.perf_counter() - t0)
"""


def load_package():
    if not (SRC / "ehrpos" / "__init__.py").is_file():
        raise SystemExit(f"error: no ehrpos sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import ehrpos
    import ehrpos.cli
    import ehrpos.verify

    if Path(ehrpos.__file__).resolve().parent != SRC / "ehrpos":
        raise SystemExit(f"error: imported ehrpos from {ehrpos.__file__}, not from {SRC}")
    return ehrpos


def setup_seconds(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(res.stdout.split()[-1]))
    return statistics.median(times)


def run_round(ops, ctx, tracer, log: dict) -> tuple[list[float], int]:
    """One pass over the operation list; returns the latencies of the
    operations that finished and the number that failed."""
    latencies, failed = [], 0
    ctx.stdout_bytes = 0
    gc.collect()
    for i, op in enumerate(ops):
        ctx.clear_caches()
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a failed operation is counted; the run goes on
            failed += 1
            log["failures"].append(f"{op.kind}: {exc!r}")
            continue
        latencies.append(time.perf_counter() - start)
        if tracer is None:
            log["by_kind"].setdefault(op.kind, []).append(latencies[-1])
        try:
            op.check(out)
        except checks.CheckFailed as exc:
            log["wrong"].append(f"{op.kind}: {exc}")
        except Exception as exc:  # a malformed output is a wrong output
            log["wrong"].append(f"{op.kind}: {exc!r}")
    return latencies, failed


def layer_metrics(tracer, ctx) -> dict[str, float]:
    self_s, calls = tracer.self_times()
    values: dict[str, float] = {f"{k}.self_s": v for k, v in self_s.items()}
    values.update({f"{k}.calls": v for k, v in calls.items()})
    values.update(tracer.counts)
    values["cli.stdout_bytes"] = ctx.stdout_bytes
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ehrpos = load_package()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="files-", dir=OUT)
    try:
        ctx = workloads.Context(ehrpos, workdir)
        ops = workloads.WORKLOADS[args.workload](args.seed, ctx)
        log: dict = {"failures": [], "wrong": [], "by_kind": {}}

        tracer = spans.Tracer(ehrpos) if args.trace else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        latencies: list[float] = []
        layers: list[dict[str, float]] = []
        round_spans = []
        attempted = failed = 0
        peak_rss_mib = None
        began = time.perf_counter()
        while True:
            round_began = time.perf_counter()
            traced = bool(args.trace) and len(walls[False]) > len(walls[True])
            if traced:
                tracer.reset()
                tracer.install()
            try:
                lat, nfail = run_round(ops, ctx, tracer if traced else None, log)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                layers.append(layer_metrics(tracer, ctx))
                round_spans.append(list(tracer.spans))
            else:
                latencies += lat
            if peak_rss_mib is None:
                # after one round, so that the figure does not depend on
                # how many rounds fit into the run
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            walls[traced].append(sum(lat))
            attempted += len(ops)
            failed += nfail
            now = time.perf_counter()
            if (
                now - began + (now - round_began) > args.seconds
                and attempted >= MIN_OPS
                and (not args.trace or walls[True])
            ):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(latencies) < 2:
        raise SystemExit(f"error: {failed} of {attempted} operations failed: {log['failures'][:3]}")
    if args.trace:
        values = {name: statistics.median_low(r.get(name, 0) for r in layers) for name in set().union(*layers)}
        values["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
            "setup_s": setup_s,
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    result = {"correct": not log["wrong"], "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "rounds": {"untraced": walls[False], "traced": walls[True]},
        "samples": len(latencies),
        "by_kind": {k: {"count": len(v), "median_ms": 1e3 * statistics.median(v)} for k, v in log["by_kind"].items()},
        "absent": tracer.absent if tracer else [],
        "failures": log["failures"][:20],
        "wrong": log["wrong"][:20],
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "rounds": round_spans}))
    for line in log["wrong"][:5] + log["failures"][:5]:
        print(line, file=sys.stderr)
    if tracer and tracer.absent:
        print("absent: " + ", ".join(tracer.absent), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
