"""Benchmark of cldp's Monte Carlo verification pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run sets up the workload, repeats whole rounds of its
operations until ``--seconds`` have passed, checks the first round's outputs
against the reference computations (and every later round against the first),
and prints one JSON object as the last line of standard output.

``--trace 0`` reports the end-to-end metrics: wall and CPU time of one round
(medians over the run's rounds), peak resident memory, and set-up time (median
of several fresh interpreters importing, configuring and warming up).
``--trace 1`` reports the per-layer metrics from traced rounds, with the
tracing overhead.  ``failed`` counts the operations the program itself reports
as failed (a suite exiting nonzero); a failed check makes ``correct`` false
instead.  A run record goes to ``perfbench/out/``.  Exit status is 0
when every check passes, 1 when a check fails and 2 when the program cannot be
found or run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "simdata.sample_s": "s",
    "channels.release_s": "s",
    "channels.kernel_eval_s": "s",
    "channels.laplace_draws": "count",
    "harness.oracle_s": "s",
    "harness.oracle_draws": "count",
    "adaptive.select_s": "s",
    "adaptive.select_pairs": "count",
    "estimators.estimate_s": "s",
    "harness.replication_s": "s",
    "harness.overhead_s": "s",
    "harness.pool_overhead_s": "s",
    "channels.audit_s": "s",
    "channels.audit_multi_level_s": "s",
    "contraction.verify_s": "s",
    "measures.pushforward_s": "s",
    "effective_privacy.leakage_s": "s",
    "lowerbounds.verify_s": "s",
    "bench.trace_overhead_s": "s",
}


def _load_program():
    """Import cldp from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "cldp", "__init__.py")):
        print(f"error: program source not found at {SRC}/cldp", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import cldp

    if os.path.dirname(os.path.dirname(os.path.abspath(cldp.__file__))) != SRC:
        print(f"error: imported cldp from {cldp.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)  # pool workers, once joined
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest joined child (KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import, configure and warm up."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def _rounds(wl, seconds: float, run_round, tracer=None):
    """Whole rounds until ``seconds`` have passed; returns first output, walls, cpus."""
    walls, cpus, first, mismatches = [], [], None, 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.round = len(walls)
        c0, t0 = _cpu_seconds(), time.perf_counter()
        out = run_round()
        t1, c1 = time.perf_counter(), _cpu_seconds()
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        if first is None:
            first, first_digest = out, wl.digest(out)
        elif wl.digest(out) != first_digest:
            mismatches += 1
        del out
        if t1 >= deadline:
            return first, walls, cpus, mismatches


def _timed(wl, args, record):
    first, walls, cpus, mismatches = _rounds(wl, args.seconds, wl.run_round)
    peak = _peak_rss_mb()
    record.update(round_walls=walls, round_cpus=cpus)
    failures, margins = wl.check(first)
    setups = _setup_seconds(args)
    record["setup_samples"] = setups
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": peak,
    }
    return metrics, len(walls), mismatches, failures, margins, END_TO_END_UNITS, first


def _traced(wl, args, record):
    """Untraced rounds, then as long again traced rounds of the same work."""
    from tracing import Tracer

    _, plain_walls, _, _ = _rounds(wl, args.seconds, wl.run_round)
    plain = statistics.median(plain_walls)
    extras = wl.trace_extras(plain)
    with Tracer() as tracer:
        first, walls, _, mismatches = _rounds(wl, args.seconds, lambda: wl.run_round(tracer), tracer)
    failures, margins = wl.check(first)
    per_round = [tracer.layer_totals(r) for r in range(len(walls))]
    metrics = {}
    for key, unit in PER_LAYER_UNITS.items():
        values = [row.get(key, 0.0) for row in per_round]
        metrics[key] = statistics.median_low(values) if unit == "count" else statistics.median(values)
    metrics.update(extras)  # differences of untraced rounds; 0 where the workload has none
    metrics["bench.trace_overhead_s"] = statistics.median(walls) - plain
    record.update(untraced_round_walls=plain_walls, traced_round_walls=walls)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.jsonl"))
    return metrics, len(walls), mismatches, failures, margins, PER_LAYER_UNITS, first


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    workloads = _load_program()
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    if args.setup_only:
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    measure = _traced if args.trace else _timed
    metrics, rounds, mismatches, failures, margins, units, first = measure(wl, args, record)
    if mismatches:
        failures.append(f"{mismatches} of {rounds - 1} repeated rounds differ from the first")
    for msg in failures:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": rounds * wl.ops_per_round,
        "failed": rounds * wl.failed_ops(first),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record.update(result=result, rounds=rounds, margins=margins, failures=failures,
                  machine={"python": platform.python_version(), "platform": platform.platform(),
                           "nproc": os.cpu_count()})
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print(json.dumps(margins, default=str), file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
