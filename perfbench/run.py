"""cstates benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload state-requests --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 --trace 0

One client sends each request after the previous one returned (closed loop),
in one process per workload.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` runs a fixed number of requests untraced and then traced, and
reports per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import os

# BLAS pools pinned to one thread before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5  # this process plus four fresh ones
CHILD_TIMEOUT_S = 170

WORKLOAD_NAMES = ("state-requests", "variance-near-jstar", "verify-suite")


def timed_setup(name: str, seed: int):
    """Import cstates, build the workload's tables and first inputs; (workload, seconds)."""
    t0 = time.perf_counter()
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, OUT_DIR)
    wl.setup()
    wl.block(0)
    return wl, time.perf_counter() - t0


def setup_samples(name: str, seed: int, first: float) -> list[float]:
    """Set-up seconds of this process and of SETUP_SAMPLES - 1 fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


class Outcome:
    """Per-request latencies of every pass, and the reasons of failed requests."""

    def __init__(self):
        self.latencies: dict[int, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0


def run_pass(wl, reqs, outcome: Outcome, tracer=None) -> tuple[float, int, float]:
    """Send each request after the previous returned; the oracle is not timed.

    Returns the seconds spent in requests, and the minor page faults and
    system seconds of the process during them.
    """
    busy, faults, system = 0.0, 0, 0.0
    for i, req in enumerate(reqs):
        if tracer is not None:
            tracer.request_id = i
        outcome.attempted += 1
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            result, failure = wl.send(req), None
        except Exception as exc:  # a raising request is a failed request
            result, failure = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        busy += dt
        faults += after.ru_minflt - before.ru_minflt
        system += after.ru_stime - before.ru_stime
        outcome.latencies.setdefault(i, []).append(dt)
        if failure is None:
            failure = wl.check(req, result)
        if failure is not None:
            outcome.failures.append(failure)
    return busy, faults, system


def end_to_end(wl, seconds: float, setup: list[float]) -> tuple[dict, Outcome, list[str]]:
    """Repeat passes over the run's fixed requests for `seconds`; a request's
    latency is the fastest of its repeats."""
    reqs = [r for b in range(wl.measure_blocks) for r in wl.block(b)]
    warm = Outcome()
    run_pass(wl, wl.block(0), warm)
    gc.collect()
    outcome = Outcome()
    start = time.perf_counter()
    costs = []
    while len(costs) < 2 or time.perf_counter() - start < seconds:
        costs.append(run_pass(wl, reqs, outcome))
    passes = len(costs)
    busy, faults, system = (sum(c) for c in zip(*costs))
    best = sorted(min(lat) for lat in outcome.latencies.values())
    outcome.failures += warm.failures
    outcome.attempted += warm.attempted
    n = len(best)
    p90 = statistics.quantiles(best, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_ops_s": (n / sum(best), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(best), "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    beyond = sum(1 for x in best if x > p90)
    notes = [
        f"{n} distinct requests x {passes} passes in {time.perf_counter() - start:.1f} s wall;"
        f" each request's latency is its fastest of {passes} repeats",
        f"setup_s: median of {len(setup)} set-ups {[round(x, 4) for x in setup]}",
        f"throughput_ops_s: requests / sum of their latencies"
        f" (all samples: {n * passes / busy:.4g} 1/s)",
        f"latency: {n} samples, {beyond} beyond p90"
        + ("" if n >= 100 else "; fewer than 100 distinct requests"),
        f"in requests: {system:.2f} system s of {busy:.2f} s, {faults / (n * passes):.0f} minor faults per request",
        f"fail_ratio: {len(outcome.failures)}/{outcome.attempted}"
        f" = {len(outcome.failures) / outcome.attempted:g}",
    ]
    return metrics, outcome, notes


def traced(wl, name: str, seed: int) -> tuple[dict, Outcome, list[str]]:
    """The same requests untraced, then traced; per-layer metrics and overhead."""
    from tracer import Tracer

    reqs = [r for b in range(wl.trace_blocks) for r in wl.block(b)]
    outcome = Outcome()
    run_pass(wl, wl.block(0), outcome)  # warm-up
    gc.collect()
    untraced_busy, faults, system = run_pass(wl, reqs, outcome)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced_busy, _, _ = run_pass(wl, reqs, outcome, tracer)
    finally:
        tracer.uninstall()
    rates = [len(reqs) / untraced_busy, len(reqs) / traced_busy]
    layers = tracer.layer_metrics()
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    metrics = {k: (v, "s" if k.endswith("_s") else "count") for k, v in layers.items()}
    metrics["weights.build.bytes_computed"] = (layers["weights.build.bytes_computed"], "B")
    metrics["weights.series.useful_ratio"] = (layers["weights.series.useful_ratio"], "ratio")
    metrics["process.minor_faults"] = (faults, "count")
    metrics["process.system_s"] = (system, "s")
    metrics["trace.untraced_ops_s"] = (rates[0], "1/s")
    metrics["trace.traced_ops_s"] = (rates[1], "1/s")
    metrics["trace.overhead_ops_s"] = (rates[0] - rates[1], "1/s")
    metrics["trace.self_coverage"] = (self_total / traced_busy, "ratio")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    span_file = OUT_DIR / f"spans-{name}-seed{seed}.csv"
    tracer.write_spans(span_file, origin)
    count = len(reqs)
    notes = [
        f"{count} requests untraced, then the same {count} traced; {len(tracer.spans)} spans in {span_file.name}",
        f"layer self times sum to {self_total:.4f} s of {traced_busy:.4f} s traced request time",
        f"tracing overhead: {rates[0]:.2f} -> {rates[1]:.2f} requests/s",
        f"untraced pass: {system:.2f} system s of {untraced_busy:.2f} s in requests, {faults} minor faults",
    ]
    return metrics, outcome, notes


def run_workload(args) -> int:
    wl, first = timed_setup(args.workload, args.seed)
    import mpmath
    import numpy

    print(f"# cstates benchmark | workload {args.workload} | seed {args.seed} | trace {args.trace}"
          f" | python {sys.version.split()[0]} | numpy {numpy.__version__} | mpmath {mpmath.__version__}"
          f" | cpu_count {os.cpu_count()} | BLAS threads 1 | closed loop, 1 client")
    if args.trace:
        metrics, outcome, notes = traced(wl, args.workload, args.seed)
    else:
        setup = setup_samples(args.workload, args.seed, first)
        metrics, outcome, notes = end_to_end(wl, args.seconds, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    for line in notes:
        print(f"# {line}")
    for reason in outcome.failures[:5]:
        print(f"# FAILED: {reason}")
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's report, then one summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 3)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload NAME and --all")
    if not (SRC / "cstates" / "__init__.py").is_file():
        print(f"error: no cstates sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        print(timed_setup(args.workload, args.seed)[1])
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
