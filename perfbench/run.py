#!/usr/bin/env python3
"""Layered host-time benchmark of neurobench.

    python3 perfbench/run.py --workload surface|cli_oneshot|perturbed_sweep \\
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's `src/`. One client runs operations in a closed loop for S seconds
and every operation's output is checked (see workloads.py). With `--trace 0`
the last stdout line is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced phase that follows an
untraced one. Every time is host time scaled to a reference host speed
(see calibration.py). Exits 2 without a result when the program or its golden file
is missing, and 1 when an operation failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden" / "golden.json"
HERE = ROOT / "perfbench"
RUN_ROOT = HERE / ".run"
WARMUP_OPS = 2
PROBES = 7  # fresh interpreters per set-up or import figure; the median is reported
MAX_LOGGED = 5

# Probes print seconds at the reference host speed (see calibration.py).
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import calibration
scale = calibration.scale()
t0 = time.perf_counter()
import neurobench
neurobench.load_datasets(sys.argv[2])
print((time.perf_counter() - t0) * scale)
"""
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import calibration
scale = calibration.scale()
t0 = time.perf_counter()
import neurobench.cli
print((time.perf_counter() - t0) * scale)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("NEUROBENCH_DATA_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def median_probe(env: dict, code: str, *args: str) -> float:
    """Median of a figure each fresh interpreter prints, after one untimed warm-up."""
    values = []
    for _ in range(PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(HERE), *args], cwd=ROOT, env=env, capture_output=True, text=True, check=True
        )
        values.append(float(proc.stdout))
    return statistics.median(values[1:])


def interp_start_s(env: dict) -> float:
    values = []
    for _ in range(PROBES + 1):
        scale = calibration.scale()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=env, check=True)
        values.append((time.perf_counter() - t0) * scale)
    return statistics.median(values[1:])


class Loop:
    """Closed loop of one client; counts every operation and its failures."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, tracer=None, min_ops: int = 1) -> list[tuple[float, float]]:
        """(host seconds, host-speed scale timed right after) per operation."""
        samples = []
        deadline = time.perf_counter() + seconds
        while len(samples) < min_ops or time.perf_counter() < deadline:
            i = self.next_op
            self.next_op += 1
            if tracer is not None:
                tracer.op = i
            t0, t1 = time.perf_counter(), None
            try:
                out = self.workload.op(i)
                t1 = time.perf_counter()
                errors = self.workload.check(i, out)
            except Exception:  # an operation that raises is a failed operation
                if t1 is None:
                    t1 = time.perf_counter()
                errors = [traceback.format_exc(limit=4)]
            samples.append((t1 - t0, calibration.scale()))
            self.attempted += 1
            if errors:
                if self.failed < MAX_LOGGED:
                    print(f"operation {i} failed: " + "; ".join(errors[:3]), file=sys.stderr)
                self.failed += 1
        return samples


def latency_summary(samples: list[tuple[float, float]]) -> tuple[float, float, float]:
    """p50 and p90 latency in ms, and operations per second of operation time,
    all at the reference host speed."""
    ms = [t * scale * 1e3 for t, scale in samples]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90, 1e3 * len(ms) / sum(ms)


def traced_metrics(workload_name: str, ctx, loop: Loop, seconds: float) -> dict:
    import tracing

    untraced = loop.run(seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    ctx.tracer = tracer
    try:
        traced = loop.run(seconds / 2, tracer=tracer)
    finally:
        ctx.tracer = None
        tracer.restore()
    tracer.dump(RUN_ROOT / f"trace-{workload_name}.json")

    n = len(traced)
    scale = statistics.median(s for _, s in traced)
    totals = tracer.layer_totals()
    metrics = {}
    for short, names in tracing.LAYERS.items():
        for fn_name in names:
            name = f"{short}.{fn_name}"
            calls, self_ns = totals.get(name, (0, 0))
            metrics[f"{name}.calls"] = (calls / n, "calls/op")
            metrics[f"{name}.self_ms"] = (self_ns * scale / 1e6 / n, "ms/op")
    row_calls = totals.get(tracing.ROW_LAYER, (0, 0))[0]
    metrics["report.element_row_reuse"] = (tracer.distinct_rows() / row_calls if row_calls else 0.0, "ratio")
    metrics["interp.start_ms"] = (interp_start_s(ctx.env) * 1e3, "ms")
    metrics["import.ms"] = (median_probe(ctx.env, IMPORT_PROBE) * 1e3, "ms")
    metrics["trace.overhead_frac"] = (latency_summary(traced)[0] / latency_summary(untraced)[0] - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["surface", "cli_oneshot", "perturbed_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "neurobench" / "__init__.py").is_file() or not GOLDEN.is_file():
        print(f"error: {SRC / 'neurobench'} or {GOLDEN} is missing; run inside a neurobench checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("NEUROBENCH_DATA_DIR", None)
    import neurobench

    if Path(neurobench.__file__).resolve().parent != (SRC / "neurobench").resolve():
        print(f"error: imported neurobench from {neurobench.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    run_dir = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        ctx = workloads.Context(
            root=ROOT,
            data_dir=SRC / "neurobench" / "data",
            golden=json.loads(GOLDEN.read_text(encoding="utf-8")),
            seed=args.seed,
            run_dir=run_dir,
            env=child_env(),
            python=sys.executable,
        )
        workload = workloads.WORKLOADS[args.workload](ctx)
        loop = Loop(workload)
        loop.run(0.0, min_ops=WARMUP_OPS)
        if args.trace:
            metrics = traced_metrics(args.workload, ctx, loop, args.seconds)
        else:
            setup_s = median_probe(ctx.env, SETUP_PROBE, str(workload.first_dataset))
            samples = loop.run(args.seconds)
            p50, p90, ops_per_s = latency_summary(samples)
            metrics = {
                "op_p50_ms": (p50, "ms"),
                "op_p90_ms": (p90, "ms"),
                "ops_per_s": (ops_per_s, "1/s"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
            }
            raw_p50 = statistics.median(t for t, _ in samples) * 1e3
            host_scale = statistics.median(s for _, s in samples)
            print(
                f"{args.workload}: {len(samples)} timed operations, closed loop, one client; "
                f"unscaled op_p50_ms={raw_p50:.4f}, median host-speed scale {host_scale:.4f}",
                file=sys.stderr,
            )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
