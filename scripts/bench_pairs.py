#!/usr/bin/env python3
"""Benchmark a change against its parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_N.json \\
        --workload perturbed_sweep:12 --workload surface:6 --workload cli_oneshot:8 \\
        [--seconds 10] [--seed 1101] [--claim perturbed_sweep:op_p50_ms] \\
        [--trace perturbed_sweep] [--trace-seconds 15] [--change "what changed"]

Run it from the repository root. It extracts `git archive REV` into a
temporary directory and runs `perfbench/run.py --trace 0` there (the parent)
and in the working tree (the change), one run per side per seed. Seeds count
up from `--seed`; the parent runs first on odd seeds and the change first on
even ones. `--workload W:N` asks for N pairs of W (10 without `:N`).

For each workload and each end-to-end metric of BENCHMARK.json the output
gives each side's median, quartiles (statistics.quantiles, n=4) and runs in
seed order, the pairs the change won, the parent's interquartile range, the
relative change of the median and whether that change is within the
metric's bound. The notes name every median that is worse than the
parent's, within its bound or not, with the pairs the change won. With
`--claim W:METRIC`, `claim.claim_met` says whether the change won at least
nine tenths of the pairs (a tie counts for neither side) and its median
beat the parent's by more than the parent's interquartile range; when that
range exceeds a tenth of the parent's median, a note advises a re-run, as
the host may be in a bimodal phase (CHANGES.md has a FOUND on
`perturbed_sweep` runs that are bimodal for minutes at a time). `host`
records PYTHONDONTWRITEBYTECODE and whether each side has bytecode cached
in src/neurobench/__pycache__, since both move `import.ms` and `setup_s`.
`--trace W` adds TRACED_PAIRS `--trace 1` runs per side of W, on the seeds
after the last pair, alternating which side runs first as the pairs do; the
median of each per-layer figure goes under `per_layer_trace`. Progress goes
to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_PAIRS = 3  # traced runs per side of each --trace workload; one run can hide or invent a per-layer change
WIDE_IQR = 0.1  # a parent interquartile range above this share of its median reads as a bimodal host


def extract(rev: str, dest: Path) -> str:
    """Write `git archive rev` into dest; return the abbreviated commit."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        raise SystemExit(f"error: git archive {rev} failed")
    return subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result line of one perfbench run in `checkout`."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # run.py imports the checkout's own src/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: {checkout}: {workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_order(seed: int) -> tuple[str, ...]:
    """The sides in the order they run at `seed`: the parent first on odd seeds, the change on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def median_figures(runs: list[dict]) -> dict:
    """The median of each metric over `runs`, each the `metrics` of one result line, rounded to 4 places."""
    return {m: round(statistics.median(run[m]["value"] for run in runs), 4) for m in runs[0]}


def quartiles(runs: list[float]) -> tuple[float, float, float]:
    return tuple(statistics.quantiles(runs, n=4)) if len(runs) > 1 else (runs[0],) * 3


def is_worse(parent: float, change: float, better: str) -> bool:
    return change > parent if better == "lower" else change < parent


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs in which the change is better; a tie counts for neither side."""
    lower = better == "lower"
    return sum((c < p) if lower else (c > p) for p, c in zip(parent, change))


def claim_met(parent: list[float], change: list[float], better: str) -> bool:
    """A gain holds when the change wins at least nine tenths of all pairs and
    its median beats the parent's by more than the parent's interquartile range."""
    (p_q1, p_median, p_q3), (_, c_median, _) = quartiles(parent), quartiles(change)
    gap = p_median - c_median if better == "lower" else c_median - p_median
    return 10 * change_wins(parent, change, better) >= 9 * len(parent) and gap > p_q3 - p_q1


def spread_note(workload: str, metric: str, parent: list[float]) -> str | None:
    """A note advising a re-run when the parent's interquartile range exceeds WIDE_IQR of its median."""
    q1, median, q3 = quartiles(parent)
    if q3 - q1 <= WIDE_IQR * abs(median):
        return None
    return (
        f"{metric} on {workload}: the parent's IQR is {(q3 - q1) / abs(median):.0%} of its median, above "
        f"{WIDE_IQR:.0%}. The host may be in a bimodal phase (see the FOUND in CHANGES.md on perturbed_sweep "
        "runs that are bimodal for minutes at a time); re-run the pairs before reading the claim."
    )


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    lower = better == "lower"
    wins = change_wins(parent, change, better)
    (p_q1, p_median, p_q3), (c_q1, c_median, c_q3) = quartiles(parent), quartiles(change)
    limit = p_median * (1 + bound) if lower else p_median * (1 - bound)
    return {
        "parent": {"median": round(p_median, 4), "q1": round(p_q1, 4), "q3": round(p_q3, 4),
                   "runs": [round(v, 4) for v in parent]},
        "change": {"median": round(c_median, 4), "q1": round(c_q1, 4), "q3": round(c_q3, 4),
                   "runs": [round(v, 4) for v in change]},
        "change_wins": f"{wins}/{len(parent)}",
        "parent_iqr": round(p_q3 - p_q1, 4),
        "median_change_rel": round(c_median / p_median - 1.0, 4),
        "within_bound": c_median <= limit if lower else c_median >= limit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workload", action="append", required=True, metavar="W:N")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim", default=None, metavar="W:METRIC")
    parser.add_argument("--trace", action="append", default=[], metavar="W")
    parser.add_argument("--trace-seconds", type=float, default=15.0)
    parser.add_argument("--change", default="", help="one line saying what the change does")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    plan = []
    for item in args.workload:
        name, _, pairs = item.partition(":")
        plan.append((name, int(pairs or 10)))

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        parent_dir = Path(tmp)
        result = {"change": args.change, "parent_commit": extract(args.parent, parent_dir)}
        checkouts = {"parent": parent_dir, "change": ROOT}
        result["host"] = (
            f"{platform.system()} {platform.machine()}, nproc = {os.cpu_count()}, "
            f"Python {platform.python_version()}; "
            "times scaled to the reference host speed by perfbench/calibration.py; "
            f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}; "
            + ", ".join(
                f"{side} src/neurobench/__pycache__ "
                + ("exists" if (checkouts[side] / "src" / "neurobench" / "__pycache__").is_dir() else "absent")
                for side in SIDES
            )
        )
        seed = args.seed
        seeds_text = []
        workloads = {}
        runs = {}
        for name, pairs in plan:
            seeds = list(range(seed, seed + pairs))
            seed += pairs
            seeds_text.append(f"{name} seeds {seeds[0]}-{seeds[-1]} ({pairs} pairs)")
            lines = {side: [] for side in SIDES}
            for s in seeds:
                for side in run_order(s):
                    line = run(checkouts[side], name, s, args.seconds, 0)
                    lines[side].append(line)
                    p50 = line["metrics"]["op_p50_ms"]["value"]
                    print(f"{name} seed {s} {side}: op_p50_ms {p50:.4f}, failed {line['failed']}", file=sys.stderr)
            runs[name] = lines
            workloads[name] = {
                "seeds": seeds,
                "failed": {side: sum(line["failed"] for line in lines[side]) for side in SIDES},
                "attempted": {side: sum(line["attempted"] for line in lines[side]) for side in SIDES},
                "correct": all(line["correct"] for side in SIDES for line in lines[side]),
                "end_to_end": {
                    m: compare(
                        *([line["metrics"][m]["value"] for line in lines[side]] for side in SIDES),
                        spec["better"], spec["bound"],
                    )
                    for m, spec in metrics.items()
                },
            }
        traces = {}
        trace_seeds = range(seed, seed + TRACED_PAIRS)
        for name in args.trace:
            traced = {side: [] for side in SIDES}
            for s in trace_seeds:
                for side in run_order(s):
                    traced[side].append(run(checkouts[side], name, s, args.trace_seconds, 1)["metrics"])
                print(f"{name} traced at seed {s}", file=sys.stderr)
            medians = {side: median_figures(traced[side]) for side in SIDES}
            traces[name] = {m: {side: medians[side][m] for side in SIDES} for m in medians["parent"]}

    result["method"] = (
        f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0 in an archive of the "
        "parent commit and in the working tree with this change, one run per side per seed, parent first on odd "
        f"seeds and change first on even seeds (scripts/bench_pairs.py). {'; '.join(seeds_text)}. "
        + (f"Per-layer figures are the medians of {TRACED_PAIRS} --trace 1 runs of {args.trace_seconds:g} s per side "
           f"at seeds {seed}-{seed + TRACED_PAIRS - 1}, in the same alternating order. " if args.trace else "")
        + "Each entry gives each side's median and quartiles (statistics.quantiles, n=4), its runs in seed order, "
        "the pairs the change won, the parent's interquartile range, the relative change of the median and "
        "whether it is within the bound of BENCHMARK.json."
    )
    notes = []
    if args.claim:
        name, _, metric = args.claim.partition(":")
        parent, change = ([line["metrics"][metric]["value"] for line in runs[name][side]] for side in SIDES)
        met = claim_met(parent, change, metrics[metric]["better"])
        result["claim"] = {"workload": name, "metric": metric, "claim_met": met}
        entry = workloads[name]["end_to_end"][metric]
        notes.append(
            f"{metric} on {name}: the change is better in {entry['change_wins']} pairs; medians "
            f"{entry['parent']['median']} -> {entry['change']['median']} ({entry['median_change_rel']:+.1%}), "
            f"parent IQR {entry['parent_iqr']}; claim {'met' if met else 'not met'}."
        )
        wide = spread_note(name, metric, parent)
        if wide:
            notes.append(wide)
    result["workloads"] = workloads
    if traces:
        result["per_layer_trace"] = traces
    outside = [f"{w} {m}" for w, e in workloads.items() for m, v in e["end_to_end"].items() if not v["within_bound"]]
    notes.append("Every end-to-end median is within its bound." if not outside
                 else "Outside the bound: " + ", ".join(outside) + ".")
    worse = [
        f"{w} {m} {v['median_change_rel']:+.1%} (change better in {v['change_wins']} pairs)"
        for w, e in workloads.items()
        for m, v in e["end_to_end"].items()
        if is_worse(v["parent"]["median"], v["change"]["median"], metrics[m]["better"])
    ]
    notes.append("No end-to-end median is worse than the parent's." if not worse
                 else "Medians worse than the parent's: " + ", ".join(worse) + ".")
    result["notes"] = notes
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
