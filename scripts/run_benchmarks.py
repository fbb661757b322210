#!/usr/bin/env python3
"""Regenerate the headline result set into an output directory.

Produces the full element matrix, per-workload benchmarks for every
technology, the tops-down chip table, energy-delay scatter datasets with
their Pareto fronts, and the speech-workload comparison against published
measurements.

    python3 scripts/run_benchmarks.py [--out results]
"""

import argparse
import json
from pathlib import Path

from neurobench import load_datasets, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    registry = load_datasets()

    (args.out / "element_matrix.csv").write_text(report.emit_matrix(registry, "elements"))
    for name in sorted(registry.workloads):
        text = report.emit_matrix(registry, "workload", workload=name)
        (args.out / f"workload_{name}.csv").write_text(text)
    (args.out / "chips_topsdown.csv").write_text(report.emit_matrix(registry, "chips"))

    for what in ("synapse", "neuron"):
        points = report.scatter_dataset(registry, what)
        (args.out / f"scatter_{what}.csv").write_text(report.emit_scatter(points))
        front = report.pareto_front(points)
        (args.out / f"pareto_{what}.csv").write_text(report.emit_scatter(front))

    comparison = report.speech_comparison(registry)
    (args.out / "speech_comparison.json").write_text(json.dumps(comparison, indent=1, sort_keys=True) + "\n")

    kinds = {tech.network_kind for tech in registry.technologies.values()}
    ordering = {k: report.geometric_mean_neuron_delay(registry, k) for k in ("ANN", "ONN", "CNN", "SNN") if k in kinds}
    print("geometric-mean neuron delay (ps):", {k: round(v, 1) for k, v in ordering.items()})
    print(f"wrote {len(list(args.out.iterdir()))} files to {args.out}/")


if __name__ == "__main__":
    main()
