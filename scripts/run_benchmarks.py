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

    def write(name: str, text: str) -> None:
        (args.out / name).write_text(text, encoding="utf-8")  # dataset names need not fit the locale's encoding

    write("element_matrix.csv", report.emit_matrix(registry, "elements"))
    for name in sorted(registry.workloads):
        write(f"workload_{name}.csv", report.emit_matrix(registry, "workload", workload=name))
    write("chips_topsdown.csv", report.emit_matrix(registry, "chips"))

    for what in ("synapse", "neuron"):
        points = report.scatter_dataset(registry, what)
        write(f"scatter_{what}.csv", report.emit_scatter(points))
        write(f"pareto_{what}.csv", report.emit_scatter(report.pareto_front(points)))

    comparison = report.speech_comparison(registry)
    write("speech_comparison.json", json.dumps(comparison, indent=1, sort_keys=True) + "\n")

    kinds = {tech.network_kind for tech in registry.technologies.values()}
    ordering = {k: report.geometric_mean_neuron_delay(registry, k) for k in ("ANN", "ONN", "CNN", "SNN") if k in kinds}
    print("geometric-mean neuron delay (ps):", {k: round(v, 1) for k, v in ordering.items()})
    print(f"wrote {len(list(args.out.iterdir()))} files to {args.out}/")


if __name__ == "__main__":
    main()
