#!/usr/bin/env python3
"""Regenerate the golden regression files from the shipped default dataset.

Run from the repository root after any intentional model or calibration
change, then review the diff:

    python3 scripts/make_golden.py

It writes tests/golden/golden.json (bottom-up element rows, nominal chips and
workloads), tests/golden/topsdown.json (the tops-down element of every chip,
or the reason it is incomputable, and every workload on each computable chip),
tests/golden/cli.json (the exact stdout of a set of CLI commands, keyed by
their space-joined argv) and tests/golden/results.json (the text of every
file scripts/run_benchmarks.py writes, keyed by file name).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from run_benchmarks import main as run_benchmarks

from neurobench import load_datasets, report
from neurobench.cli import main as cli_main
from neurobench.topsdown import IncomputableError, run_workload_on_chip, topsdown_element

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


def bottoms_up(registry) -> dict:
    payload = {"elements": {}, "nominal_chip": {}, "workloads": {}}

    for tech in registry.enumerate_technologies():
        bench = report.bench_technology(tech, registry)
        payload["elements"][tech.label] = list(bench.columns())
        figures = report.bench_chip(tech, registry)._asdict()
        del figures["total_synapses"]
        payload["nominal_chip"][tech.label] = figures

    for name in sorted(registry.workloads):
        payload["workloads"][name] = {
            tech.label: report.bench_workload(name, tech, registry)._asdict()
            for tech in registry.enumerate_technologies()
        }
    return payload


def tops_down(registry) -> dict:
    payload = {}
    for name in sorted(registry.chips):
        chip = registry.chips[name]
        try:
            e = topsdown_element(chip, registry)
        except IncomputableError as err:
            payload[name] = {"error": str(err)}
            continue
        workloads = {
            wname: run_workload_on_chip(chip, registry.workloads[wname], registry)._asdict()
            for wname in sorted(registry.workloads)
        }
        payload[name] = {"element": e._asdict(), "workloads": workloads}
    return payload


CLI_COMMANDS = (
    "bench element --tech ANNDCSRAM",
    "bench network --kind ONN",
    "bench chip --nominal --tech SpiDCSRAM",
    "bench workload --name mnist_mlp --tech ANNDCSRAM",
    "bench workload --name mnist_mlp --tech ANNDCSRAM --schedule parallel",
    "bench workload --name mnist_mlp --tech ANNDCSRAM --schedule tmux",
    "topsdown --chip SpiNNaker --backfill",
    "topsdown --chip Loihi --workload speech_mlp",
    "devices list",
    "--precision 3 bench chip --nominal --tech ANNDCSRAM",
)


def cli_stdout() -> dict:
    payload = {}
    for command in CLI_COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(command.split())
        if code != 0:
            raise SystemExit(f"neurobench {command} exited {code}")
        payload[command] = buf.getvalue()
    return payload


def results() -> dict:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_benchmarks(["--out", tmp])
        return {path.name: path.read_text(encoding="utf-8") for path in sorted(Path(tmp).iterdir())}


def main():
    registry = load_datasets()
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for filename, payload in (
        ("golden.json", bottoms_up(registry)),
        ("topsdown.json", tops_down(registry)),
        ("cli.json", cli_stdout()),
        ("results.json", results()),
    ):
        out = GOLDEN_DIR / filename
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {out}")


if __name__ == "__main__":
    main()
