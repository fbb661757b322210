#!/usr/bin/env python3
"""Run every valid CLI command in-process and dump what each one produced.

    python3 scripts/cli_sweep.py OUT

At --precision 1, 3, 6, 12 and 17 it runs `devices list`; `bench element`,
`bench chip --nominal`, `bench chip --config` (each of `CONFIGS`) and `bench
workload` (default, parallel and tmux schedule, every workload) for every
technology; `bench network` for every kind; `topsdown` for every chip, with
and without `--backfill` and with no or every `--workload`; and every valid
`export`. At --precision 17 it also runs `bench element`, `bench chip
--nominal` and the default `bench workload` for every technology on a derived
dataset whose constants are off their shipped values (`DERIVED_EDITS`), where
a reordered product shows although the golden files, which pin the shipped
values only, may match; `bench element` for every technology on a second one
that moves the constants the circuit models read (`CIRCUIT_EDITS`); and
`bench element` and the default `bench workload` for every technology on a
third one whose device and primitive values are off theirs (`VALUE_EDITS`);
and `topsdown`, with and without `--backfill` and with no or every
`--workload`, for each chip of a fourth one where the back-fill of that chip
gives a value or residual that is not finite and positive and, for HICANN,
the tops-down neuron energy overflows (`BACKFILL_EDITS`); and `bench
element` for every technology on a fifth one whose supply voltage makes
most rows overflow, so the error names the technology (`OVERFLOW_EDITS`).
OUT receives
sorted JSON mapping each space-joined argv to [exit code, stdout, stderr,
export text or null]. Run it on two checkouts and compare the dumps with
`cmp`: a refactor that keeps the CLI's behaviour leaves them byte-identical.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from neurobench import derive, load_datasets
from neurobench.cli import main as cli_main

PRECISIONS = ("1", "3", "6", "12", "17")  # 1 and 17: the fewest digits and the most a double needs
EXPORT_NAME = "export"  # relative, so `wrote ...` is the same text in every checkout
DERIVED_DIR = "derived"  # relative too, so the commands read the same in every checkout
DERIVED_EDITS = {  # constants.json paths, each off its shipped value
    ("supply_voltage",): 0.83,
    ("wire_pitch_f",): 8.5,
    ("overheads", "core"): 2.3,
    ("cnn_settling_factor",): 5.7,
    ("feature_size",): 16.5,  # with min_ic_resistance, which the loader ties to it within 2%
    ("min_ic_resistance",): 733.7,
}
CIRCUITS_DIR = "derived_circuits"
CIRCUIT_EDITS = {  # constants.json paths that the circuit and element models read; together they move every row
    ("sense_voltage",): 0.37,
    ("vsa_sense_voltage",): 0.13,
    ("vsa_read_voltage",): 0.47,
    ("analog_row_voltage",): 0.71,
    ("analog_read_pulse",): 730,
    ("cnn_max_weight",): 0.31,
    ("cnn_weight_sum",): 1.37,
    ("synapse_bits",): 6,
    ("synapse_levels",): 27,
    ("linear_transconductance",): 2.3e-4,
    ("transistor_on_resistance",): 11700,
    ("sense_amp_widths_f", "p"): 4.3,
    ("ota_widths_f", "pullup"): 5.9,
}

VALUES_DIR = "derived_values"
VALUE_EDITS = {  # devices.json and circuit_primitives.json paths, each off its shipped value
    "devices.json": {
        ("devices", "FEFET", "delay"): 87.3,
        ("devices", "SOT", "energy"): 21700.0,
        ("devices", "ME", "area"): 6100,
        ("devices", "OxideR", "r_on"): 170,
        ("devices", "FER", "r_off"): 27000,
    },
    "circuit_primitives.json": {
        ("families", "digital_cmos", "add", "energy"): 371.9,
        ("families", "digital_cmos", "reg", "delay"): 27.3,
        ("families", "digital_cmos", "inv4", "area"): 29900,
        ("families", "digital_tfet", "add", "delay"): 3310.0,
    },
}
BACKFILL_DIR = "derived_backfill"
BACKFILL_EDITS = {  # chips file paths, one per chip, each breaking that chip's back-fill
    "chips_accelerators.json": {("chips", "Diannao", "power"): 1e-320},  # back-filled energy_per_event underflows to 0
    "chips_neuromorphic.json": {
        ("chips", "HICANN", "energy_per_event"): 1e300,  # back-filled power and tops-down neuron energy overflow
        ("chips", "HICANN-X", "fire_rate"): 1e305,  # the throughput identity's residual is nan
    },
}
OVERFLOW_DIR = "derived_overflow"
OVERFLOW_EDITS = {("supply_voltage",): 1e200}  # constants.json path: 44 of the 56 rows overflow
CONFIGS = {  # chip configs for `bench chip --config`, written by relative name like EXPORT_NAME
    "small.json": {"cores": 2, "neurons_per_core": 16, "synapses_per_neuron": 8},
    "spiking.json": {"cores": 16, "neurons_per_core": 128, "synapses_per_neuron": 64, "spiking": True, "activity": 0.5},
}


def commands(registry) -> list[list[str]]:
    labels = list(registry.technologies)
    workloads = sorted(registry.workloads)
    per_precision = [["devices", "list"]]
    for label in labels:
        per_precision.append(["bench", "element", "--tech", label])
        per_precision.append(["bench", "chip", "--nominal", "--tech", label])
        for config in ("nominal.json", *CONFIGS):
            per_precision.append(["bench", "chip", "--config", config, "--tech", label])
        for name in workloads:
            for schedule in ([], ["--schedule", "parallel"], ["--schedule", "tmux"]):
                per_precision.append(["bench", "workload", "--name", name, "--tech", label, *schedule])
    per_precision += [["bench", "network", "--kind", kind] for kind in ("ANN", "CNN", "SNN", "ONN")]
    for chip in sorted(registry.chips):
        for backfill in ([], ["--backfill"]):
            for workload in ([], *(["--workload", name] for name in workloads)):
                per_precision.append(["topsdown", "--chip", chip, *backfill, *workload])
    matrix = [["--scope", "elements"], ["--scope", "chips"]]
    matrix += [["--scope", "workload", "--workload", name] for name in workloads]
    scatter = [["--scatter-kind", kind] for kind in ("synapse", "neuron")]
    scatter += [["--scatter-kind", kind, "--workload", name] for kind in ("workload", "power") for name in workloads]
    for suffix in (".csv", ".json"):
        per_precision += [["export", "--what", "matrix", "--out", EXPORT_NAME + suffix, *opts] for opts in matrix]
    for what in ("scatter", "pareto"):
        per_precision += [["export", "--what", what, "--out", EXPORT_NAME + ".csv", *opts] for opts in scatter]
    return [["--precision", p, *argv] for p in PRECISIONS for argv in per_precision]


def derived_commands(registry) -> list[list[str]]:
    """Rows, nominal chips and default workloads on the dataset in DERIVED_DIR, rows on the one in
    CIRCUITS_DIR, rows and default workloads on the one in VALUES_DIR, the tops-down figures of
    each edited chip, with and without its back-fill, on the one in BACKFILL_DIR, and rows on the
    one in OVERFLOW_DIR, at 17 digits."""
    argv = []
    for label in registry.technologies:
        row, chip = ["bench", "element", "--tech", label], ["bench", "chip", "--nominal", "--tech", label]
        workloads = [["bench", "workload", "--name", name, "--tech", label] for name in sorted(registry.workloads)]
        argv += [["--data-dir", DERIVED_DIR, *a] for a in (row, chip, *workloads)]
        argv += [["--data-dir", CIRCUITS_DIR, *row], *(["--data-dir", VALUES_DIR, *a] for a in (row, *workloads))]
        argv.append(["--data-dir", OVERFLOW_DIR, *row])
    for chip in sorted(path[1] for edits in BACKFILL_EDITS.values() for path in edits):
        for backfill in ([], ["--backfill"]):
            for workload in ([], *(["--workload", name] for name in sorted(registry.workloads))):
                argv.append(["--data-dir", BACKFILL_DIR, "topsdown", "--chip", chip, *backfill, *workload])
    return [["--precision", "17", *a] for a in argv]


def run(argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    exported = None
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            exported = path.read_text(encoding="utf-8")
            path.unlink()
    return [code, out.getvalue(), err.getvalue(), exported]


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: cli_sweep.py OUT", file=sys.stderr)
        return 2
    out = Path(sys.argv[1]).resolve()
    results = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            registry = load_datasets()
            constants = registry.constants
            nominal = {
                "cores": constants.nominal_cores,
                "neurons_per_core": constants.nominal_neurons_per_core,
                "synapses_per_neuron": constants.nominal_synapses_per_neuron,
            }
            for name, config in {"nominal.json": nominal, **CONFIGS}.items():
                Path(name).write_text(json.dumps(config), encoding="utf-8")
            derived = (
                (DERIVED_DIR, {"constants.json": DERIVED_EDITS}),
                (CIRCUITS_DIR, {"constants.json": CIRCUIT_EDITS}),
                (VALUES_DIR, VALUE_EDITS),
                (BACKFILL_DIR, BACKFILL_EDITS),
                (OVERFLOW_DIR, {"constants.json": OVERFLOW_EDITS}),
            )
            for directory, edits in derived:
                Path(directory).mkdir()
                for name, data in derive(registry, edits).files.items():
                    (Path(directory) / name).write_bytes(data)
            for command in commands(registry) + derived_commands(registry):
                results[" ".join(command)] = run(command)
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} commands to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
