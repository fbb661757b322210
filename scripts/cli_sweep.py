#!/usr/bin/env python3
"""Run every valid CLI command, and one for each CLI diagnostic, in-process and dump what each one produced.

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
most rows overflow, so the error names the technology (`OVERFLOW_EDITS`);
and `bench chip --nominal`, `bench chip --config nominal.json` and `bench
workload --name lenet` for every technology, and `topsdown --workload`, with
and without `--backfill`, for each edited chip, on a sixth one where chip,
workload and tops-down workload figures overflow, so the error names the
technology or chip and the workload (`FIGURES_EDITS`); and the element
matrix and the neuron scatter as CSV on a seventh one whose oscillator
label holds a comma and double quotes, so the CSV cell is quoted
(`QUOTED_EDITS`). It runs `devices list` on a dataset whose constants.json,
and `bench chip --config` on a config whose object, holds a key of
`DEEP_LISTS` nested lists, which the JSON decoder cannot parse within the
recursion limit (`DEEP_COMMANDS`). It also runs `devices list` once for
every leaf of each of the seven shipped files deleted or set to each of
`LEAF_VALUES`, with that one file changed (`loader_results`), so every
loader message shows. Last, it runs `ERROR_COMMANDS`, one for each
diagnostic that no command above prints: the usage errors of `--precision`
and `export` (exit 2), chip configs that are no chip config
(`ERROR_CONFIGS`), unknown names, a data directory that is a file, and, on
datasets with one file edited (`ERROR_EDITS`), each cross-record loader
check and each figure the model cannot form; and `devices list` with
`NEUROBENCH_DATA_DIR` set, for that one run, to a directory that lacks a
file (`MISSING_DIR`).

OUT receives sorted JSON mapping each space-joined argv, or for a changed
leaf `loader`, the file, the leaf's path and its value, or for the
override `NEUROBENCH_DATA_DIR=` and its value before the argv, to [exit
code, stdout, stderr, export text or null]. Every path it passes is relative, so each
entry reads the same in every checkout. Run it on two checkouts and compare
the dumps with `cmp`: a refactor that keeps the CLI's behaviour leaves them
byte-identical.
"""

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

from neurobench import derive, load_datasets
from neurobench.cli import main as cli_main
from neurobench.registry import _json_key

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
LOADER_DIR = "loader"
DELETED = object()
LEAF_VALUES = {"deleted": DELETED, '"x"': "x", "-1": -1, "0": 0, "1e308": 1e308}  # label -> the leaf's new value
FIGURES_DIR = "derived_figures"
FIGURES_EDITS = {  # finite rows and tops-down elements whose chip or workload figures overflow
    "circuit_primitives.json": {("families", "digital_cmos", "reg", "energy"): 1e302},
    "chips_neuromorphic.json": {("chips", "Loihi", "energy_per_event"): 1e298},
    "chips_accelerators.json": {("chips", "Diannao", "energy_per_event"): 1e298},
}
DEEP_DIR, DEEP_CONFIG = "deep", "deep.json"
DEEP_LISTS = 100_000
DEEP_COMMANDS = [
    ["--data-dir", DEEP_DIR, "devices", "list"],
    ["bench", "chip", "--config", DEEP_CONFIG, "--tech", "ANNDCSRAM"],
]
QUOTED_DIR = "derived_quoted"
QUOTED_EDITS = {"technologies.json": {("oscillators", 0, "label"): 'Osc,"STT"'}}  # a CSV cell that needs quotes
QUOTED_COMMANDS = [
    ["--data-dir", QUOTED_DIR, "export", "--what", "matrix", "--out", EXPORT_NAME + ".csv"],
    ["--data-dir", QUOTED_DIR, "export", "--what", "scatter", "--out", EXPORT_NAME + ".csv"],
]
DEVICES = ["devices", "list"]
ELEMENT = ["bench", "element", "--tech", "ANNDCSRAM"]
ERROR_EDITS = {  # directory -> (file, {path: value or DELETED}, argv run on it): the shipped files with one file edited
    "error_units": ("workloads.json", {("units",): DELETED}, DEVICES),
    "error_list": ("devices.json", {("devices",): {"ME": {}}}, DEVICES),
    "error_duplicate": ("devices.json", {("devices", "SOT", "name"): "FEFET"}, DEVICES),
    "error_cmos": ("constants.json", {("transistors", "cmos"): DELETED}, DEVICES),
    "error_family": ("circuit_primitives.json", {("families", "digital_tfet"): DELETED}, DEVICES),
    "error_resistance": ("devices.json", {("devices", "OxideR", "r_off"): 200}, DEVICES),  # equal to its r_on
    "error_layers": ("workloads.json", {("workloads", "lenet", "layers"): []}, DEVICES),
    "error_kernel": ("workloads.json", {("workloads", "lenet", "layers", 0, "kernel"): 33}, DEVICES),  # 32 wide
    # valid datasets on which a figure cannot be formed
    "error_sum": (  # the digital neuron and its sense amps, each 8 adder delays (1.2e308 ps), sum to inf
        "circuit_primitives.json", {("families", "digital_cmos", "add1", "delay"): 1.5e307}, ELEMENT
    ),
    "error_drive": (  # the drive current of a minimum transistor underflows to 0
        "constants.json",
        {
            ("transistors", "cmos", "on_current_per_width"): 4e-317,
            ("transistors", "cmos", "off_current_per_width"): 5e-324,  # below the on-current, as the loader requires
        },
        ELEMENT,
    ),
    "error_activity": (  # 20 times the shipped throughput
        "chips_neuromorphic.json", {("chips", "IFAT", "syn_throughput"): 1460},
        ["topsdown", "--chip", "IFAT", "--backfill"],
    ),
    "error_scatter": (  # area and delay are finite, their product is not: the throughput is 0
        "circuit_primitives.json", {("families", "digital_cmos", "reg", "area"): 1e290},
        ["export", "--what", "scatter", "--scatter-kind", "power", "--workload", "lenet", "--out", EXPORT_NAME + ".csv"],
    ),
}
MISSING_DIR = "error_missing"  # the shipped files but workloads.json
ERROR_CONFIGS = {  # `bench chip --config` files that are not a chip config
    "config_list.json": [2, 2, 3],
    "config_unknown.json": {"cores": 2, "neurons_per_core": 2, "synapses_per_neuron": 3, "colour": "red"},
    "config_missing.json": {"cores": 2, "neurons_per_core": 2},
}
ERROR_COMMANDS = [
    ["--precision", "0", *DEVICES],
    ["--precision", "x", *DEVICES],
    ["export", "--what", "matrix", "--scatter-kind", "power", "--workload", "lenet", "--out", EXPORT_NAME + ".csv"],
    ["export", "--what", "scatter", "--scope", "elements", "--out", EXPORT_NAME + ".csv"],
    ["export", "--what", "matrix", "--scope", "workload", "--out", EXPORT_NAME + ".csv"],
    ["export", "--what", "matrix", "--workload", "lenet", "--out", EXPORT_NAME + ".csv"],
    *(["bench", "chip", "--config", name, "--tech", "ANNDCSRAM"] for name in ERROR_CONFIGS),
    ["bench", "element", "--tech", "XNNDCSRAM"],
    ["bench", "workload", "--name", "vgg99", "--tech", "ANNDCSRAM"],
    ["topsdown", "--chip", "Deep Blue"],
    ["--data-dir", "nominal.json", *DEVICES],  # a data directory that is a file
    *(["--data-dir", directory, *argv] for directory, (_, _, argv) in ERROR_EDITS.items()),
]
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
    each edited chip, with and without its back-fill, on the one in BACKFILL_DIR, rows on the
    one in OVERFLOW_DIR, chips, lenet and the tops-down workloads of each edited chip on the
    one in FIGURES_DIR, and QUOTED_COMMANDS, at 17 digits."""
    argv = []
    for label in registry.technologies:
        row, chip = ["bench", "element", "--tech", label], ["bench", "chip", "--nominal", "--tech", label]
        workloads = [["bench", "workload", "--name", name, "--tech", label] for name in sorted(registry.workloads)]
        argv += [["--data-dir", DERIVED_DIR, *a] for a in (row, chip, *workloads)]
        argv += [["--data-dir", CIRCUITS_DIR, *row], *(["--data-dir", VALUES_DIR, *a] for a in (row, *workloads))]
        argv.append(["--data-dir", OVERFLOW_DIR, *row])
        config = ["bench", "chip", "--config", "nominal.json", "--tech", label]
        lenet = ["bench", "workload", "--name", "lenet", "--tech", label]
        argv += [["--data-dir", FIGURES_DIR, *a] for a in (chip, config, lenet)]
    for chip in sorted(path[1] for edits in BACKFILL_EDITS.values() for path in edits):
        for backfill in ([], ["--backfill"]):
            for workload in ([], *(["--workload", name] for name in sorted(registry.workloads))):
                argv.append(["--data-dir", BACKFILL_DIR, "topsdown", "--chip", chip, *backfill, *workload])
    for chip in sorted(path[1] for name, edits in FIGURES_EDITS.items() if name.startswith("chips") for path in edits):
        for backfill in ([], ["--backfill"]):
            for name in sorted(registry.workloads):
                argv.append(["--data-dir", FIGURES_DIR, "topsdown", "--chip", chip, *backfill, "--workload", name])
    return [["--precision", "17", *a] for a in argv + QUOTED_COMMANDS]


def leaves(node, path=()):
    """The path of every value in the JSON `node` that is neither an object nor a list."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaves(child, (*path, key))
    else:
        yield path


def edited(data: bytes, edits: dict) -> bytes:
    """The JSON file `data` with the value at each path of `edits` set to its
    value, or deleted for DELETED; a path is one as `derive` takes."""
    doc = json.loads(data)
    for path, value in edits.items():
        *steps, last = path
        node = functools.reduce(lambda node, step: node[_json_key(node, step)], steps, doc)
        if value is DELETED:
            del node[_json_key(node, last)]
        else:
            node[_json_key(node, last)] = value
    return json.dumps(doc).encode()


def loader_results(registry) -> dict:
    """`devices list` on the files of `registry` in LOADER_DIR, once for each
    leaf of each file deleted or set to each of LEAF_VALUES."""
    write_dataset(LOADER_DIR, registry.files)
    directory, results = Path(LOADER_DIR), {}
    for name, data in registry.files.items():
        for path in leaves(json.loads(data)):
            for label, value in LEAF_VALUES.items():
                (directory / name).write_bytes(edited(data, {path: value}))
                key = f"loader {name} {'.'.join(map(str, path))} {label}"
                results[key] = run(["--data-dir", LOADER_DIR, "devices", "list"])
        (directory / name).write_bytes(data)
    return results


def error_results(registry) -> dict:
    """ERROR_COMMANDS, and `devices list` with NEUROBENCH_DATA_DIR naming MISSING_DIR, on the
    files and configs they name, written from `registry`."""
    for name, config in ERROR_CONFIGS.items():
        Path(name).write_text(json.dumps(config), encoding="utf-8")
    for directory, (file, edits, _) in ERROR_EDITS.items():
        write_dataset(directory, {**registry.files, file: edited(registry.files[file], edits)})
    write_dataset(MISSING_DIR, {name: data for name, data in registry.files.items() if name != "workloads.json"})
    results = {" ".join(command): run(command) for command in ERROR_COMMANDS}
    with mock.patch.dict(os.environ, {"NEUROBENCH_DATA_DIR": MISSING_DIR}):  # set for this one run
        results[f"NEUROBENCH_DATA_DIR={MISSING_DIR} devices list"] = run(DEVICES)
    return results


def write_dataset(directory: str, files: dict) -> None:
    Path(directory).mkdir()
    for name, data in files.items():
        (Path(directory) / name).write_bytes(data)


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
                (FIGURES_DIR, FIGURES_EDITS),
                (QUOTED_DIR, QUOTED_EDITS),
            )
            for directory, edits in derived:
                write_dataset(directory, derive(registry, edits).files)
            deep = b'{"deep": ' + b"[" * DEEP_LISTS + b"]" * DEEP_LISTS + b", "
            Path(DEEP_CONFIG).write_bytes(deep + b'"cores": 2, "neurons_per_core": 2, "synapses_per_neuron": 3}')
            write_dataset(DEEP_DIR, {**registry.files, "constants.json": deep + registry.files["constants.json"][1:]})
            for command in commands(registry) + derived_commands(registry) + DEEP_COMMANDS:
                results[" ".join(command)] = run(command)
            results.update(loader_results(registry))
            results.update(error_results(registry))
        finally:
            os.chdir(cwd)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(results)} commands to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
