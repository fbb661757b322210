"""Command-line interface.

Subcommands: devices list, bench element/network/chip/workload, topsdown,
export. Exit status 0 on success, 1 on data errors (single-line diagnostic
on stderr) or a closed stdout (nothing on stderr), 2 on usage errors. A data
error is a `DatasetError`, a `FigureError`, an `OSError` or a name stdout
cannot encode; any other exception is a bug and prints its traceback.
NEUROBENCH_DATA_DIR or --data-dir overrides the packaged datasets. Only the
dataset layer is imported up front; each subcommand imports the model layers
it runs. `run` is the process entry (`python -m neurobench.cli` and the
`neurobench` script): it freezes the collector on its way out, so the
interpreter's final collections have nothing to walk. `main` is the
in-process API and never freezes.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path
from typing import get_type_hints

from . import units
from .ade import FigureError
from .registry import _KINDS, NETWORK_KINDS, DatasetError, Registry, _text, _value, load_datasets


# A double's exact decimal expansion has at most 767 significant digits, so
# "%.<p>g" prints the same text at every p from 767 up, while formatting at p
# allocates about p bytes. `main` formats at no more than this.
_MAX_DIGITS = 767


def _precision(text: str) -> int:
    """--precision: significant digits, from 1 to 2**31 - 1, the most a format spec takes."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if not 1 <= value <= 2147483647:
        raise argparse.ArgumentTypeError(f"must be an integer from 1 to 2147483647, got {text!r}")
    return value


# Built once per process (about 1.6 ms a build). Parsing reads the parser and
# never changes it, and help and usage text is laid out when it is printed.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="neurobench", description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", type=Path, default=None, help="dataset directory override")
    parser.add_argument("--precision", type=_precision, default=6, help="significant digits in tabular output")
    sub = parser.add_subparsers(dest="command", required=True)

    devices = sub.add_parser("devices", help="device table operations")
    devices_sub = devices.add_subparsers(dest="devices_command", required=True)
    devices_sub.add_parser("list", help="list device records")

    bench = sub.add_parser("bench", help="bottoms-up benchmarks")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    b_elem = bench_sub.add_parser("element", help="12-column element bench of one technology")
    b_elem.add_argument("--tech", required=True)

    b_net = bench_sub.add_parser("network", help="element benches of every technology of one kind")
    b_net.add_argument("--kind", required=True, choices=NETWORK_KINDS)

    b_chip = bench_sub.add_parser("chip", help="chip-level figures for one technology")
    group = b_chip.add_mutually_exclusive_group(required=True)
    group.add_argument("--nominal", action="store_true")
    group.add_argument("--config", type=Path, help="JSON chip config file")
    b_chip.add_argument("--tech", required=True)

    b_work = bench_sub.add_parser("workload", help="run a named workload on one technology")
    b_work.add_argument("--name", required=True)
    b_work.add_argument("--tech", required=True)
    b_work.add_argument("--schedule", choices=["parallel", "tmux"], default=None)

    td = sub.add_parser("topsdown", help="tops-down chip benchmarking")
    td.add_argument("--chip", required=True)
    td.add_argument("--workload", default=None)
    td.add_argument("--backfill", action="store_true", help="show derived-field back-fill")

    exp = sub.add_parser("export", help="write datasets derived from the model")
    exp.add_argument("--what", required=True, choices=["matrix", "scatter", "pareto"])
    exp.add_argument("--out", required=True, type=Path)
    exp.add_argument("--scope", default=None, choices=["elements", "workload", "chips"])
    exp.add_argument("--scatter-kind", default=None, choices=["synapse", "neuron", "workload", "power"])
    exp.add_argument("--workload", default=None)
    return parser


def _check_export(parser: argparse.ArgumentParser, args) -> None:
    """Usage errors argparse cannot express: --scope belongs to the matrix
    (default elements) and --scatter-kind to scatter and pareto (default
    neuron); --workload is required by, and allowed only with, the workload
    scope and the workload and power scatters."""
    if args.what == "matrix":
        if args.scatter_kind is not None:
            parser.error("export: --scatter-kind applies only to --what scatter or pareto, not matrix")
        args.scope = args.scope or "elements"
        needs, option = args.scope == "workload", f"--scope {args.scope}"
    elif args.scope is not None:
        parser.error(f"export: --scope applies only to --what matrix, not {args.what}")
    else:
        args.scatter_kind = args.scatter_kind or "neuron"
        needs, option = args.scatter_kind in ("workload", "power"), f"--scatter-kind {args.scatter_kind}"
    if needs and args.workload is None:
        parser.error(f"export: {option} requires --workload")
    if not needs and args.workload is not None:
        parser.error(f"export: --workload does not apply to {option}")


def _chip_config(path: Path):
    """ChipConfig from a JSON object whose keys are its field names; each value
    passes the dataset validator against the field's annotation."""
    from .chip import ChipConfig

    try:
        doc = json.loads(path.read_bytes())
    except (ValueError, RecursionError) as e:  # as `registry._parsed`
        raise DatasetError(f"{path}: parse failure: {e}") from None
    if not isinstance(doc, dict):
        raise DatasetError(f"{path}: chip config must be a JSON object")
    fields, defaults, kinds = ChipConfig._fields, ChipConfig._field_defaults, get_type_hints(ChipConfig)
    for key in doc:
        if key not in fields:
            raise DatasetError(f"{path}: unknown chip config key {key!r}")
    for key in fields:
        if doc.get(key) is None and key not in defaults:
            raise DatasetError(f"{path}: missing chip config key {key!r}")
    return ChipConfig._make(_value(doc, k, _KINDS[kinds[k]], str(path), default=defaults.get(k)) for k in fields)


def _cmd_devices(args, registry: Registry) -> None:
    print("name,area_nm2,delay_ps,energy_aJ,r_on_Ohm,r_off_Ohm")
    for name in sorted(registry.devices):
        d = registry.devices[name]
        r_on = "" if d.r_on is None else f"{d.r_on:g}"
        r_off = "" if d.r_off is None else f"{d.r_off:g}"
        print(f"{_text(name)},{d.area_int:g},{d.delay_int:g},{d.energy_int:g},{r_on},{r_off}")


def _cmd_bench(args, registry: Registry) -> None:
    from . import report

    p = args.precision
    if args.bench_command == "element":
        tech = registry.technology(args.tech)
        cols = report.matrix_columns(report.bench_technology(tech, registry))
        for name, value in zip(report.MATRIX_HEADER[1:], cols):
            print(f"{name}: {value:.{p}g}")
    elif args.bench_command == "network":
        sys.stdout.write(report.emit_matrix(registry, "elements", network_kind=args.kind, precision=p))
    elif args.bench_command == "chip":
        tech = registry.technology(args.tech)
        if args.nominal:
            bench = report.bench_chip(tech, registry)
        else:
            bench = report.bench_chip(tech, registry, _chip_config(args.config))
        print(f"total_synapses: {bench.total_synapses}")
        print(f"area_nm2: {bench.area:.{p}g}")
        print(f"firing_rate_per_s: {bench.firing_rate * units.PS_PER_S:.{p}g}")
        print(f"time_step_ps: {bench.time_step:.{p}g}")
        print(f"energy_per_event_aJ: {bench.energy_per_event:.{p}g}")
        print(f"syn_throughput_per_s: {bench.syn_throughput_per_s:.{p}g}")
        print(f"power_W: {bench.power_w:.{p}g}")
        print(f"energy_per_step_aJ: {bench.energy_per_step:.{p}g}")
    else:  # workload
        tech = registry.technology(args.tech)
        schedule = {"parallel": "parallel", "tmux": "time_multiplexed", None: None}[args.schedule]
        bench = report.bench_workload(args.name, tech, registry, schedule=schedule)
        print(f"area_nm2: {bench.area:.{p}g}")
        print(f"delay_ps: {bench.delay:.{p}g}")
        print(f"energy_aJ: {bench.energy:.{p}g}")
        print(f"power_W: {bench.power_w:.{p}g}")
        print(f"inference_throughput_per_nm2ps: {bench.inference_throughput:.{p}g}")
        print(f"inferences_per_s: {bench.inferences_per_s:.{p}g}")
        print(f"schedule: {bench.schedule}")


def _cmd_topsdown(args, registry: Registry) -> None:
    from .topsdown import backfill_derived, run_workload_on_chip, topsdown_element

    p = args.precision
    chip = registry.chip(args.chip)
    # every figure is computed before the first line is printed, so a data
    # error leaves stdout empty
    result = None
    if args.backfill:
        result = backfill_derived(chip)
        chip = result.chip
    element = topsdown_element(chip, registry)
    bench = run_workload_on_chip(chip, registry.workload(args.workload), registry) if args.workload else None
    if result is not None:
        for field_name, identity in sorted(result.filled.items()):
            print(f"filled {field_name} = {getattr(chip, field_name):.{p}g} from {identity}")
        for identity, residual in sorted(result.residuals.items()):
            print(f"residual of {identity}: {residual * 100:.2f}%")
    print(f"synapse_area_nm2: {element.synapse_area:.{p}g}")
    print(f"neuron_area_nm2: {element.neuron_area:.{p}g}")
    print(f"synapse_delay_ps: {element.synapse_delay:.{p}g}")
    print(f"synapse_energy_aJ: {element.synapse_energy:.{p}g}")
    print(f"neuron_energy_aJ: {element.neuron_energy:.{p}g}")
    if bench is not None:
        print(f"workload {args.workload}:")
        print(f"  area_nm2: {bench.area:.{p}g}")
        print(f"  delay_ps: {bench.delay:.{p}g}")
        print(f"  energy_aJ: {bench.energy:.{p}g}")
        print(f"  inferences_per_s: {bench.inferences_per_s:.{p}g}")


def _cmd_export(args, registry: Registry) -> None:
    from . import report

    p = args.precision
    if args.what == "matrix":
        fmt = "json" if args.out.suffix == ".json" else "csv"
        text = report.emit_matrix(registry, args.scope, workload=args.workload, precision=p, fmt=fmt)
    else:
        points = report.scatter_dataset(registry, args.scatter_kind, workload=args.workload)
        if args.what == "pareto":
            points = report.pareto_front(points)
        text = report.emit_scatter(points, precision=p)
    args.out.write_text(text, encoding="utf-8")
    print(f"wrote {args.out}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.precision = min(args.precision, _MAX_DIGITS)  # the same text, without a buffer of p bytes
    if args.command == "export":
        _check_export(parser, args)
    try:
        registry = load_datasets(args.data_dir)
        if args.command == "devices":
            _cmd_devices(args, registry)
        elif args.command == "bench":
            _cmd_bench(args, registry)
        elif args.command == "topsdown":
            _cmd_topsdown(args, registry)
        elif args.command == "export":
            _cmd_export(args, registry)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
    except BrokenPipeError:
        # The reader went away (`| head`): the signal module's SIGPIPE note.
        # Point stdout at devnull so that the exit-time flush cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (DatasetError, FigureError, OSError, UnicodeEncodeError) as e:  # any other exception is a bug
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def run() -> int:
    """`main` for a process that ends when it returns. `gc.freeze()` moves every
    object into the permanent generation, which no collection walks, so exit
    skips collecting objects that die with the process anyway. A caller that
    goes on running calls `main`."""
    try:  # every way out freezes: a return, a usage error's SystemExit, a bug's exception
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(run())
