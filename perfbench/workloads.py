"""The benchmark workloads: seeded set-up, one timed operation, and the check
of that operation's output.

Each workload object has `op(i)`, which does the timed work of operation i,
and `check(i, out)`, which returns a list of mismatches (empty when the
output is right). Expected values come from `tests/golden/golden.json`,
which is only read, or, for value-perturbed datasets, from a reference
computed in a fresh interpreter during set-up.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from neurobench import chip, registry, report, topsdown

REL_TOL = 1e-9
PRECISION = 6  # significant digits the CLI prints by default
NM2_PER_UM2 = 1e6
NETWORK_KINDS = ("ANN", "CNN", "SNN", "ONN")
KIND_BY_PREFIX = {"ANN": "ANN", "CNN": "CNN", "Spi": "SNN", "Osc": "ONN"}
MATRIX_FIELDS = (
    "area_syn_um2", "area_lic_um2", "area_neu_um2", "area_gic_um2",
    "delay_syn_ps", "delay_lic_ps", "delay_neu_ps", "delay_gic_ps",
    "energy_syn_aJ", "energy_lic_aJ", "energy_neu_aJ", "energy_gic_aJ",
)
MATRIX_CSV_HEADER = "technology," + ",".join(MATRIX_FIELDS)
NOMINAL_FIELDS = ("area", "firing_rate", "time_step", "energy_per_event", "syn_throughput", "power", "energy_per_step")
TOPSDOWN_ELEMENT_FIELDS = ("synapse_area", "neuron_area", "synapse_delay", "synapse_energy", "neuron_energy")
TOPSDOWN_FIELDS = ("synapse_area_nm2", "neuron_area_nm2", "synapse_delay_ps", "synapse_energy_aJ", "neuron_energy_aJ")
TOPSDOWN_WORKLOAD_FIELDS = ("area_nm2", "delay_ps", "energy_aJ", "inferences_per_s")
DEVICES_HEADER = "name,area_nm2,delay_ps,energy_aJ,r_on_Ohm,r_off_Ohm"


@dataclass
class Context:
    root: Path  # checkout root
    data_dir: Path  # the packaged default dataset
    golden: dict
    seed: int
    run_dir: Path  # working directory of this run, inside the checkout
    env: dict  # environment for child interpreters
    python: str
    tracer: Optional[object] = None  # set only during the traced phase


def _fmt(value: float) -> str:
    return f"{value:.{PRECISION}g}"


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= REL_TOL * abs(want)


def _positive(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _kind_of(label: str) -> str:
    return KIND_BY_PREFIX[label[:3]]


def _compare_rows(where: str, got: dict, want: dict, errors: list) -> None:
    """Element rows, label -> 12 columns, against golden within REL_TOL."""
    if set(got) != set(want):
        errors.append(f"{where}: technologies differ: {sorted(set(got) ^ set(want))}")
    for label in sorted(set(got) & set(want)):
        for j, (g, w) in enumerate(zip(got[label], want[label])):
            if not _close(g, w):
                errors.append(f"{where}: {label} column {j}: {g!r} != golden {w!r}")


def _compare_workload(where: str, got: dict, want: dict, errors: list) -> None:
    """label -> [area, delay, energy, schedule] against a golden workload table."""
    if set(got) != set(want):
        errors.append(f"{where}: technologies differ: {sorted(set(got) ^ set(want))}")
    for label in sorted(set(got) & set(want)):
        area, delay, energy, schedule = got[label]
        w = want[label]
        for field_name, g in (("area", area), ("delay", delay), ("energy", energy)):
            if not _close(g, w[field_name]):
                errors.append(f"{where}: {label}.{field_name}: {g!r} != golden {w[field_name]!r}")
        if schedule != w["schedule"]:
            errors.append(f"{where}: {label}.schedule: {schedule!r} != golden {w['schedule']!r}")


def sweep(reg, workload_names) -> dict:
    """Element matrix and the named inference workloads across all technologies."""
    techs = reg.enumerate_technologies()
    elements = {t.label: list(report.bench_technology(t, reg).columns()) for t in techs}
    workloads = {}
    for name in workload_names:
        rows = {}
        for t in techs:
            b = report.bench_workload(name, t, reg)
            rows[t.label] = [b.area, b.delay, b.energy, b.schedule]
        workloads[name] = rows
    return {"elements": elements, "workloads": workloads}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- expected text derived from golden --------------------------------------


def _element_cells(cols) -> list[str]:
    return [_fmt(c / NM2_PER_UM2 if i < 4 else c) for i, c in enumerate(cols)]


def _matrix_rows(golden: dict, kind: Optional[str] = None) -> list[str]:
    return sorted(
        ",".join([label, *_element_cells(cols)])
        for label, cols in golden["elements"].items()
        if kind is None or _kind_of(label) == kind
    )


def _workload_cells(w: dict) -> list[str]:
    power_w = (w["energy"] / w["delay"]) * 1e-6
    return [_fmt(w["area"]), _fmt(w["delay"]), _fmt(w["energy"]), _fmt(power_w), _fmt(1e12 / w["delay"])]


def _check_csv(where: str, text: str, header: str, rows: list[str], errors: list) -> None:
    """CSV document against its header and a row set (row order is not checked)."""
    lines = text.split("\n")
    if lines[-1] != "" or lines[0] != header or sorted(lines[1:-1]) != rows:
        errors.append(f"{where}: emitted table differs from golden")


# -- surface ------------------------------------------------------------------


class Surface:
    """One in-memory pass over everything scripts/make_golden.py and
    scripts/run_benchmarks.py compute, plus tops-down on every chip."""

    def __init__(self, ctx: Context):
        self.golden = ctx.golden
        self.first_dataset = ctx.data_dir
        self.reg = registry.load_datasets(ctx.data_dir)
        self.chip_order = sorted(self.reg.chips)
        random.Random(ctx.seed).shuffle(self.chip_order)
        self.matrix_rows = _matrix_rows(ctx.golden)
        self.workload_header = "technology,area_nm2,delay_ps,energy_aJ,power_W,inferences_per_s,schedule"
        self.workload_rows = {
            name: sorted(",".join([label, *_workload_cells(w), w["schedule"]]) for label, w in table.items())
            for name, table in ctx.golden["workloads"].items()
        }
        self.computable = None  # chips with tops-down figures, fixed by the first operation

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def op(self, i: int) -> dict:
        r = self.reg
        techs = r.enumerate_technologies()
        out = {"elements": {}, "nominal_chip": {}, "workloads": {}, "texts": {}, "topsdown": {}}
        # scripts/make_golden.py
        for tech in techs:
            bench = report.bench_technology(tech, r)
            out["elements"][tech.label] = bench.columns()
            cfg = chip.nominal_config(r.constants, spiking=tech.network_kind == "SNN")
            out["nominal_chip"][tech.label] = chip.chip_bench(cfg, bench, r.constants)
        for name in sorted(r.workloads):
            rows = {}
            for tech in techs:
                b = report.bench_workload(name, tech, r)
                rows[tech.label] = (b.area, b.delay, b.energy, b.schedule)
            out["workloads"][name] = rows
        # scripts/run_benchmarks.py, without the file writes
        texts = out["texts"]
        texts["element_matrix"] = report.emit_matrix(r, "elements")
        for name in sorted(r.workloads):
            texts[f"workload_{name}"] = report.emit_matrix(r, "workload", workload=name)
        texts["chips_topsdown"] = report.emit_matrix(r, "chips")
        for what in ("synapse", "neuron"):
            points = report.scatter_dataset(r, what)
            texts[f"scatter_{what}"] = report.emit_scatter(points)
            texts[f"pareto_{what}"] = report.emit_scatter(report.pareto_front(points))
        out["speech"] = report.speech_comparison(r)
        out["ordering"] = {k: report.geometric_mean_neuron_delay(r, k) for k in ("ANN", "ONN", "CNN", "SNN")}
        # tops-down on every chip
        for name in self.chip_order:
            c = r.chips[name]
            try:
                backfill = topsdown.backfill_derived(c)
            except topsdown.IncomputableError:
                backfill = None
            try:
                element = topsdown.topsdown_element(c, r)
            except topsdown.IncomputableError:
                out["topsdown"][name] = (None, backfill, ())
                continue
            benches = tuple(topsdown.run_workload_on_chip(c, spec, r) for spec in r.workloads.values())
            out["topsdown"][name] = (element, backfill, benches)
        return out

    def check(self, i: int, out: dict) -> list[str]:
        g = self.golden
        errors: list[str] = []
        _compare_rows("elements", out["elements"], g["elements"], errors)
        for label, cb in out["nominal_chip"].items():
            for f in NOMINAL_FIELDS:
                if not _close(getattr(cb, f), g["nominal_chip"][label][f]):
                    errors.append(f"nominal_chip: {label}.{f}: {getattr(cb, f)!r} != golden")
        if set(out["workloads"]) != set(g["workloads"]):
            errors.append("workloads: inference workload names differ from golden")
        for name, rows in out["workloads"].items():
            _compare_workload(f"workload {name}", rows, g["workloads"].get(name, {}), errors)

        texts = out["texts"]
        _check_csv("element_matrix", texts["element_matrix"], MATRIX_CSV_HEADER, self.matrix_rows, errors)
        for name, rows in self.workload_rows.items():
            _check_csv(f"workload_{name}", texts[f"workload_{name}"], self.workload_header, rows, errors)
        n_tech = len(g["elements"])
        for what in ("synapse", "neuron"):
            if texts[f"scatter_{what}"].count("\n") != n_tech + 1:
                errors.append(f"scatter_{what}: expected {n_tech} points")
            if texts[f"pareto_{what}"].count("\n") < 2:
                errors.append(f"pareto_{what}: empty front")
        if texts["chips_topsdown"].count("\n") != len(self.chip_order) + 1:
            errors.append("chips_topsdown: expected one row per chip")
        for chip_name, figures in out["speech"].items():
            if not all(_positive(v) for v in figures.values()):
                errors.append(f"speech_comparison: {chip_name}: non-positive figure")
        if not all(_positive(v) for v in out["ordering"].values()):
            errors.append("geometric-mean neuron delay: non-positive figure")

        computable = {name for name, (element, _, _) in out["topsdown"].items() if element is not None}
        if self.computable is None:
            self.computable = computable
        if not computable or computable != self.computable:
            errors.append(f"topsdown: computable chips changed: {sorted(computable)}")
        for name, (element, backfill, benches) in out["topsdown"].items():
            if element is not None:
                values = [getattr(element, f) for f in TOPSDOWN_ELEMENT_FIELDS]
                values += [v for b in benches for v in (b.area, b.delay, b.energy, b.inferences_per_s)]
                if len(benches) != len(g["workloads"]) or not all(_positive(v) for v in values):
                    errors.append(f"topsdown: {name}: figures not finite and positive")
            if backfill is not None:
                filled = [getattr(backfill.chip, f) for f in backfill.filled]
                residuals = list(backfill.residuals.values())
                if not all(_positive(v) for v in filled) or not all(math.isfinite(r) and r >= 0 for r in residuals):
                    errors.append(f"backfill: {name}: bad derived value or residual")
        return errors


# -- cli_oneshot -----------------------------------------------------------------


class CliOneshot:
    """Each operation is one fresh `python -m neurobench.cli ...` process."""

    KINDS = ("element", "workload", "chip", "network", "topsdown", "devices")
    N_COMMANDS = 60

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.first_dataset = ctx.data_dir
        g = ctx.golden
        reg = registry.load_datasets(ctx.data_dir)
        computable = []
        for name in sorted(reg.chips):
            try:
                topsdown.topsdown_element(reg.chips[name], reg)
                computable.append(name)
            except topsdown.IncomputableError:
                pass
        constants = json.loads((ctx.data_dir / "constants.json").read_text())["nominal_chip"]
        self.total_synapses = constants["cores"] * constants["neurons_per_core"] * constants["synapses_per_neuron"]
        devices = json.loads((ctx.data_dir / "devices.json").read_text())["devices"]
        self.device_names = sorted(d["name"] for d in devices)

        rng = random.Random(ctx.seed)
        labels, workloads = sorted(g["elements"]), sorted(g["workloads"])
        self.commands = []
        while len(self.commands) < self.N_COMMANDS:
            block = list(self.KINDS)
            rng.shuffle(block)  # every kind equally often, in seeded order
            for kind in block:
                if kind == "element":
                    argv = ["bench", "element", "--tech", rng.choice(labels)]
                elif kind == "workload":
                    argv = ["bench", "workload", "--name", rng.choice(workloads), "--tech", rng.choice(labels)]
                elif kind == "chip":
                    argv = ["bench", "chip", "--nominal", "--tech", rng.choice(labels)]
                elif kind == "network":
                    argv = ["bench", "network", "--kind", rng.choice(NETWORK_KINDS)]
                elif kind == "topsdown":
                    argv = ["topsdown", "--chip", rng.choice(computable), "--workload", rng.choice(workloads)]
                else:
                    argv = ["devices", "list"]
                self.commands.append((kind, argv))
        self.peak_child_kb = 0

    def peak_rss_mb(self) -> float:
        return self.peak_child_kb / 1024.0

    def op(self, i: int):
        kind, argv = self.commands[i % len(self.commands)]
        tracer = self.ctx.tracer
        if tracer is None:
            cmd = [self.ctx.python, "-m", "neurobench.cli", *argv]
        else:
            spans_out = self.ctx.run_dir / f"cli-spans-{i}.json"
            cmd = [self.ctx.python, str(self.ctx.root / "perfbench" / "cli_traced.py"), str(spans_out), "--", *argv]
        with subprocess.Popen(
            cmd, cwd=self.ctx.root, env=self.ctx.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        ) as proc:
            stdout = proc.stdout.read()
            stderr = proc.stderr.read()
            # wait4 rather than wait: it also gives the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_kb = max(self.peak_child_kb, usage.ru_maxrss)
        if tracer is not None and proc.returncode == 0:
            tracer.merge_child(spans_out)
            spans_out.unlink()
        return proc.returncode, stdout, stderr

    def check(self, i: int, out) -> list[str]:
        kind, argv = self.commands[i % len(self.commands)]
        code, stdout, stderr = out
        where = " ".join(argv)
        if code != 0:
            return [f"{where}: exit status {code}: {stderr.strip()[-300:]}"]
        lines = stdout.splitlines()
        g = self.ctx.golden
        if kind == "element":
            expected = [f"{n}: {v}" for n, v in zip(MATRIX_FIELDS, _element_cells(g["elements"][argv[3]]))]
        elif kind == "workload":
            w = g["workloads"][argv[3]][argv[5]]
            power, throughput = w["energy"] / w["delay"], 1.0 / (w["area"] * w["delay"])
            expected = [
                f"area_nm2: {_fmt(w['area'])}",
                f"delay_ps: {_fmt(w['delay'])}",
                f"energy_aJ: {_fmt(w['energy'])}",
                f"power_W: {_fmt(power * 1e-6)}",
                f"inference_throughput_per_nm2ps: {_fmt(throughput)}",
                f"inferences_per_s: {_fmt(1e12 / w['delay'])}",
                f"schedule: {w['schedule']}",
            ]
        elif kind == "chip":
            c = g["nominal_chip"][argv[4]]
            expected = [
                f"total_synapses: {self.total_synapses}",
                f"area_nm2: {_fmt(c['area'])}",
                f"firing_rate_per_s: {_fmt(c['firing_rate'] * 1e12)}",
                f"time_step_ps: {_fmt(c['time_step'])}",
                f"energy_per_event_aJ: {_fmt(c['energy_per_event'])}",
                f"syn_throughput_per_s: {_fmt(c['syn_throughput'] * 1e12)}",
                f"power_W: {_fmt(c['power'] * 1e-6)}",
                f"energy_per_step_aJ: {_fmt(c['energy_per_step'])}",
            ]
        elif kind == "network":
            errors: list[str] = []
            _check_csv(where, stdout, MATRIX_CSV_HEADER, _matrix_rows(g, argv[3]), errors)
            return errors
        elif kind == "topsdown":
            names = [*TOPSDOWN_FIELDS, None, *(f"  {f}" for f in TOPSDOWN_WORKLOAD_FIELDS)]
            ok = len(lines) == len(names)
            for line, name in zip(lines, names):
                if name is None:
                    ok = ok and line == f"workload {argv[4]}:"
                else:
                    key, _, value = line.partition(": ")
                    ok = ok and key == name and _positive(_float(value))
            return [] if ok else [f"{where}: unexpected output {stdout[:200]!r}"]
        else:  # devices list
            rows = [line.split(",") for line in lines[1:]]
            ok = lines[:1] == [DEVICES_HEADER] and [r[0] for r in rows] == self.device_names
            for r in rows:
                ok = ok and len(r) == 6 and all(_positive(_float(v)) for v in r[1:4])
                ok = ok and all(v == "" or _positive(_float(v)) for v in r[4:6])
            return [] if ok else [f"{where}: unexpected output {stdout[:200]!r}"]
        if lines != expected:
            return [f"{where}: printed {lines} != golden {expected}"]
        return []


# -- perturbed_sweep ---------------------------------------------------------


def _rewrite_units(docs: dict, rewrite: str) -> None:
    """Rewrites one dataset quantity into other units, keeping physical values."""

    def scale_fields(rows, fields, factor):
        for row in rows:
            for f in fields:
                if isinstance(row.get(f), (int, float)):
                    row[f] = row[f] * factor

    def set_unit(doc, key, old, new):
        if doc["units"].get(key) != old:
            raise RuntimeError(f"dataset unit {key} is {doc['units'].get(key)!r}, expected {old!r}")
        doc["units"][key] = new

    if rewrite == "chip_area_mm2_to_um2":
        for f in ("chips_neuromorphic.json", "chips_accelerators.json"):
            set_unit(docs[f], "area", "mm^2", "um^2")
            scale_fields(docs[f]["chips"], ("area",), 1e6)
    elif rewrite == "chip_energy_pJ_to_fJ":
        for f in ("chips_neuromorphic.json", "chips_accelerators.json"):
            set_unit(docs[f], "energy", "pJ", "fJ")
            scale_fields(docs[f]["chips"], ("energy_per_event",), 1e3)
    elif rewrite == "device_resistance_kOhm_to_Ohm":
        set_unit(docs["devices.json"], "resistance", "kOhm", "Ohm")
        scale_fields(docs["devices.json"]["devices"], ("r_on", "r_off"), 1e3)
    elif rewrite == "device_energy_aJ_to_fJ":
        set_unit(docs["devices.json"], "energy", "aJ", "fJ")
        scale_fields(docs["devices.json"]["devices"], ("energy", "energy_ic"), 1e-3)
    elif rewrite == "primitive_area_nm2_to_um2":
        doc = docs["circuit_primitives.json"]
        set_unit(doc, "area", "nm^2", "um^2")
        for cells in doc["families"].values():
            scale_fields(cells.values(), ("area",), 1e-6)
    else:
        raise ValueError(rewrite)


UNIT_REWRITES = (
    "chip_area_mm2_to_um2",
    "chip_energy_pJ_to_fJ",
    "device_resistance_kOhm_to_Ohm",
    "device_energy_aJ_to_fJ",
    "primitive_area_nm2_to_um2",
)


@dataclass
class DatasetCopy:
    directory: Path
    kind: str  # "units": unit-rewritten, same physical values; "perturbed": values changed
    workloads: list[str]  # the two inference workloads swept on this copy
    expected: Optional[dict] = None  # reference sweep of a perturbed copy


class PerturbedSweep:
    """Each operation is one round over N seeded dataset copies: for every
    copy, a fresh registry from `load_datasets` and a sweep of it. The six
    inference workloads are split into three seeded pairs, each swept on one
    unit-rewritten and one value-perturbed copy, so every round does the same
    work whatever the seed."""

    N_COPIES = 6
    CHIP_FIELDS = ("area", "power", "syn_throughput", "energy_per_event", "fire_rate", "clock")

    def __init__(self, ctx: Context):
        self.ctx = ctx
        rng = random.Random(ctx.seed)
        base = {f.name: json.loads(f.read_text()) for f in sorted(ctx.data_dir.glob("*.json"))}
        self.default_chips = registry.load_datasets(ctx.data_dir).chips
        names = sorted(ctx.golden["workloads"])
        rng.shuffle(names)
        self.copies: list[DatasetCopy] = []
        for k in range(self.N_COPIES):
            docs = json.loads(json.dumps(base))
            pair = sorted(names[2 * (k // 2) : 2 * (k // 2) + 2])
            if k % 2 == 0:
                kind = "units"
                for rewrite in rng.sample(UNIT_REWRITES, rng.randint(2, len(UNIT_REWRITES))):
                    _rewrite_units(docs, rewrite)
            else:
                kind = "perturbed"
                docs["constants.json"]["supply_voltage"] *= rng.uniform(0.9, 1.1)
                families = docs["circuit_primitives.json"]["families"]
                family = rng.choice(sorted(families))
                cell = rng.choice(sorted(families[family]))
                field = rng.choice(("area", "delay", "energy"))
                families[family][cell][field] *= rng.uniform(0.8, 1.25)
            directory = ctx.run_dir / f"dataset_{k}"
            directory.mkdir(parents=True)
            for fname, doc in docs.items():
                (directory / fname).write_text(json.dumps(doc, indent=1), encoding="utf-8")
            self.copies.append(DatasetCopy(directory, kind, pair))
        for copy in self.copies:
            if copy.kind == "perturbed":
                copy.expected = self._reference(copy)
        self.first_dataset = self.copies[0].directory

    def _reference(self, copy: DatasetCopy) -> dict:
        """Sweep of one copy in a fresh interpreter, so no in-process cache is shared."""
        proc = subprocess.run(
            [self.ctx.python, str(self.ctx.root / "perfbench" / "reference.py"), str(copy.directory), *copy.workloads],
            cwd=self.ctx.root, env=self.ctx.env, capture_output=True, text=True, check=True,
        )
        expected = json.loads(proc.stdout)
        golden = self.ctx.golden["elements"]
        if all(expected["elements"][label] == cols for label, cols in golden.items()):
            raise RuntimeError(f"{copy.directory.name}: perturbation left every element row unchanged")
        return expected

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def op(self, i: int) -> list:
        out = []
        for copy in self.copies:
            reg = registry.load_datasets(copy.directory)
            out.append((reg, sweep(reg, copy.workloads)))
        return out

    def check(self, i: int, out: list) -> list[str]:
        errors: list[str] = []
        for copy, (reg, got) in zip(self.copies, out):
            where = copy.directory.name
            if copy.kind == "units":
                g = self.ctx.golden
                _compare_rows(f"{where} elements", got["elements"], g["elements"], errors)
                for name in copy.workloads:
                    _compare_workload(f"{where} workload {name}", got["workloads"][name], g["workloads"][name], errors)
                if set(reg.chips) != set(self.default_chips):
                    errors.append(f"{where}: chip names differ")
                for name, c in reg.chips.items():
                    for f in self.CHIP_FIELDS:
                        want, value = getattr(self.default_chips.get(name), f, None), getattr(c, f)
                        if (want is None) != (value is None) or (want is not None and not _close(value, want)):
                            errors.append(f"{where}: chip {name}.{f}: {value!r} != {want!r}")
            else:
                expected = copy.expected
                if got != expected:
                    errors.append(f"{where}: sweep differs from its fresh-interpreter reference")
        return errors


WORKLOADS = {"surface": Surface, "cli_oneshot": CliOneshot, "perturbed_sweep": PerturbedSweep}
