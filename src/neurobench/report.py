"""Emitters: the full element matrix, chip comparison tables, energy-delay
scatter datasets, Pareto fronts, and the per-technology evaluation pipeline
that feeds them. All tabular output is deterministic: fixed row order
(technology dataset order), fixed precision, '.' decimal separator, LF
line endings. Each document is one `%` on a template built once per call.
A text cell from the dataset (a technology label or chip name) is quoted as
RFC 4180 says: wrapped in double quotes when it holds a comma, a double
quote, CR or LF, with each double quote doubled."""

from __future__ import annotations

import json
import math
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import units
from .ade import FigureError
from .chip import ChipBench, ChipConfig, area_terms, chip_area, chip_bench, nominal_config
from .elements import build_raw_element, cmos_drive, raw_inputs, wire_drive
from .interconnect import ElementBench, assemble_row, wiring
from .networks import network_transform, transform_terms
from .registry import GlobalConstants, Registry, Technology, UnknownNameError, _text, own_name

if TYPE_CHECKING:  # used in annotations only
    from .workload import WorkloadBench

MATRIX_HEADER = (
    "technology",
    "area_syn_um2", "area_lic_um2", "area_neu_um2", "area_gic_um2",
    "delay_syn_ps", "delay_lic_ps", "delay_neu_ps", "delay_gic_ps",
    "energy_syn_aJ", "energy_lic_aJ", "energy_neu_aJ", "energy_gic_aJ",
)

_new = tuple.__new__

class ScatterPoint(NamedTuple):
    label: str
    x: float
    y: float
    series: str


def _point(label: str, x: float, y: float, series: str) -> ScatterPoint:
    """The one constructor `scatter_dataset` uses: plots need finite, positive coordinates."""
    if not (math.isfinite(x) and math.isfinite(y) and x > 0 and y > 0):
        raise FigureError(f"scatter point {label}: coordinates must be finite and positive")
    return _new(ScatterPoint, (label, x, y, series))


def bench_technology(tech: Technology, registry: Registry, cfg: Optional[ChipConfig] = None) -> ElementBench:
    """Raw element -> network transform -> interconnect merge for one technology.

    Rows for the nominal chip (`cfg` None) are built once per registry content; a row
    for an explicit `cfg` is built on every call. `tech` must be the
    registry's record of its label, or equal to it.
    """
    label = tech.label if registry.technologies.get(tech.label) is tech else own_name(registry, tech)
    if cfg is not None:
        return _build_row(tech, registry, cfg)
    key = "row", label
    return registry._memo.get(key) or registry._memo.setdefault(key, _build_row(tech, registry))


def _row_terms(constants: GlobalConstants) -> tuple:
    """(nominal config, its `area_terms`, `wiring`, `transform_terms`, `cmos_drive`): what rows read of the constants."""
    nominal = nominal_config(constants)
    return nominal, area_terms(nominal, constants), wiring(constants), transform_terms(constants), cmos_drive(constants)


def _build_row(tech: Technology, registry: Registry, cfg: Optional[ChipConfig] = None) -> ElementBench:
    """A technology's row; a `FigureError` while building it, such as an overflow, names the technology."""
    memo = registry._memo
    terms = memo.get(("row terms",)) or memo.setdefault(("row terms",), _row_terms(registry.constants))
    config, area, wire, transform, i_cmos = terms
    if cfg is not None:  # an explicit config has its own area terms
        config, area = cfg, area_terms(cfg, registry.constants)
    try:
        key = "raw element", *raw_inputs(tech)
        raw = memo.get(key) or memo.setdefault(key, build_raw_element(tech, registry))
        net = network_transform(raw, tech, registry, transform)
        a_syn = net.synapse.area
        return assemble_row(
            net,
            a_syn * config.neurons_per_core * config.synapses_per_neuron,  # one core's synapse block
            chip_area(area, net.neuron.area, a_syn),
            wire,
            *wire_drive(tech, registry, i_cmos),
        )
    except FigureError as e:
        raise FigureError(f"technology {tech.label}: {e}") from e


def bench_chip(tech: Technology, registry: Registry, cfg: Optional[ChipConfig] = None) -> ChipBench:
    """`chip_bench` of a technology's chip `cfg`, by default its nominal chip
    (spiking for an SNN) from its row in the memo; a figure that overflows names
    the technology."""
    row = bench_technology(tech, registry, cfg)  # first, as it checks that `tech` is the registry's
    if cfg is None:
        cfg = nominal_config(registry.constants, spiking=tech.network_kind == "SNN")
    try:
        return chip_bench(cfg, row, registry.constants)
    except FigureError as e:
        raise FigureError(f"technology {tech.label}: {e}") from e


def bench_workload(
    workload_name: str,
    tech: Technology,
    registry: Registry,
    schedule: Optional[str] = None,
) -> WorkloadBench:
    """Run a named workload on one technology at the fan-in of its class
    (`Registry.fan_in`), which also picks the default schedule. The result
    is built once per registry content."""
    label = tech.label if registry.technologies.get(tech.label) is tech else own_name(registry, tech)
    key, memo = ("workload", workload_name, label, schedule), registry._memo
    return memo.get(key) or memo.setdefault(key, _workload_bench(workload_name, tech, registry, schedule))


def _workload_bench(workload_name: str, tech: Technology, registry: Registry, schedule: Optional[str]) -> WorkloadBench:
    """The workload on the technology's row; a `FigureError`, such as an overflow, names both."""
    from .workload import run_workload  # only a workload bench loads the workload layer

    spec, row = registry.workload(workload_name), bench_technology(tech, registry)
    fan_in = registry.fan_in[tech.fan_in_class]
    try:
        return run_workload(spec, row, registry, network_kind=tech.network_kind, fan_in=fan_in, schedule=schedule)
    except FigureError as e:
        raise FigureError(f"technology {tech.label}, workload {workload_name}: {e}") from e


def matrix_columns(bench: ElementBench) -> tuple[float, ...]:
    """`ElementBench.columns` with the four areas in um^2, matching the reference matrix."""
    columns = bench.columns()
    um2 = units.AREA_TO_NM2["um^2"]
    return (columns[0] / um2, columns[1] / um2, columns[2] / um2, columns[3] / um2) + columns[4:]


def element_matrix(registry: Registry, network_kind: Optional[str] = None) -> list[ElementBench]:
    return [bench_technology(t, registry) for t in registry.enumerate_technologies(network_kind)]


def _csv_lines(header: tuple, template: str, cells: list) -> str:
    """CSV of one document: `template` holds the formats of its rows and `cells`, flat, their
    cells, each row's first cell dataset text."""
    width = len(header)
    if not "".join(cells[::width]).isalnum():  # else no text cell needs quoting
        cells[::width] = map(_text, cells[::width])
    return ",".join(header) + "\n" + template % tuple(cells)


def emit_matrix(
    registry: Registry,
    scope: str = "elements",
    *,
    workload: Optional[str] = None,
    network_kind: Optional[str] = None,
    precision: int = 6,
    fmt: str = "csv",
) -> str:
    """Tabular document for one scope: 'elements', 'workload' (named), or 'chips'. Each cell has a
    format, "%s" or "%.<precision>g"; a row joins its formats with commas, the template its rows."""
    figure = f"%.{precision}g"
    cells: list = []
    if scope == "elements":
        header = MATRIX_HEADER
        techs = registry.enumerate_technologies(network_kind)
        template = ",".join(["%s", *[figure] * 12]) + "\n"
        template *= len(techs)
        for tech in techs:
            cells.append(tech.label)
            cells += matrix_columns(registry._memo.get(("row", tech.label)) or bench_technology(tech, registry))
    elif scope == "workload":
        if workload is None:
            raise UnknownNameError("workload scope requires a workload name")
        registry.workload(workload)  # raise early on unknown names
        header = ("technology", "area_nm2", "delay_ps", "energy_aJ", "power_W", "inferences_per_s", "schedule")
        techs = registry.enumerate_technologies(network_kind)
        template = ",".join(["%s", *[figure] * 5, "%s"]) + "\n"
        template *= len(techs)
        for tech in techs:
            label = tech.label
            bench = registry._memo.get(("workload", workload, label, None)) or bench_workload(workload, tech, registry)
            area, delay, energy, schedule = bench
            power_w = energy / delay * units.W_PER_AJ_PER_PS  # as WorkloadBench.power_w and .inferences_per_s
            cells += label, area, delay, energy, power_w, units.PS_PER_S / delay, schedule
    elif scope == "chips":
        from .topsdown import IncomputableError, topsdown_element  # the other scopes never load tops-down

        header = (
            "chip", "kind", "synapse_area_nm2", "neuron_area_nm2",
            "synapse_delay_ps", "synapse_energy_aJ", "neuron_energy_aJ",
        )
        row, blank = ",".join(["%s", "%s", *[figure] * 5]) + "\n", ",".join(["%s"] * 7) + "\n"
        template = ""
        for name in sorted(registry.chips):
            chip = registry.chips[name]
            try:
                neuron_area, synapse_area, *figures = topsdown_element(chip, registry)
            except IncomputableError:
                cells += name, chip.kind, "", "", "", "", ""
                template += blank
            else:
                cells += name, chip.kind, synapse_area, neuron_area, *figures  # delay, synapse and neuron energy
                template += row
    else:
        raise UnknownNameError(f"unknown matrix scope {scope!r}")

    if fmt == "csv":
        return _csv_lines(header, template, cells)
    if fmt == "json":
        texts = [f % c for f, c in zip(template.replace("\n", ",").split(","), cells)]
        width = len(header)
        table = [dict(zip(header, texts[i : i + width])) for i in range(0, len(texts), width)]
        return json.dumps(table, indent=1, sort_keys=True) + "\n"
    raise UnknownNameError(f"unknown export format {fmt!r}")


def scatter_dataset(registry: Registry, what: str = "neuron", workload: Optional[str] = None) -> list[ScatterPoint]:
    """Plot-ready points.

    'synapse' / 'neuron': energy (aJ) vs delay (ps) per technology.
    'workload': energy vs delay of one inference per technology.
    'power': dissipated power density (W/nm^2) vs inference throughput
             per area (1/(nm^2 ps)) for one workload.
    """
    points = []
    if what in ("synapse", "neuron"):
        part = 0 if what == "synapse" else 1  # its wire is 2 positions on; the sum is `synapse_total` or `neuron_total`
        for tech in registry.enumerate_technologies():
            label = tech.label
            row = registry._memo.get(("row", label)) or bench_technology(tech, registry)
            (_, delay, energy), (_, wire_delay, wire_energy) = row[part], row[part + 2]
            points.append(_point(label, delay + wire_delay, energy + wire_energy, tech.network_kind))
    elif what in ("workload", "power"):
        if workload is None:
            raise UnknownNameError(f"{what} scatter requires a workload name")
        for tech in registry.enumerate_technologies():
            b = bench_workload(workload, tech, registry)
            x, y = (b.delay, b.energy) if what == "workload" else (b.power_w / b.area, b.inference_throughput)
            try:
                points.append(_point(tech.label, x, y, tech.network_kind))
            except FigureError as e:  # names the workload, as `bench_workload` does
                raise FigureError(f"technology {tech.label}, workload {workload}: {e}") from e
    else:
        raise UnknownNameError(f"unknown scatter kind {what!r}")
    return points


def pareto_front(points: list[ScatterPoint]) -> list[ScatterPoint]:
    """Non-dominated subset, minimizing both coordinates.

    A point survives iff no other point is <= in both coordinates and < in at
    least one. Output is sorted by (x, y, label), independent of input order.
    One pass over that order: the last point kept has the least y so far,
    at the least x with that y, so a point is dominated iff that one
    dominates it. Equal points all survive.
    """
    front = []
    for p in sorted(points, key=itemgetter(1, 2, 0)):  # by (x, y, label); p[1] is x, p[2] y
        if not front or p[2] < last[2] or (p[2] == last[2] and p[1] == last[1]):
            front.append(last := p)
    return front


def emit_scatter(points: list[ScatterPoint], precision: int = 6) -> str:
    template = f"%s,%.{precision}g,%.{precision}g,%s\n" * len(points)
    return _csv_lines(ScatterPoint._fields, template, [*chain.from_iterable(points)])


def geometric_mean_neuron_delay(registry: Registry, network_kind: str) -> float:
    """Geometric mean of the neuron delay column over one network kind."""
    delays = [b.neuron.delay for b in element_matrix(registry, network_kind)]
    if not delays:
        raise ValueError(f"no {network_kind} technologies: their geometric-mean neuron delay is undefined")
    total = 0.0
    for d in delays:  # left to right, as `workload.aggregate` sums
        total += math.log(d)
    return math.exp(total / len(delays))


def speech_comparison(registry: Registry) -> dict[str, dict[str, float]]:
    """Computed speech-recognition workload figures for the two chips with
    published measurements, alongside those measurements. Exploratory: the
    model is optimistic by construction and no tolerance applies. A chip or
    the `speech_mlp` workload that the registry lacks is skipped, and so is
    a chip whose figures are incomputable (as `emit_matrix` blanks its row)."""
    from .topsdown import run_workload_on_chip

    published = {
        "Loihi": {"inferences_per_s": 89.8, "energy_per_inference_uJ": 770.0},
        "Myriad 2": {"inferences_per_s": 300.0, "energy_per_inference_uJ": 1500.0},
    }
    out = {}
    for name, measured in published.items():
        try:
            bench = run_workload_on_chip(registry.chip(name), registry.workload("speech_mlp"), registry)
        except UnknownNameError:  # a name the registry lacks, or an `IncomputableError`
            continue
        computed_rate = bench.inferences_per_s
        computed_energy_uj = bench.energy * units.UJ_PER_AJ
        out[name] = {
            "computed_inferences_per_s": computed_rate,
            "published_inferences_per_s": measured["inferences_per_s"],
            "rate_ratio": computed_rate / measured["inferences_per_s"],
            "computed_energy_per_inference_uJ": computed_energy_uj,
            "published_energy_per_inference_uJ": measured["energy_per_inference_uJ"],
            "energy_ratio": computed_energy_uj / measured["energy_per_inference_uJ"],
        }
    return out
