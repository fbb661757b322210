"""Tops-down benchmarking of fabricated chips.

Published totals (area, power, throughput, event energy, firing rate) are
decomposed into per-synapse and per-neuron figures. Neuromorphic chips give
5% of their area to neurons and the rest to synapses; digital accelerators
spend only 10% of their area on compute, split in the same proportion, and
run clock-driven and sequential. Derived (asterisked) dataset values are
back-filled from the two consistency identities

    throughput = fire_rate * activity * total_synapses
    power      = throughput * event_energy

and quoted values are never overwritten.

A chip or workload spec reaches the model only as its registry's record,
or one equal to it (`registry.own_name`), and the memo keys it by name.
The one other chip accepted is that record back-filled, the chip of
`topsdown --backfill`: a pure function of the record, keyed
`("backfill", name)`. Any other chip or spec raises `UnknownNameError`
before any memo lookup, so a changed chip comes from `neurobench.derive`.

`backfill_derived` is itself a pure function of the chip's value, kept in a
bounded `functools.lru_cache`: equal chips, from any registry, share one
`BackfillResult`, whose `filled` and `residuals` are read-only mappings. An
incomputable chip raises on every call and is not cached.
"""

from __future__ import annotations

import functools
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import units
from .ade import AdeTriple, FigureError
from .interconnect import ElementBench
from .registry import ChipRecord, Registry, UnknownNameError, WorkloadSpec, own_name
from .workload import WorkloadBench, run_workload


class IncomputableError(UnknownNameError):
    """A tops-down figure needs a field the record does not carry."""


class TopsDownElement(NamedTuple):
    neuron_area: float  # nm^2
    synapse_area: float  # nm^2
    synapse_delay: float  # ps
    synapse_energy: float  # aJ
    neuron_energy: float  # aJ

    def as_element_bench(self) -> ElementBench:
        """Element bench with empty interconnect triples; published totals
        already include all wiring. The neuron is booked at one event time."""
        return ElementBench(
            synapse=AdeTriple(self.synapse_area, self.synapse_delay, self.synapse_energy),
            neuron=AdeTriple(self.neuron_area, self.synapse_delay, self.neuron_energy),
        )


def _require(chip: ChipRecord, field_name: str) -> float:
    value = getattr(chip, field_name)
    if value is None:
        raise IncomputableError(f"chip {chip.name}: {field_name} required but absent")
    return value


def topsdown_element(chip: ChipRecord, registry: Registry) -> TopsDownElement:
    """Per-synapse and per-neuron figures from a chip's published totals.

    A neuromorphic chip splits its whole area between neurons and synapses
    and runs one synaptic event every 1/(fire_rate * activity * s_neu); an
    accelerator splits only its compute fraction of the area, runs one MAC
    per clock and, unless the record quotes an activity, runs at full
    activity. The element is computed once per registry content and chip;
    an incomputable chip, or a figure that overflows, raises on every call.
    """
    key = "chip element", chip.name if registry.chips.get(chip.name) is chip else _chip_key(chip, registry)
    return registry._memo.get(key) or registry._memo.setdefault(key, _element(chip, registry))


def _chip_key(chip: ChipRecord, registry: Registry):
    """The memo's key for a chip that is not the very record the registry holds
    under its name: `("backfill", name)` when it equals that record back-filled,
    else the name of a chip equal to the record (`own_name`); any other raises."""
    own = registry.chips.get(chip.name)
    if own is not None and own != chip:
        try:
            if chip == backfill_derived(own).chip:
                return "backfill", chip.name
        except IncomputableError:  # a record that cannot be back-filled has no back-filled chip
            pass
    return own_name(registry, chip)


def _element(chip: ChipRecord, registry: Registry) -> TopsDownElement:
    p = registry.topsdown_params
    if chip.kind == "neuromorphic":
        budget = _require(chip, "area")
        fire_rate = _require(chip, "fire_rate")
        activity = _require(chip, "activity")
        # spiking rate inverted: one synaptic event every 1/(f * r_a * s_neu)
        tau_syn = 1.0 / (fire_rate * activity * chip.synapses_per_neuron) * units.PS_PER_S
    else:
        clock = _require(chip, "clock")
        budget = p["accelerator_compute_fraction"] * _require(chip, "area")
        tau_syn = 1.0 / clock * units.PS_PER_S  # one MAC per clock
        activity = chip.activity if chip.activity is not None else 1.0
    e_syn = _require(chip, "energy_per_event")
    per_neuron = chip.cores * chip.neurons_per_core
    neuron_area_fraction = p["neuron_area_fraction"]
    element = TopsDownElement(
        neuron_area=neuron_area_fraction * budget / per_neuron,
        synapse_area=(1.0 - neuron_area_fraction) * budget / (per_neuron * chip.synapses_per_neuron),
        synapse_delay=tau_syn,
        synapse_energy=e_syn,
        neuron_energy=e_syn * activity * chip.synapses_per_neuron,
    )
    if not all(map(math.isfinite, element)):
        field, value = next((f, v) for f, v in zip(element._fields, element) if not math.isfinite(v))
        raise FigureError(f"chip {chip.name}: tops-down {field} {value:g} is not finite")
    return element


# -- consistency back-fill ---------------------------------------------------

THROUGHPUT_IDENTITY = "throughput = fire_rate * activity * total_synapses"
POWER_IDENTITY = "power = throughput * event_energy"


class BackfillResult(NamedTuple):
    chip: ChipRecord
    filled: Mapping[str, str]  # field -> identity that produced it
    residuals: Mapping[str, float]  # identity -> relative residual, fully-quoted identities only


# Each identity maps each of its fields to that field solved from the other two;
# its first field is the side a residual compares.
_IDENTITIES = (
    (THROUGHPUT_IDENTITY, {
        "syn_throughput": lambda c: c.fire_rate * c.activity * c.total_synapses,
        "fire_rate": lambda c: c.syn_throughput / (c.activity * c.total_synapses),
        "activity": lambda c: c.syn_throughput / (c.fire_rate * c.total_synapses),
    }),
    (POWER_IDENTITY, {
        "power": lambda c: c.syn_throughput * c.energy_per_event * units.J_PER_AJ,
        "syn_throughput": lambda c: c.power / (c.energy_per_event * units.J_PER_AJ),
        "energy_per_event": lambda c: c.power / c.syn_throughput * units.AJ_PER_J,
    }),
)


# the shipped data has 27 chips; the rest is room for derived ones
@functools.lru_cache(maxsize=128)
def backfill_derived(chip: ChipRecord) -> BackfillResult:
    """Re-derive every field flagged as derived from the consistency identities.

    Quoted fields are never touched. A flagged or absent field that no
    identity can reach with a single unknown raises; nothing is guessed. So
    does a back-filled value that is not finite and positive, a back-filled
    activity outside (0, 1] and a residual that is not finite. Computed once
    per chip value: equal chips share the result, so its mappings are
    read-only.
    """
    # clock-driven parts have no firing-rate identity
    identities = _IDENTITIES[1:] if chip.kind == "accelerator" else _IDENTITIES

    flagged = set(chip.derived_fields)
    unknown_fields = {
        f
        for _, solvers in identities
        for f in solvers
        if getattr(chip, f) is None or f in flagged
    }
    current = chip
    filled: dict[str, str] = {}
    residuals: dict[str, float] = {}
    progress = True
    while progress:
        progress = False
        for name, solvers in identities:
            unknowns = [f for f in solvers if f in unknown_fields]
            if len(unknowns) == 1:
                f = unknowns[0]
                value = solvers[f](current)
                if not 0.0 < value < math.inf:
                    raise IncomputableError(f"chip {chip.name}: back-filled {f} {value:g} is not finite and positive")
                current = current._replace(**{f: value})
                filled[f] = name
                unknown_fields.discard(f)
                progress = True
    if unknown_fields:
        raise IncomputableError(
            f"chip {chip.name}: under-determined; cannot derive {sorted(unknown_fields)} "
            "from the consistency identities"
        )
    if "activity" in filled and not 0.0 < current.activity <= 1.0:
        raise IncomputableError(f"chip {chip.name}: back-filled activity {current.activity:g} lies outside (0, 1]")
    for name, solvers in identities:
        if any(f in filled for f in solvers):
            continue  # identity was consumed by a solve; residual is zero by construction
        f, solve = next(iter(solvers.items()))
        lhs = getattr(current, f)
        rhs = solve(current)
        residual = abs(lhs - rhs) / rhs if rhs else math.inf
        if not residual < math.inf:
            raise IncomputableError(f"chip {chip.name}: residual {residual:g} of {name} is not finite")
        residuals[name] = residual
    return BackfillResult(chip=current, filled=MappingProxyType(filled), residuals=MappingProxyType(residuals))


def run_workload_on_chip(chip: ChipRecord, spec: WorkloadSpec, registry: Registry) -> WorkloadBench:
    """Evaluate a workload with the chip's tops-down element figures.

    Accelerators run as ANN at the "sequential" fan-in; neuromorphic chips
    run with spiking semantics (activity decaying per stage) at the "snn"
    fan-in. The result is computed once per registry content, chip and
    workload.
    """
    chip_key = chip.name if registry.chips.get(chip.name) is chip else _chip_key(chip, registry)
    spec_key = spec.name if registry.workloads.get(spec.name) is spec else own_name(registry, spec)
    key = "chip workload", chip_key, spec_key
    return registry._memo.get(key) or registry._memo.setdefault(key, _chip_workload(chip, spec, registry))


def _chip_workload(chip: ChipRecord, spec: WorkloadSpec, registry: Registry) -> WorkloadBench:
    elem = topsdown_element(chip, registry).as_element_bench()
    network_kind, fan_in_class = ("ANN", "sequential") if chip.kind == "accelerator" else ("SNN", "snn")
    try:
        return run_workload(spec, elem, registry, network_kind=network_kind, fan_in=registry.fan_in[fan_in_class])
    except FigureError as e:  # an overflow names the chip and the workload
        raise FigureError(f"chip {chip.name}, workload {spec.name}: {e}") from e
