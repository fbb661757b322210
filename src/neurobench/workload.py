"""Maps inference workloads onto neural cores.

A workload is a list of fully-connected or convolution layers. Each layer
becomes a stage on one core (replicated per feature map): stage parameters
fix the core's neuron/synapse counts, limited neuron fan-in forces a
cascade of intermediate neurons (fan-in 1 is sequential operation: one
neuron absorbs one input per level), core area is the larger of the circuit
estimate and the wiring limit, and stages aggregate either in parallel or
time-multiplexed onto a single core. The fan-in is the whole run policy: it
also picks the default schedule.

Evaluation is split in two. `workload_plan` compiles a workload at one
network kind and fan-in into `StagePlan` entries, the counts that no
technology changes, once per distinct spec value in a bounded cache. One
generator, `_stage_figures`, then evaluates every planned stage of one
element row, and `aggregate` sums what it yields in one pass, so
`run_workload` builds no per-stage object. `stage_benches` is the
per-stage view of the same generator.

A spec reaches `run_workload` only as its registry's record, so the
loader's checks of workloads.json hold for every planned layer: a known
kind, counts of at least 1, a kernel within the image under valid padding
and at least one layer. The model checks none of them again.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional

from . import units
from .registry import own_name

if TYPE_CHECKING:  # avoid runtime cycles; duck-typed at runtime
    from .interconnect import ElementBench
    from .registry import LayerSpec, Registry, WorkloadSpec


class StageParams(NamedTuple):
    n_in: int
    n_out: int
    s_neu: int  # synapses per output neuron
    f_st: int  # feature maps = core copies
    r_a: float


class StagePlan(NamedTuple):
    """One stage's technology-independent counts at one fan-in."""

    neurons: int  # cascade neurons of every output, plus the inputs
    synapses: int  # n_out * s_neu
    wires: int  # n_in * n_out, routed at the metal pitch
    levels: int  # cascade depth: synapse delays per stage
    active_synapses: float  # r_a * s_neu * n_out
    n_out: int
    f_st: int


class StageBench(NamedTuple):
    area: float  # nm^2
    delay: float  # ps
    energy: float  # aJ
    f_st: int


class WorkloadBench(NamedTuple):
    area: float  # nm^2
    delay: float  # ps
    energy: float  # aJ
    schedule: str  # parallel | time_multiplexed

    @property
    def power(self) -> float:
        """aJ/ps."""
        return self.energy / self.delay

    @property
    def power_w(self) -> float:
        return self.power * units.W_PER_AJ_PER_PS

    @property
    def inference_throughput(self) -> float:
        """Inferences per unit area-time, 1/(nm^2 ps)."""
        return 1.0 / (self.area * self.delay)

    @property
    def inferences_per_s(self) -> float:
        return units.PS_PER_S / self.delay


def stage_params(layer: LayerSpec, stage_index: int, network_kind: str) -> StageParams:
    """Core-level counts for one layer, the `stage_index`-th (from 1).

    Spiking activity decays as 1/stage down the network; everything else runs
    at full activity. Convolutions count every contributing input-map pixel
    as an input neuron.
    """
    r_a = 1.0 / stage_index if network_kind == "SNN" else 1.0
    if layer.kind == "fully_connected":
        return StageParams(n_in=layer.inputs, n_out=layer.outputs, s_neu=layer.inputs, f_st=1, r_a=r_a)
    if layer.padding == "valid":  # a convolution
        out_w = (layer.image_w - layer.kernel) // layer.stride + 1
        out_h = (layer.image_h - layer.kernel) // layer.stride + 1
    else:  # same
        out_w = math.ceil(layer.image_w / layer.stride)
        out_h = math.ceil(layer.image_h / layer.stride)
    return StageParams(
        n_in=layer.image_w * layer.image_h * layer.in_channels,
        n_out=out_w * out_h,
        s_neu=layer.kernel * layer.kernel * layer.in_channels,
        f_st=layer.feature_maps,
        r_a=r_a,
    )


def cascade(fan_in: Optional[int], s_neu: int) -> tuple[int, int]:
    """Levels and total neurons of the reduction tree combining s_neu inputs.

    fan_in None means unlimited (one neuron absorbs everything). fan_in 1 is
    the sequential mode: one neuron absorbs one input per level. Integer
    arithmetic throughout; no float logs.
    """
    if fan_in is None:
        return 1, 1
    if fan_in < 1:
        raise ValueError(f"fan-in must be >= 1, got {fan_in}")
    if fan_in == 1:
        return s_neu, 1
    levels = 1
    capacity = fan_in
    while capacity < s_neu:
        capacity *= fan_in
        levels += 1
    neurons = (fan_in**levels - 1) // (fan_in - 1)
    return levels, neurons


def plan_stage(stage: StageParams, fan_in: Optional[int]) -> StagePlan:
    """The counts of one stage at one fan-in that no technology changes.

    Each output neuron has a synapse per input it reads: every input of a
    fully-connected layer (a cross-connect), the kernel window of a
    convolution. The core also holds the cascade neurons of every output and
    the input neurons.
    """
    levels, n_cas = cascade(fan_in, stage.s_neu)
    return StagePlan(
        neurons=n_cas * stage.n_out + stage.n_in,
        synapses=stage.n_out * stage.s_neu,
        wires=stage.n_in * stage.n_out,
        levels=levels,
        active_synapses=stage.r_a * stage.s_neu * stage.n_out,
        n_out=stage.n_out,
        f_st=stage.f_st,
    )


# the shipped workloads need 66 plans: 6 workloads x 11 (network kind, fan-in) pairs
@functools.lru_cache(maxsize=128)
def workload_plan(spec: WorkloadSpec, network_kind: str, fan_in: Optional[int]) -> tuple[StagePlan, ...]:
    """The plan of every layer, in order; built once per spec value, network
    kind and fan-in, so specs equal in value share it."""
    layers = enumerate(spec.layers, start=1)
    return tuple(plan_stage(stage_params(layer, index, network_kind), fan_in) for index, layer in layers)


def _stage_figures(
    plan: tuple[StagePlan, ...],
    elem: "ElementBench",
    registry: "Registry",
) -> Iterator[tuple[float, float, float, int]]:
    """Area (nm^2), delay (ps), energy (aJ) and feature maps of every planned
    stage, in order: the one statement of the stage model.

    Core area is the overhead-corrected circuit estimate, floored by routing
    n_in x n_out wires at the metal pitch. A stage pays one synapse delay per
    cascade level, so sequential operation (fan-in 1) pays one per synapse.
    Synapse figures include the core interconnect, neuron figures the chip
    interconnect. The per-row terms are computed once, before the first stage.
    """
    (a_syn, t_syn, e_syn), (a_neu, t_neu, e_neu), (_, t_core, e_core), (_, t_chip, e_chip) = elem
    t_syn, e_syn, t_neu, e_neu = t_syn + t_core, e_syn + e_core, t_neu + t_chip, e_neu + e_chip  # the two totals
    constants = registry.constants
    core_overhead = constants.core_overhead
    neuron_site = constants.neuron_overhead * a_neu
    synapse_site = constants.synapse_overhead * a_syn
    p = constants.wire_pitch
    for neurons, synapses, wires, levels, active_synapses, n_out, f_st in plan:
        circuit = core_overhead * (neuron_site * neurons + synapse_site * synapses)
        floor = wires * p * p
        yield (
            floor if floor > circuit else circuit,  # max(circuit, floor)
            levels * t_syn + t_neu,
            active_synapses * e_syn + n_out * e_neu,
            f_st,
        )


def stage_benches(
    plan: tuple[StagePlan, ...],
    elem: "ElementBench",
    registry: "Registry",
) -> list[StageBench]:
    """The per-stage view of a workload row: one `StageBench` per planned
    stage, with the figures `run_workload` sums."""
    return list(map(StageBench._make, _stage_figures(plan, elem, registry)))


def aggregate(stages: Iterable[tuple[float, float, float, int]], schedule: str) -> WorkloadBench:
    """Combine per-stage figures, `(area, delay, energy, f_st)` each (a
    `StageBench` is one), in one pass.

    Parallel gives every stage its own cores (areas add, feature maps
    multiply area); time-multiplexed reuses one core (area is the maximum,
    feature maps multiply delay). Energy is identical across schedules.

    The sums run left to right over the stages, uncompensated, so every
    Python gives the same bits (`sum()` of floats is compensated from 3.12).
    A figure that overflows raises.
    """
    if schedule not in ("parallel", "time_multiplexed"):
        raise ValueError(f"unknown schedule {schedule!r}")
    parallel = schedule == "parallel"
    area = delay = energy = 0.0
    for s_area, s_delay, s_energy, f_st in stages:
        energy += s_energy * f_st
        if parallel:
            area += s_area * f_st
            delay += s_delay
        else:
            if s_area > area:  # max(area, s_area)
                area = s_area
            delay += s_delay * f_st
    bench = WorkloadBench(area, delay, energy, schedule)
    if not (math.isfinite(area) and math.isfinite(delay) and math.isfinite(energy)):
        raise ValueError(f"workload figures must be finite: {bench}")
    return bench


def run_workload(
    spec: WorkloadSpec,
    elem: "ElementBench",
    registry: "Registry",
    *,
    network_kind: str = "ANN",
    fan_in: Optional[int] = None,
    schedule: Optional[str] = None,
) -> WorkloadBench:
    """Evaluate a whole workload on one element bench with the registry's constants.

    Without an explicit schedule, sequential operation (fan-in 1) reuses one
    core time-multiplexed and every other fan-in runs the stages in parallel.
    `spec` must be the registry's record of its name, or equal to it.
    """
    own_name(registry, spec)
    return aggregate(
        _stage_figures(workload_plan(spec, network_kind, fan_in), elem, registry),
        schedule or ("time_multiplexed" if fan_in == 1 else "parallel"),
    )
