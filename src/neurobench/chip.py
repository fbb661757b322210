"""Whole-chip aggregation: synapse counts, overhead-corrected area, firing
rates, time step, per-event energy, synaptic throughput, power, and energy
per step, for a configurable (by default nominal) chip."""

from __future__ import annotations

import math
from typing import NamedTuple

from . import units
from .ade import FigureError
from .interconnect import ElementBench
from .registry import Fraction, GlobalConstants

_new = tuple.__new__


class _ChipConfig(NamedTuple):
    cores: int
    neurons_per_core: int
    synapses_per_neuron: int
    activity: Fraction = 1.0
    spiking: bool = False


class ChipConfig(_ChipConfig):
    """Core and neuron counts, activity and spiking mode of one chip.

    Every count is >= 1 and the activity lies in (0, 1]; construction,
    `_make` and `_replace` all check it.
    """

    __slots__ = ()

    def __new__(cls, cores, neurons_per_core, synapses_per_neuron, activity, spiking) -> "ChipConfig":
        if cores < 1 or neurons_per_core < 1 or synapses_per_neuron < 1:
            raise ValueError("chip config counts must be >= 1")
        if not (0.0 < activity <= 1.0):
            raise ValueError(f"activity must be in (0, 1], got {activity}")
        return _new(cls, (cores, neurons_per_core, synapses_per_neuron, activity, spiking))

    __new__.__defaults__ = tuple(_ChipConfig._field_defaults.values())  # activity, spiking

    @classmethod
    def _make(cls, iterable) -> "ChipConfig":
        return cls(*iterable)


class ChipBench(NamedTuple):
    total_synapses: int
    area: float  # nm^2
    firing_rate: float  # 1/ps
    time_step: float  # ps
    energy_per_event: float  # aJ, synapse plus its share of the neuron
    syn_throughput: float  # events/ps
    power: float  # aJ/ps
    energy_per_step: float  # aJ

    @property
    def power_w(self) -> float:
        return self.power * units.W_PER_AJ_PER_PS

    @property
    def syn_throughput_per_s(self) -> float:
        return self.syn_throughput * units.PS_PER_S


def nominal_config(constants: GlobalConstants, *, spiking: bool = False) -> ChipConfig:
    counts = constants.nominal_cores, constants.nominal_neurons_per_core, constants.nominal_synapses_per_neuron
    return ChipConfig(*counts, 1.0, spiking)  # at full activity


def area_terms(cfg: ChipConfig, c: GlobalConstants) -> tuple[float, float, float, float]:
    """The factors of `chip_area` that a config and the constants fix, in its order."""
    synapses = cfg.synapses_per_neuron * c.synapse_overhead
    return c.chip_overhead * cfg.cores, c.core_overhead * cfg.neurons_per_core, c.neuron_overhead, synapses


def chip_area(terms: tuple[float, float, float, float], a_neu: float, a_syn: float) -> float:
    """Layout-overhead-corrected chip area, nm^2, from the `area_terms` of its config."""
    chip_cores, core_neurons, neuron_overhead, synapses = terms
    return chip_cores * (core_neurons * (neuron_overhead * a_neu + synapses * a_syn))


def firing_rate(cfg: ChipConfig, elem: ElementBench) -> float:
    """Neuron firing rate, 1/ps. Spiking chips fire once per r_a*s_neu
    synaptic events; non-spiking ones once per synapse delay."""
    (_, t_syn, _), _, (_, t_core, _), _ = elem
    tau_syn = t_syn + t_core  # `elem.synapse_total.delay`
    if not 0.0 < tau_syn < math.inf:  # zero, or a synapse plus core-wire delay that overflows
        raise FigureError(f"firing rate undefined for synapse delay {tau_syn:g}")
    if cfg.spiking:
        return 1.0 / (cfg.activity * cfg.synapses_per_neuron * tau_syn)
    return 1.0 / tau_syn


def chip_bench(cfg: ChipConfig, elem: ElementBench, constants: GlobalConstants) -> ChipBench:
    """Chip-level figures from one element bench (interconnect included); a
    figure that overflows raises."""
    cores, neurons_per_core, synapses_per_neuron, activity, _ = cfg
    (a_syn, _, e_syn), (a_neu, t_neu, e_neu), (_, _, e_core), (_, t_chip, e_chip) = elem
    f_fire = firing_rate(cfg, elem)
    tau_step = 1.0 / f_fire + (t_neu + t_chip)
    e_event = (e_syn + e_core) + (e_neu + e_chip) / (activity * synapses_per_neuron)
    synapses = cores * neurons_per_core * synapses_per_neuron
    throughput = f_fire * activity * synapses
    power = throughput * e_event
    area = chip_area(area_terms(cfg, constants), a_neu, a_syn)
    bench = _new(ChipBench, (synapses, area, f_fire, tau_step, e_event, throughput, power, power * tau_step))
    if not all(map(math.isfinite, bench)):
        raise FigureError(f"chip figures must be finite: {bench}")
    return bench
