"""Transforms from raw element benchmarks to network-type-specific benchmarks.

Four signal classes: ANN (identity), CeNN (extra synapses and settling
steps), SNN (spike duration/spacing/count factors), ONN (area markup plus
oscillator synchronization timing). Synapses are shared across ANN, CeNN,
and SNN; areas are never changed by the SNN transform.
"""

from __future__ import annotations

from typing import Optional

from .ade import AdeTriple
from .interconnect import ElementBench
from .registry import GlobalConstants, Registry, Technology


def ann_transform(raw: ElementBench) -> ElementBench:
    """Identity: the element estimates are used directly."""
    return raw


def transform_terms(constants: GlobalConstants) -> tuple[tuple, tuple, float]:
    """The factors that the constants fix: the CNN's (m_syn, m_step, m_step m_syn), the SNN's
    (n_spi, n_spi n_spa, n_spi n_spa n_fire, n_spi n_fire) and the ONN's synchronization periods."""
    m_syn, m_step = constants.cnn_synapse_factor, constants.cnn_settling_factor
    n_spi, n_fire = constants.spike_duration_factor, constants.spikes_to_fire
    n_spi_spa = n_spi * constants.spike_spacing_factor
    cnn = m_syn, m_step, m_step * m_syn
    return cnn, (n_spi, n_spi_spa, n_spi_spa * n_fire, n_spi * n_fire), constants.sync_periods


def cnn_transform(raw: ElementBench, terms: tuple[float, float, float]) -> ElementBench:
    """Cellular network: more synapses per cell and a longer settling time."""
    m_syn, m_step, m_step_syn = terms
    synapse = raw.synapse.scaled(area=m_syn, delay=m_step_syn, energy=m_step_syn)
    return ElementBench(synapse, raw.neuron.scaled(delay=m_step, energy=m_step))


def snn_transform(raw: ElementBench, terms: tuple[float, float, float, float]) -> ElementBench:
    """Rate-coded spiking network: spike duration and spacing stretch delays;
    the spike count to fire scales the neuron. Areas are unchanged."""
    n_spi, n_spi_spa, n_spi_spa_fire, n_spi_fire = terms
    synapse = raw.synapse.scaled(delay=n_spi_spa, energy=n_spi)
    return ElementBench(synapse, raw.neuron.scaled(delay=n_spi_spa_fire, energy=n_spi_fire))


def onn_transform(
    raw: ElementBench,
    sync_periods: float,
    osc_class: str,
    inv4_delay: float,
    device_intrinsics: Optional[AdeTriple] = None,
) -> ElementBench:
    """Oscillator network: oscillators are built from many simple gates (10x
    synapse, 30x neuron area) and operate at the synchronization time.

    Rates and powers by class:
      transistor_ring  f = 0.1 / inv4 delay,  P = 3 E_int / tau_int of the transistor
      spintronic       f = 6 / device delay,  P = 6 E_dev / tau_dev
      piezo            f = 1 / neuron delay,  P = 3 E_neu / tau_neu

    `device_intrinsics` is the intrinsic triple of the oscillator device,
    which the loader requires for every class but piezo; piezo reads none.
    """
    if osc_class == "transistor_ring":
        f_osc = 0.1 / inv4_delay  # 1/ps
        p_osc = 3.0 * device_intrinsics.energy / device_intrinsics.delay  # aJ/ps
    elif osc_class == "spintronic":
        f_osc = 6.0 / device_intrinsics.delay
        p_osc = 6.0 * device_intrinsics.energy / device_intrinsics.delay
    else:  # piezo
        f_osc = 1.0 / raw.neuron.delay
        p_osc = 3.0 * raw.neuron.energy / raw.neuron.delay

    sync_delay = sync_periods / f_osc  # ps
    sync_energy = p_osc * sync_delay  # aJ
    synapse = AdeTriple(10.0 * raw.synapse.area, sync_delay, sync_energy)
    return ElementBench(synapse, AdeTriple(30.0 * raw.neuron.area, sync_delay, sync_energy))


def network_transform(raw: ElementBench, tech: Technology, registry: Registry, terms: tuple) -> ElementBench:
    """Apply the transform of the technology's network kind, with the registry's `transform_terms`."""
    kind = tech.network_kind
    if kind == "ANN":
        return ann_transform(raw)
    cnn, snn, sync_periods = terms
    if kind == "CNN":
        return cnn_transform(raw, cnn)
    if kind == "SNN":
        return snn_transform(raw, snn)
    return onn_transform(  # ONN
        raw, sync_periods, tech.osc_class, registry.primitives[tech.primitive_family].inv4.delay,
        device_intrinsics=None if tech.osc_device is None else registry.device(tech.osc_device).intrinsic,
    )
