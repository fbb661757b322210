"""Element rows against a constants-record oracle, and the per-registry row terms."""

import json
import math
from functools import reduce
from operator import getitem

from hypothesis import given, reject, settings, strategies as st

from neurobench import derive, units
from neurobench.ade import AdeTriple
from neurobench.chip import ChipConfig, chip_bench, nominal_config
from neurobench.elements import build_raw_element, synapse_effective_resistance
from neurobench.interconnect import ElementBench
from neurobench.networks import onn_transform
from neurobench.registry import RESISTIVE_FAMILIES, ValidationError
from neurobench.report import bench_technology


def transformed(raw, tech, registry):
    """The network transform, its factors read from the constants record."""
    c, syn, neu = registry.constants, raw.synapse, raw.neuron
    if tech.network_kind == "CNN":
        m_syn, m_step = c.cnn_synapse_factor, c.cnn_settling_factor
        syn = AdeTriple(syn.area * m_syn, syn.delay * (m_step * m_syn), syn.energy * (m_step * m_syn))
        neu = AdeTriple(neu.area, neu.delay * m_step, neu.energy * m_step)
    elif tech.network_kind == "SNN":
        n_spi, n_spa, n_fire = c.spike_duration_factor, c.spike_spacing_factor, c.spikes_to_fire
        syn = AdeTriple(syn.area, syn.delay * (n_spi * n_spa), syn.energy * n_spi)
        neu = AdeTriple(neu.area, neu.delay * (n_spi * n_spa * n_fire), neu.energy * (n_spi * n_fire))
    elif tech.network_kind == "ONN":  # reads one constant, sync_periods, which it takes as it is
        intrinsics = None if tech.osc_device is None else registry.device(tech.osc_device).intrinsic
        inv4_delay = registry.primitives[tech.primitive_family].inv4.delay
        return onn_transform(raw, c.sync_periods, tech.osc_class, inv4_delay, intrinsics)
    return ElementBench(syn, neu)


def oracle_row(tech, registry, cfg):
    """The element row, every term evaluated from the constants record on the spot."""
    c = registry.constants
    net = transformed(build_raw_element(tech, registry), tech, registry)
    a_syn, a_neu = net.synapse.area, net.neuron.area
    per_neuron = c.neuron_overhead * a_neu + cfg.synapses_per_neuron * c.synapse_overhead * a_syn
    chip_area = c.chip_overhead * cfg.cores * (c.core_overhead * cfg.neurons_per_core * per_neuron)
    core_len = math.sqrt(a_syn * cfg.neurons_per_core * cfg.synapses_per_neuron)
    chip_len = math.sqrt(chip_area)
    voltage = c.supply_voltage if tech.ic_voltage is None else tech.ic_voltage
    if tech.family in RESISTIVE_FAMILIES:
        device = registry.device(tech.synapse_device)
        r_eff, i_neu = synapse_effective_resistance(device, c), c.supply_voltage / device.r_on
    else:
        r_eff = 0.0
        i_neu = c.transistors["cmos"].on_current_per_width * c.digital_transistor_width * units.M_PER_NM
    r_seg, c_seg = c.min_ic_resistance, c.min_ic_capacitance
    per_segment = 0.38 * r_seg * c_seg + r_eff * c_seg + r_seg * c.load_capacitance

    def energy(length):
        return c.ic_cap_per_length * length * units.M_PER_NM * voltage * voltage * units.AJ_PER_J

    core = AdeTriple(
        core_len * c.wire_pitch, per_segment * units.PS_PER_S * (core_len / c.min_ic_length), energy(core_len)
    )
    chip_delay = c.ic_cap_per_length * chip_len * units.M_PER_NM * voltage / i_neu * units.PS_PER_S
    chip = AdeTriple(chip_len * c.wire_pitch, chip_delay, energy(chip_len))
    return ElementBench(net.synapse, net.neuron, core, chip), chip_area


SCALED = (  # paths in constants.json, one factor each
    ("supply_voltage",),
    ("wire_pitch_f",),
    ("ic_cap_per_length",),
    ("transistor_cap_per_width",),
    ("overheads", "synapse"),
    ("overheads", "neuron"),
    ("overheads", "core"),
    ("overheads", "chip"),
    ("cnn_synapse_factor",),
    ("cnn_settling_factor",),
    ("spike_duration_factor",),
    ("spike_spacing_factor",),
    ("spikes_to_fire",),
)
TIED = (("feature_size",), ("min_ic_resistance",))  # one factor: the loader ties them within 2%
factors = st.floats(0.5, 2.0)


def scaled(registry, scale, tied):
    """`registry` with every `SCALED` constant scaled by its own factor and
    the `TIED` pair by one more. A draw is discarded only when the loader
    rejects it for breaking the ordering sense_voltage < supply_voltage."""
    doc = json.loads(registry.files["constants.json"])
    paths = (*SCALED, *TIED)
    edits = {path: reduce(getitem, path, doc) * f for path, f in zip(paths, (*scale, tied, tied))}
    try:
        return derive(registry, {"constants.json": edits})
    except ValidationError as e:
        if not str(e).startswith("constants.json: sense_voltage: must be below supply_voltage "):
            raise
        reject()


@settings(max_examples=40, deadline=None)
@given(
    scale=st.tuples(*[factors] * len(SCALED)),
    tied=factors,
    counts=st.tuples(st.integers(1, 4096), st.integers(1, 1024), st.integers(1, 1024)),
)
def test_rows_equal_the_constants_oracle_bit_for_bit(registry, scale, tied, counts):
    # factors off the shipped round numbers, so that a reordered product
    # rounds differently; the golden file pins the shipped constants only
    derived = scaled(registry, scale, tied)
    nominal, explicit = nominal_config(derived.constants), ChipConfig(*counts)
    for tech in derived.enumerate_technologies():
        row, area = oracle_row(tech, derived, nominal)
        assert bench_technology(tech, derived) == row, tech.label
        assert chip_bench(nominal, row, derived.constants).area == area, tech.label
        row, area = oracle_row(tech, derived, explicit)
        assert bench_technology(tech, derived, explicit) == row, tech.label
        assert chip_bench(explicit, row, derived.constants).area == area, tech.label


def rows(registry):
    return {tech.label: bench_technology(tech, registry) for tech in registry.enumerate_technologies()}


def test_doubled_wire_pitch_doubles_the_wire_areas_alone(registry):
    before = rows(registry)
    pitch_f = json.loads(registry.files["constants.json"])["wire_pitch_f"]
    wider = rows(derive(registry, {"constants.json": {("wire_pitch_f",): 2 * pitch_f}}))
    for label, row in before.items():
        new = wider[label]
        assert new.core_ic.area == 2 * row.core_ic.area and new.chip_ic.area == 2 * row.chip_ic.area, label
        assert new.core_ic.area > 0, label
        others = [i for i in range(12) if i not in (1, 3)]  # columns() puts the two wire areas at 1 and 3
        assert [new.columns()[i] for i in others] == [row.columns()[i] for i in others], label
    assert all(bench_technology(tech, registry) is before[tech.label] for tech in registry.enumerate_technologies())


def test_cnn_settling_factor_moves_the_cnn_rows_alone(registry):
    before = rows(registry)
    settling = json.loads(registry.files["constants.json"])["cnn_settling_factor"]
    slower = derive(registry, {"constants.json": {("cnn_settling_factor",): 1.3 * settling}})
    after = rows(slower)
    for tech in slower.enumerate_technologies():
        if tech.network_kind == "CNN":
            assert after[tech.label] != before[tech.label], tech.label
        else:
            assert after[tech.label] == before[tech.label], tech.label
    assert all(bench_technology(tech, registry) is before[tech.label] for tech in registry.enumerate_technologies())
