import math

import pytest
from hypothesis import given, strategies as st

from neurobench import load_datasets
from neurobench.ade import AdeTriple
from neurobench.interconnect import (
    ElementBench,
    assemble_row,
    chip_ic_delay,
    core_ic_delay,
    ic_energy,
    ic_lengths,
    wiring,
)

MM = 1e6  # nm


@pytest.fixture(scope="module")
def wire(constants):
    return wiring(constants)


@pytest.fixture()
def net():
    return ElementBench(synapse=AdeTriple(100.0, 10.0, 5.0), neuron=AdeTriple(300.0, 20.0, 7.0))


def test_spike_energy_reference_point(wire):
    # 15 mm at 1 V with the empirically factored capacitance: about 7.5 pJ,
    # within 10% of the published 8 pJ chip measurement
    e = ic_energy(15 * MM, 1.0, wire)
    assert e == pytest.approx(7.5e6)  # aJ
    assert abs(e - 8.0e6) / 8.0e6 < 0.10


def test_ic_energy_zero_length(wire):
    assert ic_energy(0.0, 1.0, wire) == 0.0


def test_ic_energy_quadratic_in_voltage(wire):
    assert ic_energy(1000.0, 2.0, wire) == pytest.approx(4 * ic_energy(1000.0, 1.0, wire))


@given(l1=st.floats(0, 1e7), l2=st.floats(0, 1e7))
def test_ic_energy_additive_in_length(l1, l2):
    wire = wiring(load_datasets().constants)
    total = ic_energy(l1 + l2, 0.8, wire)
    assert total == pytest.approx(ic_energy(l1, 0.8, wire) + ic_energy(l2, 0.8, wire), rel=1e-9, abs=1e-12)


def test_ic_lengths_square_root(constants):
    core, chip = ic_lengths(1e6, 4e6)
    assert core == pytest.approx(1000.0)
    assert chip == pytest.approx(2000.0)
    assert ic_lengths(0.0, 0.0) == (0.0, 0.0)


def test_ic_lengths_chip_dominates_core(constants):
    core, chip = ic_lengths(3.7e8, 9.9e12)
    assert chip >= core


def test_core_delay_single_segment(constants, wire):
    # one minimum-length segment with no synapse resistance
    tau = core_ic_delay(constants.min_ic_length, 0.0, wire)
    r, c = constants.min_ic_resistance, constants.min_ic_capacitance
    expected = (0.38 * r * c + r * constants.load_capacitance) * 1e12
    assert tau == pytest.approx(expected)


def test_core_delay_distributed_term_magnitude(constants):
    # 0.38 * 667 Ohm * 0.15 fF = 3.8e-14 s per segment
    r, c = constants.min_ic_resistance, constants.min_ic_capacitance
    assert 0.38 * r * c == pytest.approx(3.80e-14, rel=0.01)


def test_core_delay_linear_in_length(wire):
    t1 = core_ic_delay(1e5, 0.0, wire)
    t2 = core_ic_delay(2e5, 0.0, wire)
    assert t2 == pytest.approx(2 * t1)


def test_chip_delay_energy_identity(wire):
    # tau * I * V equals the charging energy for any inputs
    length, i_neu, v = 3.3e6, 4.2e-5, 0.8
    tau = chip_ic_delay(length, i_neu, v, wire)
    energy = ic_energy(length, v, wire)
    assert tau * (i_neu * v * 1e6) == pytest.approx(energy, rel=1e-12)  # aJ/ps from W


def test_chip_delay_inverse_in_current(wire):
    assert chip_ic_delay(1e6, 2e-5, 0.8, wire) == pytest.approx(
        2 * chip_ic_delay(1e6, 4e-5, 0.8, wire)
    )
    assert chip_ic_delay(0.0, 1e-5, 0.8, wire) == 0.0


def test_chip_delay_rejects_undriven_wire(wire):
    with pytest.raises(ValueError):
        chip_ic_delay(1e6, 0.0, 0.8, wire)


def test_assemble_row_zero_geometry_reduces_to_element(net, constants, wire):
    row = assemble_row(net, 0.0, 0.0, wire, r_eff=0.0, i_neu=1e-5, voltage=constants.supply_voltage)
    assert row.core_ic == AdeTriple(0.0, 0.0, 0.0)
    assert row.chip_ic == AdeTriple(0.0, 0.0, 0.0)
    assert row.synapse_total == net.synapse
    assert row.neuron_total == net.neuron


def test_assemble_row_spintronic_voltage(net, constants, wire):
    full = assemble_row(net, 1e8, 1e10, wire, r_eff=0.0, i_neu=1e-5, voltage=constants.supply_voltage)
    low = assemble_row(net, 1e8, 1e10, wire, r_eff=0.0, i_neu=1e-5, voltage=0.1)
    # energy scales with V^2: (0.8/0.1)^2 = 64
    assert full.chip_ic.energy / low.chip_ic.energy == pytest.approx(64.0)
    assert full.core_ic.energy / low.core_ic.energy == pytest.approx(64.0)


def test_assemble_row_column_order(net, constants, wire):
    row = assemble_row(net, 1e8, 1e10, wire, r_eff=0.0, i_neu=1e-5, voltage=constants.supply_voltage)
    cols = row.columns()
    assert cols[0] == row.synapse.area and cols[1] == row.core_ic.area
    assert cols[2] == row.neuron.area and cols[3] == row.chip_ic.area
    assert cols[4] == row.synapse.delay and cols[11] == row.chip_ic.energy


def test_dataset_voltage_policy(registry):
    """All-spintronic rows run their wires at 0.1 V, everything else at supply."""
    from neurobench import report

    spintronic = {"DoWDoW", "SOTSOTa", "MEME"}
    geometry_scale = {}
    for tech in registry.enumerate_technologies("ANN"):
        row = report.bench_technology(tech, registry)
        chip_len = row.chip_ic.area / registry.constants.wire_pitch
        v2 = row.chip_ic.energy / (
            registry.constants.ic_cap_per_length * chip_len * 1e-9 * 1e18
        )
        geometry_scale[tech.combo] = math.sqrt(v2)
    for combo, voltage in geometry_scale.items():
        expected = 0.1 if combo in spintronic else registry.constants.supply_voltage
        assert voltage == pytest.approx(expected, rel=1e-9), combo
