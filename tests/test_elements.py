import math

import pytest

from conftest import derived_constants
from neurobench.ade import AdeTriple
from neurobench.elements import (
    analog_single_device_element,
    analog_transistor_element,
    build_raw_element,
    cmos_drive,
    digital_mac_element,
    digital_sram_element,
    raw_inputs,
    resistive_synapse,
    synapse_effective_resistance,
    wire_drive,
)
from neurobench.registry import ELEMENT_FAMILIES, CircuitPrimitiveTable

FAMILIES = {
    "digital_sram",
    "digital_mac",
    "analog_transistor",
    "analog_single_device",
    "resistive_digital",
    "resistive_analog",
}


def unit_primitives(delay=1.0, energy=1.0, area=1.0):
    cell = AdeTriple(area, delay, energy)
    return CircuitPrimitiveTable(
        inv=cell, inv1=cell, inv4=cell, nan=cell, reg=cell, se=cell, add1=cell, add=cell, ram=cell,
    )


@pytest.fixture(scope="module")
def cmos(registry):
    return registry.primitives["digital_cmos"]


# -- digital SRAM -------------------------------------------------------------


def test_sram_synapse_area_matches_reference_row(constants, cmos):
    bench = digital_sram_element(constants, cmos)
    # shipped calibration: register area inverted from the 2.765 um^2 synapse
    assert bench.synapse.area == pytest.approx(2.765e6, rel=0.01)
    assert bench.synapse.area == pytest.approx(constants.synapse_bits * cmos.reg.area)


def test_sram_unit_primitive_delay(registry):
    tweaked = derived_constants(registry, synapse_bits=1)
    bench = digital_sram_element(tweaked, unit_primitives())
    assert bench.synapse.delay == pytest.approx(3 + 4 + 1 + 1 + 1)


def test_sram_scales_linearly_in_bits(registry, cmos):
    single = digital_sram_element(derived_constants(registry, synapse_bits=4), cmos)
    double = digital_sram_element(derived_constants(registry, synapse_bits=8), cmos)
    assert double.synapse.area == pytest.approx(2 * single.synapse.area)
    assert double.synapse.energy == pytest.approx(2 * single.synapse.energy)


# -- digital MAC ---------------------------------------------------------------


def test_mac_synapse_area_structure(constants, cmos):
    bench = digital_mac_element(constants, cmos)
    n_b = constants.synapse_bits
    assert bench.synapse.area == pytest.approx((n_b + 1) * cmos.add.area + cmos.se.area)
    # shipped calibration lands on the reference matrix value
    assert bench.synapse.area == pytest.approx(336.9e6, rel=1e-6)


def test_mac_energy_carry_save_credit(constants):
    prims = unit_primitives()
    prims = prims._replace(add=AdeTriple(1.0, 1.0, 2.0), se=AdeTriple(1.0, 1.0, 1.0))
    bench = digital_mac_element(constants, prims)
    # (8+1) * 2 / 2 + 1
    assert bench.synapse.energy == pytest.approx(10.0)


def test_mac_ram_defaults_to_register_when_absent(constants, cmos):
    without_ram = cmos._replace(ram=cmos.reg)
    bench = digital_mac_element(constants, without_ram)
    n_b = constants.synapse_bits
    assert bench.neuron.area == pytest.approx(cmos.add.area + 2 * cmos.se.area + n_b * cmos.reg.area)


# -- analog transistor ----------------------------------------------------------


def test_analog_synapse_area_matches_reference_row(constants, cmos):
    bench = analog_transistor_element(constants, cmos, "cmos")
    assert bench.synapse.area == pytest.approx(0.338e6, rel=1e-6)
    assert bench.neuron.area == pytest.approx(1.5 * bench.synapse.area)


def test_analog_neuron_delay_equals_synapse_delay(constants, cmos):
    for fam in ("cmos", "tfet"):
        bench = analog_transistor_element(constants, cmos, fam)
        assert bench.neuron.delay == bench.synapse.delay


def test_analog_neuron_power_exceeds_synapse_by_opamp_drive(constants, cmos):
    from neurobench.circuits import ota_cell

    bench = analog_transistor_element(constants, cmos, "cmos")
    cell = ota_cell(constants, constants.transistors["cmos"])
    p_syn = bench.synapse.energy / bench.synapse.delay  # aJ/ps
    p_neu = bench.neuron.energy / bench.neuron.delay
    expected_extra = constants.supply_voltage * cell.opamp_current * 1e6  # W -> aJ/ps
    assert p_neu - p_syn == pytest.approx(expected_extra, rel=1e-12)


# -- analog single device --------------------------------------------------------


def test_single_device_me_neuron_delay(registry, constants):
    # 64 levels * 679.91 ps / 4 = 10878.56 ps
    bench = analog_single_device_element(registry.device("ME"), constants)
    assert bench.neuron.delay == pytest.approx(64 * 679.91 / 4)
    assert bench.neuron.delay == pytest.approx(10878.56)


def test_single_device_four_levels_is_identity_delay(registry):
    bench = analog_single_device_element(registry.device("ME"), derived_constants(registry, synapse_levels=4))
    assert bench.neuron.delay == pytest.approx(registry.device("ME").delay_int)


def test_single_device_area_scales_with_levels(registry, constants):
    for name in ("STTpma", "SOT", "DW", "ME", "FEFET"):
        dev = registry.device(name)
        bench = analog_single_device_element(dev, constants)
        assert bench.synapse.area / dev.area_int == pytest.approx(constants.synapse_levels)


# -- resistive synapses -----------------------------------------------------------


def test_resistive_effective_resistance(registry, constants):
    # 200 kOhm * sqrt(64) = 1.6 MOhm
    assert synapse_effective_resistance(registry.device("OxideR"), constants) == pytest.approx(1.6e6)


def test_resistive_oxider_settle_time(registry, constants, cmos):
    # 2.3 * 1.6 MOhm * 0.15 fF = 552 ps
    bench = resistive_synapse(registry.device("OxideR"), constants, "digital", cmos)
    assert bench.synapse.delay == pytest.approx(552.0, rel=1e-12)


def test_resistive_single_level_keeps_on_resistance(registry):
    dev = registry.device("OxideR")
    r = synapse_effective_resistance(dev, derived_constants(registry, synapse_levels=1))
    assert r == pytest.approx(dev.r_on)


def test_resistive_delay_scales_as_sqrt_levels(registry, cmos):
    dev = registry.device("OxideR")
    t16 = resistive_synapse(dev, derived_constants(registry, synapse_levels=16), "digital", cmos).synapse.delay
    t64 = resistive_synapse(dev, derived_constants(registry, synapse_levels=64), "digital", cmos).synapse.delay
    assert t64 / t16 == pytest.approx(2.0)


def test_resistive_modes_pick_different_neurons(registry, constants, cmos):
    dev = registry.device("OxideR")
    digital = resistive_synapse(dev, constants, "digital", cmos)
    analog = resistive_synapse(dev, constants, "analog", cmos)
    assert digital.synapse == analog.synapse
    assert digital.neuron != analog.neuron


# -- dispatch ----------------------------------------------------------------------


def test_family_dispatch_is_total(registry):
    assert {tech.family for tech in registry.technologies.values()} == FAMILIES == set(ELEMENT_FAMILIES)
    for tech in registry.technologies.values():
        bench = build_raw_element(tech, registry)
        assert bench.synapse.area > 0 and bench.synapse.delay > 0 and bench.synapse.energy > 0
        assert bench.neuron.area > 0 and bench.neuron.delay > 0 and bench.neuron.energy > 0
        with pytest.raises(KeyError):  # an unknown family is built as no family's row
            build_raw_element(tech._replace(family="bogus"), registry)


def test_builders_read_only_the_raw_inputs(registry):
    for tech in registry.technologies.values():
        other = tech._replace(
            label="X", network_kind="CNN", combo="X", fan_in_class="snn",
            ic_voltage=0.3, osc_class="piezo", osc_device=None,
        )
        assert raw_inputs(other) == raw_inputs(tech)
        assert build_raw_element(other, registry) == build_raw_element(tech, registry), tech.label


def test_r_eff_zero_for_nonresistive(registry):
    for tech in registry.technologies.values():
        r = wire_drive(tech, registry, cmos_drive(registry.constants))[0]
        if tech.family in ("resistive_digital", "resistive_analog"):
            assert r > 0
        else:
            assert r == 0.0


def test_wire_drive_current_and_voltage(registry):
    c = registry.constants
    transistor = c.transistors["cmos"].on_current_per_width * c.digital_transistor_width * 1e-9
    for tech in registry.technologies.values():
        r_eff, i_neu, voltage = wire_drive(tech, registry, cmos_drive(c))
        if tech.family in ("resistive_digital", "resistive_analog"):
            device = registry.device(tech.synapse_device)
            assert r_eff == synapse_effective_resistance(device, c)
            assert i_neu == c.supply_voltage / device.r_on
        else:
            assert i_neu == pytest.approx(transistor, rel=1e-12)
        assert voltage == (c.supply_voltage if tech.ic_voltage is None else tech.ic_voltage)
