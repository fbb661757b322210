import math

import pytest
from hypothesis import given, strategies as st

from conftest import derived_constants
from neurobench import units
from neurobench.circuits import (
    analog_read,
    ota_cell,
    sense_amp,
    voltage_sense_amp,
)


@pytest.fixture(scope="module")
def cmos(registry):
    return registry.primitives["digital_cmos"]


# -- sense amplifier ----------------------------------------------------------


def test_sense_amp_default_resolve_term(constants, cmos):
    # hand evaluation: C_lsa = 1e-9 F/m * 120e-9 m, g_msa = 2e-4 S * 2,
    # resolve = ln(0.8/0.4) * C_lsa / g_msa
    c_lsa = constants.transistor_cap_per_width * 120e-9
    g_msa = constants.linear_transconductance * 2.0
    expected_resolve_ps = math.log(2.0) * c_lsa / g_msa * 1e12
    bench = sense_amp(constants, cmos)
    assert bench.load_cap == pytest.approx(c_lsa)
    assert bench.transconductance == pytest.approx(g_msa)
    assert bench.delay == pytest.approx(expected_resolve_ps + constants.synapse_bits * cmos.add1.delay)


def test_sense_amp_natural_log_unit_point(registry, constants, cmos):
    # V_sa = V_cc / e makes the log factor exactly one
    tweaked = derived_constants(registry, sense_voltage=constants.supply_voltage / math.e)
    bench = sense_amp(tweaked, cmos)
    resolve_ps = (bench.delay - constants.synapse_bits * cmos.add1.delay) * 1e-12
    assert resolve_ps == pytest.approx(bench.load_cap / bench.transconductance, rel=1e-12)


def test_sense_amp_energy_is_cv2(constants, cmos):
    bench = sense_amp(constants, cmos)
    assert bench.energy == pytest.approx(bench.load_cap * constants.supply_voltage**2 * 1e18)


@given(scale=st.floats(min_value=1.0, max_value=100.0))
def test_sense_amp_delay_nonincreasing_in_transconductance(scale):
    from neurobench import load_datasets

    registry = load_datasets()
    base = registry.constants
    cmos = registry.primitives["digital_cmos"]
    slow = sense_amp(base, cmos)
    fast = sense_amp(derived_constants(registry, linear_transconductance=base.linear_transconductance * scale), cmos)
    assert fast.delay <= slow.delay + 1e-12


# -- voltage sense amplifier --------------------------------------------------


def test_vsa_matches_hand_evaluation(constants, cmos):
    # 2.3*R_pch*C_si + V_vsa*(C_si+C_li)/(V_rvsa/R_on - V_rvsa/R_off) + 2*n_b*tau_1
    bench = voltage_sense_amp(constants, cmos, r_on=200e3, r_off=1000e3, s_neu=256)
    c_si = 2 * constants.transistor_cap_per_width * constants.digital_transistor_width * 1e-9
    c_li = 256 * constants.ic_cap_per_length * constants.min_ic_length * 1e-9
    drive = 0.5 / 2e5 - 0.5 / 1e6
    expected_s = 2.3 * constants.transistor_on_resistance * c_si + 0.1 * (c_si + c_li) / drive
    expected = expected_s * 1e12 + 16 * cmos.add1.delay
    assert bench.delay == pytest.approx(expected, rel=1e-12)
    assert bench.area == pytest.approx(6 * cmos.inv1.area)


def test_vsa_bitline_cap_linear_in_fanin(constants, cmos):
    b1 = voltage_sense_amp(constants, cmos, 200e3, 1000e3, s_neu=100)
    b2 = voltage_sense_amp(constants, cmos, 200e3, 1000e3, s_neu=200)
    assert b2.bitline_cap == pytest.approx(2 * b1.bitline_cap)


def test_vsa_empty_bitline(constants, cmos):
    bench = voltage_sense_amp(constants, cmos, 200e3, 1000e3, s_neu=0)
    assert bench.bitline_cap == 0.0
    c_si = bench.sense_cap
    drive = 0.5 / 2e5 - 0.5 / 1e6
    expected_s = 2.3 * constants.transistor_on_resistance * c_si + 0.1 * c_si / drive
    assert bench.delay == pytest.approx(expected_s * 1e12 + 16 * cmos.add1.delay)


def test_vsa_large_off_resistance_limit(constants, cmos):
    huge = voltage_sense_amp(constants, cmos, 200e3, 1e15, s_neu=256)
    drive_limit = constants.vsa_read_voltage / 200e3
    settle = constants.vsa_sense_voltage * (huge.sense_cap + huge.bitline_cap) / drive_limit
    expected = (2.3 * constants.transistor_on_resistance * huge.sense_cap + settle) * 1e12
    assert huge.delay == pytest.approx(expected + 16 * cmos.add1.delay, rel=1e-3)


def test_vsa_delay_decreases_as_off_resistance_grows(constants, cmos):
    delays = [
        voltage_sense_amp(constants, cmos, 200e3, r_off, s_neu=256).delay
        for r_off in (250e3, 500e3, 1e6, 1e9)
    ]
    assert all(a > b for a, b in zip(delays, delays[1:]))


# -- analog read --------------------------------------------------------------


def test_analog_read_column_voltage(constants, cmos):
    bench = analog_read(constants, cmos)
    assert bench.column_voltage == pytest.approx(0.65 - 0.5)


def test_analog_read_area_is_32_inverter_cells(constants, cmos):
    assert analog_read(constants, cmos).area == pytest.approx(32 * cmos.inv1.area)


def test_analog_read_zero_pulse(registry, constants, cmos):
    bench = analog_read(derived_constants(registry, analog_read_pulse=1e-30), cmos)
    assert bench.delay == pytest.approx(2 * constants.synapse_bits * cmos.add1.delay)


def test_analog_read_energy_is_power_times_delay(constants, cmos):
    bench = analog_read(constants, cmos)
    assert bench.energy == pytest.approx(bench.power * units.AJ_PER_PS_PER_W * bench.delay)


# -- OTA cell -----------------------------------------------------------------


def test_ota_subthreshold_swing_decade_arithmetic(constants):
    # current ratio 1e4 and 0.3 V saturation: swing = 0.3/4 = 75 mV/decade
    cell = ota_cell(constants, constants.transistors["cmos"])
    assert cell.subthreshold_swing == pytest.approx(0.075)


def test_ota_identities_hold_to_machine_precision(constants):
    for fam in ("cmos", "tfet"):
        cell = ota_cell(constants, constants.transistors[fam])
        assert cell.effective_resistance * cell.output_conductance == pytest.approx(4.0, rel=1e-14)
        assert cell.opamp_current * cell.effective_resistance == pytest.approx(
            constants.supply_voltage, rel=1e-14
        )


def test_ota_current_ratio(constants):
    # 2 * (2*w_sum/w_max) * (1 + w_out/w_up) = 2 * (2*1.26/0.23) * 3
    cell = ota_cell(constants, constants.transistors["cmos"])
    expected = 2 * (2 * 1.26 / 0.23) * (1 + 150.0 / 75.0)
    assert cell.ota_current / cell.bias_current == pytest.approx(expected)
    assert cell.ota_current / cell.bias_current == pytest.approx(65.7, rel=1e-3)
