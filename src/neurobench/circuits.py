"""Derived transistor quantities and the four reading/driving sub-circuits
that attach to neurons: SRAM sense amplifier, voltage sense amplifier for
digital resistive memories, pulsed read circuit for analog resistive
memories, and the OTA pair at the heart of the analog cell.

All functions are pure; inputs are canonical-unit constants and primitive
tables, outputs carry nm^2 / ps / aJ (documented per field). Each model
relies on the loader for its preconditions (positive widths, sense voltage
below supply, r_off above r_on, row voltage above the cell read voltage,
on-current above off-current, a positive maximum weight) and checks none
of them again.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import units
from .registry import CircuitPrimitiveTable, GlobalConstants, TransistorParams


class SenseAmpBench(NamedTuple):
    area: float  # nm^2
    transconductance: float  # S
    load_cap: float  # F
    delay: float  # ps
    energy: float  # aJ


class VoltageSenseAmpBench(NamedTuple):
    area: float  # nm^2
    sense_cap: float  # F
    bitline_cap: float  # F
    delay: float  # ps
    energy: float  # aJ


class AnalogReadBench(NamedTuple):
    area: float  # nm^2
    column_voltage: float  # V
    delay: float  # ps
    power: float  # W
    energy: float  # aJ


class OtaCellBench(NamedTuple):
    cell_cap: float  # F
    subthreshold_swing: float  # V/decade
    bias_current: float  # A
    output_conductance: float  # S
    effective_resistance: float  # Ohm
    opamp_current: float  # A
    ota_current: float  # A


def sense_amp(constants: GlobalConstants, primitives: CircuitPrimitiveTable) -> SenseAmpBench:
    """Latch-type sense amplifier used when reading SRAM synapses.

    The first delay term is the analog resolve time of the latch; the second
    is the word-enable time, one add cycle per stored bit.
    """
    w = constants.sense_amp_widths
    w_dt = constants.digital_transistor_width
    area = primitives.inv1.area * (w.p + w.n + w.iso + w.enable) / w_dt
    g_m = constants.linear_transconductance * (w.p + w.n) / w_dt
    c_load = constants.transistor_cap_per_width * (w.p + w.n) * units.M_PER_NM
    resolve = math.log(constants.supply_voltage / constants.sense_voltage) * c_load / g_m
    delay = resolve * units.PS_PER_S + constants.synapse_bits * primitives.add1.delay
    energy = c_load * constants.supply_voltage * constants.supply_voltage * units.AJ_PER_J
    return SenseAmpBench(area=area, transconductance=g_m, load_cap=c_load, delay=delay, energy=energy)


def voltage_sense_amp(
    constants: GlobalConstants,
    primitives: CircuitPrimitiveTable,
    r_on: float,
    r_off: float,
    s_neu: int,
) -> VoltageSenseAmpBench:
    """Reading circuit for digital resistive memories: 3 n-type + 3 p-type
    minimum-width transistors precharging and sensing a bitline of s_neu cells.
    """
    area = 6.0 * primitives.inv1.area
    r_pch = constants.transistor_on_resistance
    c_si = 2.0 * constants.transistor_cap_per_width * constants.digital_transistor_width * units.M_PER_NM
    c_li = s_neu * constants.ic_cap_per_length * constants.min_ic_length * units.M_PER_NM
    drive = constants.vsa_read_voltage / r_on - constants.vsa_read_voltage / r_off  # A
    settle = 2.3 * r_pch * c_si + constants.vsa_sense_voltage * (c_si + c_li) / drive
    delay = settle * units.PS_PER_S + 2.0 * constants.synapse_bits * primitives.add1.delay
    energy = c_si * constants.supply_voltage * constants.supply_voltage * units.AJ_PER_J
    return VoltageSenseAmpBench(area=area, sense_cap=c_si, bitline_cap=c_li, delay=delay, energy=energy)


def analog_read(constants: GlobalConstants, primitives: CircuitPrimitiveTable) -> AnalogReadBench:
    """Pulsed read circuit for analog-valued resistive memories; about 32
    standard inverter cells of periphery per column."""
    area = 32.0 * primitives.inv1.area
    v_col = constants.analog_row_voltage - constants.vsa_read_voltage
    delay = constants.analog_read_pulse + 2.0 * constants.synapse_bits * primitives.add1.delay
    power = 25.0 * v_col * v_col / constants.transistor_on_resistance  # W
    energy = power * units.AJ_PER_PS_PER_W * delay
    return AnalogReadBench(area=area, column_voltage=v_col, delay=delay, power=power, energy=energy)


def ota_cell(constants: GlobalConstants, transistor: TransistorParams) -> OtaCellBench:
    """Operating point of the two-OTA analog synapse cell.

    The effective resistance carries a factor 2 for OTA nonlinearity and
    another 2 for output stability; the bias current is the geometric mean
    of the on- and off-state currents.
    """
    i_on, i_off = transistor.on_current_per_width, transistor.off_current_per_width
    w = constants.ota_widths
    cell_cap = 4.0 * constants.transistor_cap_per_width * w.output * units.M_PER_NM
    swing = transistor.saturation_voltage / math.log10(i_on / i_off)
    bias = math.sqrt(i_on * i_off) * w.input * units.M_PER_NM
    g_m_ota = bias * math.log(10.0) / swing * (w.output / w.pullup)
    g_out = 2.0 * g_m_ota / constants.cnn_max_weight
    r_eff = 4.0 / g_out
    i_opamp = constants.supply_voltage / r_eff
    i_ota = 2.0 * bias * (2.0 * constants.cnn_weight_sum / constants.cnn_max_weight) * (1.0 + w.output / w.pullup)
    return OtaCellBench(
        cell_cap=cell_cap,
        subthreshold_swing=swing,
        bias_current=bias,
        output_conductance=g_out,
        effective_resistance=r_eff,
        opamp_current=i_opamp,
        ota_current=i_ota,
    )
