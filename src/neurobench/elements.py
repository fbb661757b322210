"""Raw (pre-network-transform) synapse and neuron benchmarks per technology family.

Six families: digital SRAM registers, digital MAC, analog transistor (OTA
cell), analog single-device (spintronic/ferroelectric switches), and
resistive-memory synapses in digital or analog read mode. The appropriate
reading circuit from `circuits` is attached to the neuron: sense amp for
SRAM, voltage sense amp for digital resistive, pulsed read for analog
resistive. Per-bit reading circuits contribute area and energy once per
stored bit; their delay is the word-parallel read latency and is added once
(the enable terms already scale with the bit count). Every builder returns
an `ElementBench` whose interconnect triples are still zero.
`build_raw_element` calls each family's builder with the registry's records
named by the raw inputs after the family (`raw_inputs`), and nothing else.
"""

from __future__ import annotations

import math

from . import units
from .ade import AdeTriple
from .circuits import analog_read, ota_cell, sense_amp, voltage_sense_amp
from .interconnect import ElementBench
from .registry import (
    CircuitPrimitiveTable,
    DeviceRecord,
    RESISTIVE_FAMILIES,
    GlobalConstants,
    Registry,
    Technology,
)


def _digital_neuron(constants: GlobalConstants, p: CircuitPrimitiveTable) -> AdeTriple:
    """Accumulate-and-threshold neuron from registers, logic, and a bit-serial adder."""
    n_b = constants.synapse_bits
    return AdeTriple(
        area=n_b * (2 * p.reg.area + p.inv.area + p.nan.area + p.add1.area + p.se.area),
        delay=2 * p.reg.delay + 3 * p.se.delay + p.nan.delay + p.inv.delay + n_b * p.add1.delay,
        energy=n_b * (2 * p.reg.energy + 3 * p.se.energy + p.nan.energy + p.inv.energy + p.add1.energy),
    )


def digital_sram_element(constants: GlobalConstants, primitives: CircuitPrimitiveTable) -> ElementBench:
    """Synapse of n_b register bits; digital neuron read through per-bit sense amps."""
    n_b = constants.synapse_bits
    p = primitives
    synapse = AdeTriple(
        area=n_b * p.reg.area,
        delay=3 * p.reg.delay + 4 * p.se.delay + p.nan.delay + p.inv.delay + n_b * p.add1.delay,
        energy=n_b * (3 * p.reg.energy + 4 * p.se.energy + p.nan.energy + p.inv.energy + p.add1.energy),
    )
    sa = sense_amp(constants, primitives)
    neuron = _digital_neuron(constants, p) + AdeTriple(n_b * sa.area, sa.delay, n_b * sa.energy)
    return ElementBench(synapse=synapse, neuron=neuron)


def digital_mac_element(constants: GlobalConstants, primitives: CircuitPrimitiveTable) -> ElementBench:
    """Multiplier-and-adder synapse; the neuron sums partials into a small RAM.

    The adder energy carries a carry-save credit of 1/2 (applied to the adder
    term only, not the state element).
    """
    n_b = constants.synapse_bits
    p = primitives
    synapse = AdeTriple(
        area=(n_b + 1) * p.add.area + p.se.area,
        delay=p.add.delay + p.se.delay,
        energy=(n_b + 1) * p.add.energy / 2.0 + p.se.energy,
    )
    neuron = AdeTriple(
        area=p.add.area + 2 * p.se.area + n_b * p.ram.area,
        delay=p.add.delay + 2 * p.se.delay + p.ram.delay,
        energy=p.add.energy + 2 * p.se.energy + n_b * p.ram.energy,
    )
    return ElementBench(synapse=synapse, neuron=neuron)


def analog_transistor_element(
    constants: GlobalConstants,
    primitives: CircuitPrimitiveTable,
    transistor_family: str,
) -> ElementBench:
    """Two-OTA synapse and opamp neuron; standard-cell area approximated as
    fan-out-4 inverters."""
    cell = ota_cell(constants, constants.transistors[transistor_family])
    w = constants.ota_widths
    width_ratio = (w.input + w.pullup + w.output) / constants.digital_transistor_width
    settle = 8.4 * (cell.effective_resistance * cell.cell_cap * units.PS_PER_S)  # ps
    v_cc = constants.supply_voltage
    p_syn = v_cc * cell.ota_current * units.AJ_PER_PS_PER_W  # aJ/ps
    p_neu = v_cc * (cell.opamp_current + cell.ota_current) * units.AJ_PER_PS_PER_W
    synapse = AdeTriple(area=2.0 * primitives.inv4.area * width_ratio, delay=settle, energy=p_syn * settle)
    neuron = AdeTriple(area=3.0 * primitives.inv4.area * width_ratio, delay=settle, energy=p_neu * settle)
    return ElementBench(synapse=synapse, neuron=neuron)


def analog_single_device_element(device: DeviceRecord, constants: GlobalConstants) -> ElementBench:
    """Synapse and neuron each built from one switching device, sized up by the
    number of analog levels."""
    n_l = constants.synapse_levels
    synapse = AdeTriple(area=n_l * device.area_int, delay=device.delay_int, energy=device.energy_int)
    neuron = AdeTriple(
        area=n_l * device.area_int,
        delay=n_l * device.delay_int / 4.0,
        energy=n_l * device.energy_int,
    )
    return ElementBench(synapse=synapse, neuron=neuron)


def synapse_effective_resistance(device: DeviceRecord, constants: GlobalConstants) -> float:
    """Upper-bound resistance of a multi-level resistive cell, Ohm."""
    return device.r_on * math.sqrt(constants.synapse_levels)


def resistive_synapse(
    device: DeviceRecord,
    constants: GlobalConstants,
    mode: str,
    primitives: CircuitPrimitiveTable,
) -> ElementBench:
    """Resistive-memory synapse; `mode` picks the read path and companion neuron.

    digital: digital-CMOS neuron read through the voltage sense amp.
    analog:  analog-CMOS (OTA) neuron read through the pulsed read circuit.
    """
    v_cc = constants.supply_voltage
    i_on = v_cc / device.r_on  # A
    r_eff = synapse_effective_resistance(device, constants)
    settle = 2.3 * (r_eff * constants.min_ic_capacitance * units.PS_PER_S)  # ps
    synapse = AdeTriple(
        area=device.area_int,
        delay=settle,
        energy=i_on * v_cc * units.AJ_PER_PS_PER_W * settle,
    )
    n_b = constants.synapse_bits
    if mode == "digital":
        vsa = voltage_sense_amp(
            constants, primitives, device.r_on, device.r_off, constants.nominal_synapses_per_neuron
        )
        neuron = _digital_neuron(constants, primitives) + AdeTriple(n_b * vsa.area, vsa.delay, n_b * vsa.energy)
    else:
        base = analog_transistor_element(constants, primitives, "cmos")
        reader = analog_read(constants, primitives)
        neuron = base.neuron + AdeTriple(reader.area, reader.delay, reader.energy)
    return ElementBench(synapse=synapse, neuron=neuron)


def raw_inputs(tech: Technology) -> tuple[str, str, str, str]:
    """(family, primitive_family, transistor_family, synapse_device): every
    field of `tech` that its raw element is built from, so technologies that
    agree on these share one raw element."""
    return tech.family, tech.primitive_family, tech.transistor_family, tech.synapse_device


def build_raw_element(tech: Technology, registry: Registry) -> ElementBench:
    """Family dispatch: every technology label maps to exactly one builder."""
    family, primitive, transistor, device = raw_inputs(tech)
    c = registry.constants
    if family == "digital_sram":
        return digital_sram_element(c, registry.primitives[primitive])
    if family == "digital_mac":
        return digital_mac_element(c, registry.primitives[primitive])
    if family == "analog_transistor":
        return analog_transistor_element(c, registry.primitives[primitive], transistor)
    if family == "analog_single_device":
        return analog_single_device_element(registry.device(device), c)
    mode = {"resistive_digital": "digital", "resistive_analog": "analog"}[family]
    return resistive_synapse(registry.device(device), c, mode, registry.primitives["digital_cmos"])


def cmos_drive(constants: GlobalConstants) -> float:
    """On-current of one minimum digital CMOS transistor, A."""
    return constants.transistors["cmos"].on_current_per_width * constants.digital_transistor_width * units.M_PER_NM


def wire_drive(tech: Technology, registry: Registry, i_cmos: float) -> tuple[float, float, float]:
    """(r_eff, i_neu, voltage): the synapse resistance seen by the core wire
    (Ohm), the neuron current that charges the chip wire (A) and the swing of
    both (V; `ic_voltage`, by default the supply). A resistive synapse drives
    with its cell, every other family with one minimum digital transistor (`i_cmos`)."""
    c = registry.constants
    voltage = c.supply_voltage if tech.ic_voltage is None else tech.ic_voltage
    if tech.family in RESISTIVE_FAMILIES:
        device = registry.device(tech.synapse_device)
        return synapse_effective_resistance(device, c), c.supply_voltage / device.r_on, voltage
    return 0.0, i_cmos, voltage
