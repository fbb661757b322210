"""Core-wide and chip-wide interconnect contributions.

The core interconnect delivers a synapse output across the core's synapse
block; its delay and energy attach to the synapse path. The chip-wide
interconnect delivers a neuron output anywhere on the chip; it attaches to
the neuron path. A row (`ElementBench`) keeps each wire beside its part;
the sums are made where a total is read. Interconnect lengths are the
square roots of the relevant block areas. The empirical routing-inefficiency
factor is already folded into the per-length capacitance constant and is
never applied again here.

The interconnect "area" columns are a reporting convention (length times
wire pitch); no equation in the model defines them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from . import units
from .ade import ZERO, AdeTriple, FigureError

if TYPE_CHECKING:  # used in annotations only
    from .registry import GlobalConstants


class ElementBench(NamedTuple):
    """Synapse and neuron triples plus their interconnects: the 12-column
    benchmark row. Before `assemble_row` attaches the wiring, both
    interconnect triples are ZERO.

    A row is its four triples. `synapse_total` (synapse plus core wire) and
    `neuron_total` (neuron plus chip wire) are computed when read; against a
    ZERO wire they are the synapse or neuron triple itself. The model
    formulas add the wire component by component instead, the same sums."""

    synapse: AdeTriple
    neuron: AdeTriple
    core_ic: AdeTriple = ZERO
    chip_ic: AdeTriple = ZERO

    @property
    def synapse_total(self) -> AdeTriple:
        return self.synapse if self.core_ic is ZERO else self.synapse + self.core_ic

    @property
    def neuron_total(self) -> AdeTriple:
        return self.neuron if self.chip_ic is ZERO else self.neuron + self.chip_ic

    def columns(self) -> tuple[float, ...]:
        """Reference-matrix column order: areas, delays, energies; syn/lic/neu/gic each."""
        (a_syn, t_syn, e_syn), (a_neu, t_neu, e_neu), (a_lic, t_lic, e_lic), (a_gic, t_gic, e_gic) = self
        return a_syn, a_lic, a_neu, a_gic, t_syn, t_lic, t_neu, t_gic, e_syn, e_lic, e_neu, e_gic


class Wiring(NamedTuple):
    """The terms of the wire formulas that a registry's constants fix (`wiring`)."""

    wire_pitch: float  # nm
    rc_wire: float  # 0.38 r_seg c_seg of one minimum segment, s
    c_seg: float  # C of one minimum segment (`min_ic_capacitance`), F
    rc_load: float  # r_seg times the load capacitance, s
    min_ic_length: float  # nm
    ic_cap_per_length: float  # F/m


def wiring(c: GlobalConstants) -> Wiring:
    r_seg, c_seg = c.min_ic_resistance, c.min_ic_capacitance
    rc_wire, rc_load = 0.38 * r_seg * c_seg, r_seg * c.load_capacitance
    return Wiring(c.wire_pitch, rc_wire, c_seg, rc_load, c.min_ic_length, c.ic_cap_per_length)


def ic_energy(length: float, voltage: float, wire: Wiring) -> float:
    """Energy to charge `length` nm of interconnect to `voltage`, aJ."""
    return wire.ic_cap_per_length * length * units.M_PER_NM * voltage * voltage * units.AJ_PER_J


def ic_lengths(synapse_block_area: float, chip_area: float) -> tuple[float, float]:
    """Core and chip interconnect lengths (nm) from their block areas (nm^2)."""
    return math.sqrt(synapse_block_area), math.sqrt(chip_area)


def core_ic_delay(length: float, r_eff: float, wire: Wiring) -> float:
    """RC-dominated delay of a core-wide wire of `length` nm, ps.

    Distributed-wire term plus synapse source resistance plus the lumped load,
    repeated per minimum-length segment. r_eff is zero for non-resistive
    synapse technologies.
    """
    per_segment = wire.rc_wire + r_eff * wire.c_seg + wire.rc_load  # s
    return per_segment * units.PS_PER_S * (length / wire.min_ic_length)


def chip_ic_delay(length: float, i_neu: float, voltage: float, wire: Wiring) -> float:
    """Charging time of a chip-wide wire driven at constant current, ps."""
    if i_neu <= 0:
        raise FigureError("chip interconnect needs a positive neuron drive current")
    t = wire.ic_cap_per_length * length * units.M_PER_NM * voltage / i_neu  # s
    return t * units.PS_PER_S


def assemble_row(
    net: ElementBench,
    synapse_block_area: float,
    chip_area: float,
    wire: Wiring,
    r_eff: float,
    i_neu: float,
    voltage: float,
) -> ElementBench:
    """Attach core and chip interconnect triples to a network element bench.

    The core wire spans one core's synapse block and the chip wire the whole
    chip (both areas nm^2). `wire` holds the registry's `wiring`; `r_eff`,
    `i_neu` and `voltage` are the technology's `elements.wire_drive`.
    """
    core_len, chip_len = ic_lengths(synapse_block_area, chip_area)
    pitch = wire.wire_pitch
    core = AdeTriple(core_len * pitch, core_ic_delay(core_len, r_eff, wire), ic_energy(core_len, voltage, wire))
    chip = AdeTriple(chip_len * pitch, chip_ic_delay(chip_len, i_neu, voltage, wire), ic_energy(chip_len, voltage, wire))
    return ElementBench(net.synapse, net.neuron, core, chip)
