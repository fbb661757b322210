"""Core-wide and chip-wide interconnect contributions.

The core interconnect delivers a synapse output across the core's synapse
block; its delay and energy attach to the synapse path. The chip-wide
interconnect delivers a neuron output anywhere on the chip; it attaches to
the neuron path. Interconnect lengths are the square roots of the relevant
block areas. The empirical routing-inefficiency factor is already folded
into the per-length capacitance constant and is never applied again here.

The interconnect "area" columns are a reporting convention (length times
wire pitch); no equation in the model defines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import units
from .ade import ZERO, AdeTriple

if TYPE_CHECKING:  # used in annotations only
    from .registry import GlobalConstants


@dataclass(frozen=True)
class ElementBench:
    """Synapse and neuron triples plus their interconnects: the 12-column
    benchmark row. Before `assemble_row` attaches the wiring, both
    interconnect triples are ZERO.

    `synapse_total` (synapse plus core wire) and `neuron_total` (neuron plus
    chip wire) are set once, when the row is built; against a ZERO wire they
    are the synapse or neuron triple itself."""

    synapse: AdeTriple
    neuron: AdeTriple
    core_ic: AdeTriple = ZERO
    chip_ic: AdeTriple = ZERO
    synapse_total: AdeTriple = field(init=False, compare=False, repr=False)
    neuron_total: AdeTriple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "synapse_total", self.synapse if self.core_ic is ZERO else self.synapse + self.core_ic)
        object.__setattr__(self, "neuron_total", self.neuron if self.chip_ic is ZERO else self.neuron + self.chip_ic)

    def columns(self) -> tuple[float, ...]:
        """Reference-matrix column order: areas, delays, energies; syn/lic/neu/gic each."""
        return (
            self.synapse.area, self.core_ic.area, self.neuron.area, self.chip_ic.area,
            self.synapse.delay, self.core_ic.delay, self.neuron.delay, self.chip_ic.delay,
            self.synapse.energy, self.core_ic.energy, self.neuron.energy, self.chip_ic.energy,
        )


def ic_energy(length: float, voltage: float, constants: GlobalConstants) -> float:
    """Energy to charge `length` nm of interconnect to `voltage`, aJ."""
    if length < 0:
        raise ValueError("interconnect length must be >= 0")
    return units.joules_to_aj(constants.ic_cap_per_length * length * units.M_PER_NM * voltage * voltage)


def ic_lengths(synapse_block_area: float, chip_area: float) -> tuple[float, float]:
    """Core and chip interconnect lengths (nm) from their block areas (nm^2)."""
    if synapse_block_area < 0 or chip_area < 0:
        raise ValueError("block areas must be >= 0")
    return math.sqrt(synapse_block_area), math.sqrt(chip_area)


def core_ic_delay(length: float, r_eff: float, constants: GlobalConstants) -> float:
    """RC-dominated delay of a core-wide wire of `length` nm, ps.

    Distributed-wire term plus synapse source resistance plus the lumped load,
    repeated per minimum-length segment. r_eff is zero for non-resistive
    synapse technologies.
    """
    if length < 0:
        raise ValueError("interconnect length must be >= 0")
    c_seg = constants.min_ic_capacitance
    r_seg = constants.min_ic_resistance
    per_segment = 0.38 * r_seg * c_seg + r_eff * c_seg + r_seg * constants.load_capacitance  # s
    return units.seconds_to_ps(per_segment) * (length / constants.min_ic_length)


def chip_ic_delay(length: float, i_neu: float, voltage: float, constants: GlobalConstants) -> float:
    """Charging time of a chip-wide wire driven at constant current, ps."""
    if i_neu <= 0:
        raise ValueError("chip interconnect needs a positive neuron drive current")
    if length < 0:
        raise ValueError("interconnect length must be >= 0")
    t = constants.ic_cap_per_length * length * units.M_PER_NM * voltage / i_neu  # s
    return units.seconds_to_ps(t)


def assemble_row(
    net: ElementBench,
    synapse_block_area: float,
    chip_area: float,
    constants: GlobalConstants,
    r_eff: float,
    i_neu: float,
    voltage: float,
) -> ElementBench:
    """Attach core and chip interconnect triples to a network element bench.

    The core wire spans one core's synapse block and the chip wire the whole
    chip (both areas nm^2). `r_eff`, `i_neu` and `voltage` are the wire
    drive of the technology (`elements.wire_drive`).
    """
    core_len, chip_len = ic_lengths(synapse_block_area, chip_area)
    core = AdeTriple(
        area=core_len * constants.wire_pitch,
        delay=core_ic_delay(core_len, r_eff, constants),
        energy=ic_energy(core_len, voltage, constants),
    )
    chip = AdeTriple(
        area=chip_len * constants.wire_pitch,
        delay=chip_ic_delay(chip_len, i_neu, voltage, constants),
        energy=ic_energy(chip_len, voltage, constants),
    )
    return ElementBench(synapse=net.synapse, core_ic=core, neuron=net.neuron, chip_ic=chip)
