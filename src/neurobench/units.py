"""Unit conversions between dataset units and the canonical internal units.

Canonical internal units, used everywhere past the loaders:
    area nm^2, length nm, time ps, energy aJ, voltage V, current A,
    resistance Ohm, capacitance F, conductance S.

Derived conventions: power is carried as aJ/ps (1 aJ/ps = 1e-6 W),
throughput of events as 1/ps. Loaders convert dataset units exactly once,
by the factors in the tables here. Every unit factor is a number or a
table here, none is a function, and no other module writes a factor as a
literal. A conversion is written one way: the expression, in its written
grouping, times the named constant, as `8.4 * (r * c * PS_PER_S)`.
"""

from __future__ import annotations

M_PER_NM = 1e-9
PS_PER_S = 1e12
AJ_PER_J = 1e18
J_PER_AJ = 1e-18
UJ_PER_AJ = 1e-12
W_PER_AJ_PER_PS = 1e-6  # 1e-18 J / 1e-12 s
AJ_PER_PS_PER_W = 1e6

# dataset unit -> factor into the canonical unit
AREA_TO_NM2 = {"nm^2": 1.0, "um^2": 1e6, "mm^2": 1e12}
LENGTH_TO_NM = {"nm": 1.0, "um": 1e3, "mm": 1e6, "m": 1e9}
TIME_TO_PS = {"ps": 1.0, "ns": 1e3, "us": 1e6, "ms": 1e9, "s": 1e12}
ENERGY_TO_AJ = {"aJ": 1.0, "fJ": 1e3, "pJ": 1e6, "nJ": 1e9, "uJ": 1e12, "J": 1e18}
RESISTANCE_TO_OHM = {"Ohm": 1.0, "kOhm": 1e3, "MOhm": 1e6, "GOhm": 1e9}
POWER_TO_W = {"uW": 1e-6, "mW": 1e-3, "W": 1.0}
RATE_TO_PER_S = {"1/s": 1.0, "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9}
THROUGHPUT_TO_PER_S = {
    "SOPS": 1.0,
    "MSOPS": 1e6,
    "GSOPS": 1e9,
    "MAC/s": 1.0,
    "MMAC/s": 1e6,
    "GMAC/s": 1e9,
}
CAP_PER_LENGTH_TO_F_PER_M = {"F/m": 1.0, "pF/m": 1e-12, "nF/m": 1e-9}
RES_PER_LENGTH_TO_OHM_PER_M = {"Ohm/m": 1.0, "MOhm/m": 1e6, "GOhm/m": 1e9}

# Every key a dataset `units` header may declare, with the unit names it
# accepts. The name whose factor is 1 is the canonical unit.
HEADER_UNITS = {
    "area": AREA_TO_NM2, "length": LENGTH_TO_NM, "time": TIME_TO_PS, "delay": TIME_TO_PS,
    "energy": ENERGY_TO_AJ, "resistance": RESISTANCE_TO_OHM, "power": POWER_TO_W,
    "syn_throughput": THROUGHPUT_TO_PER_S, "fire_rate": RATE_TO_PER_S, "clock": RATE_TO_PER_S,
    "cap_per_length": CAP_PER_LENGTH_TO_F_PER_M, "res_per_length": RES_PER_LENGTH_TO_OHM_PER_M,
    "voltage": {"V": 1.0}, "current": {"A": 1.0}, "capacitance": {"F": 1.0}, "conductance": {"S": 1.0},
    "cap_per_width": {"F/m": 1.0}, "current_per_width": {"A/m": 1.0},
}
