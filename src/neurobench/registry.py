"""Loads, validates, and serves all parameter datasets.

Seven JSON files make up a dataset directory: constants.json,
circuit_primitives.json, devices.json, technologies.json,
chips_neuromorphic.json, chips_accelerators.json, workloads.json.
Every file must carry a `units` header block; loaders convert to the
canonical units (nm^2, ps, aJ, V, Ohm, F) exactly once at load time.

The returned Registry is immutable after load and safe to share between
concurrent evaluators: its mappings are read-only views, and results that
the report layer derives from it are memoized on the registry itself.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, asdict
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Optional, TypeVar

from . import units
from .ade import AdeTriple
from .workload import LayerSpec, WorkloadSpec

DATA_FILES = (
    "constants.json",
    "circuit_primitives.json",
    "devices.json",
    "technologies.json",
    "chips_neuromorphic.json",
    "chips_accelerators.json",
    "workloads.json",
)

NETWORK_KINDS = ("ANN", "CNN", "SNN", "ONN")
NETWORK_PREFIX = {"ANN": "ANN", "CNN": "CNN", "SNN": "Spi", "ONN": "Osc"}

ELEMENT_FAMILIES = (
    "digital_sram",
    "digital_mac",
    "analog_transistor",
    "analog_single_device",
    "resistive_digital",
    "resistive_analog",
)

ENV_DATA_DIR = "NEUROBENCH_DATA_DIR"


class DatasetError(Exception):
    """Malformed or missing dataset file."""


class ValidationError(DatasetError):
    """A dataset parsed but violates an invariant; message names record and field."""


class UnknownNameError(DatasetError, KeyError):
    """Lookup of a device/technology/chip/workload that is not in the registry."""

    def __str__(self):  # KeyError quotes its arg; keep the plain message
        return self.args[0] if self.args else ""


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class TransistorParams:
    """Per-family transistor currents for the analog cell model."""

    on_current_per_width: float  # A/m
    off_current_per_width: float  # A/m
    saturation_voltage: float  # V


@dataclass(frozen=True)
class SenseAmpWidths:
    p: float  # nm
    n: float  # nm
    iso: float  # nm
    enable: float  # nm


@dataclass(frozen=True)
class OtaWidths:
    input: float  # nm
    pullup: float  # nm
    output: float  # nm


@dataclass(frozen=True)
class GlobalConstants:
    """Process/architecture constants in canonical units (nm, ps, aJ, V, Ohm, F, A, S)."""

    feature_size: float  # nm
    min_ic_length: float  # nm
    synapse_bits: int
    synapse_levels: int
    digital_transistor_width: float  # nm
    analog_transistor_width: float  # nm
    transistor_cap_per_width: float  # F/m
    supply_voltage: float  # V
    spintronic_supply_voltage: float  # V
    linear_transconductance: float  # S
    transistor_on_resistance: float  # Ohm
    transistors: dict[str, TransistorParams]
    ic_cap_per_length: float  # F/m, empirical routing factor folded in
    ic_res_per_length: float  # Ohm/m
    min_ic_resistance: float  # Ohm
    load_capacitance: float  # F
    sense_voltage: float  # V
    sense_amp_widths: SenseAmpWidths
    vsa_sense_voltage: float  # V
    vsa_read_voltage: float  # V
    analog_row_voltage: float  # V
    analog_read_pulse: float  # ps
    ota_widths: OtaWidths
    neuron_drive_current: Optional[float]  # A; None = derive per technology
    cnn_synapse_factor: float
    cnn_settling_factor: float
    cnn_max_weight: float
    cnn_weight_sum: float
    spike_duration_factor: float
    spike_spacing_factor: float
    spikes_to_fire: float
    sync_periods: float
    synapse_overhead: float
    neuron_overhead: float
    core_overhead: float
    chip_overhead: float
    nominal_cores: int
    nominal_neurons_per_core: int
    nominal_synapses_per_neuron: int
    wire_pitch: float  # nm

    @property
    def on_current_per_width(self) -> float:
        return self.transistors["cmos"].on_current_per_width

    @property
    def off_current_per_width(self) -> float:
        return self.transistors["cmos"].off_current_per_width

    @property
    def saturation_voltage(self) -> float:
        return self.transistors["cmos"].saturation_voltage

    @property
    def min_ic_capacitance(self) -> float:
        """C of one minimum-length interconnect segment, F."""
        return self.ic_cap_per_length * self.min_ic_length * units.M_PER_NM


@dataclass(frozen=True)
class CircuitPrimitiveTable:
    """Area/delay/energy of standard digital cells for one technology family."""

    family: str
    inv: AdeTriple
    inv1: AdeTriple
    inv4: AdeTriple
    nan: AdeTriple
    reg: AdeTriple
    se: AdeTriple
    add1: AdeTriple
    add: AdeTriple
    ram: AdeTriple  # defaults to reg when the dataset has no override


@dataclass(frozen=True)
class DeviceRecord:
    """Intrinsic and interconnect-adjusted figures for one switching/resistive device."""

    name: str
    area_int: float  # nm^2
    delay_int: float  # ps
    delay_ic: float  # ps
    energy_int: float  # aJ
    energy_ic: float  # aJ
    r_on: Optional[float] = None  # Ohm
    r_off: Optional[float] = None  # Ohm

    @property
    def intrinsic(self) -> AdeTriple:
        return AdeTriple(self.area_int, self.delay_int, self.energy_int)


@dataclass(frozen=True)
class Technology:
    """One device/architecture combination for one network kind."""

    label: str
    network_kind: str
    combo: str
    neuron_device: str  # device name or circuit-primitive family
    synapse_device: str
    family: str
    primitive_family: str = "digital_cmos"
    transistor_family: str = "cmos"
    fan_in_class: str = "digital_cmos"
    mac: bool = False
    ic_voltage: Optional[float] = None  # None = supply voltage
    osc_class: Optional[str] = None  # ONN only
    osc_device: Optional[str] = None  # ONN only: device whose intrinsics set rate/power
    neuron_drive_current: Optional[float] = None  # A, per-technology override


@dataclass(frozen=True)
class ChipRecord:
    """Published spec of a fabricated chip, canonical units; absent fields stay None."""

    name: str
    kind: str  # neuromorphic | accelerator
    cores: int
    neurons_per_core: int
    synapses_per_neuron: int
    area: Optional[float] = None  # nm^2
    power: Optional[float] = None  # W
    syn_throughput: Optional[float] = None  # events/s
    energy_per_event: Optional[float] = None  # aJ
    fire_rate: Optional[float] = None  # 1/s
    activity: Optional[float] = None
    clock: Optional[float] = None  # Hz
    process_node: Optional[float] = None  # nm
    voltage: Optional[float] = None  # V
    memory: Optional[str] = None
    derived_fields: tuple[str, ...] = ()

    @property
    def total_synapses(self) -> int:
        return self.cores * self.neurons_per_core * self.synapses_per_neuron

    def require(self, field_name: str) -> float:
        value = getattr(self, field_name)
        if value is None:
            raise UnknownNameError(f"chip {self.name}: field {field_name} required but absent")
        return value


@dataclass(frozen=True)
class FanInPolicy:
    """Parallel fan-in per neuron family; None means unlimited."""

    limits: Mapping[str, Optional[int]]

    def limit(self, fan_in_class: str) -> Optional[int]:
        if fan_in_class not in self.limits:
            raise ValidationError(f"fan-in policy: unknown class {fan_in_class!r}")
        return self.limits[fan_in_class]


T = TypeVar("T")


@dataclass(frozen=True)
class Registry:
    constants: GlobalConstants
    primitives: Mapping[str, CircuitPrimitiveTable]
    devices: Mapping[str, DeviceRecord]
    technologies: tuple[Technology, ...]
    chips: Mapping[str, ChipRecord]
    workloads: Mapping[str, WorkloadSpec]
    fan_in_policy: FanInPolicy
    topsdown_params: Mapping[str, float]
    # Results derived from this registry. Not an init field, so
    # dataclasses.replace() yields a registry with an empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memoized(self, key, compute: Callable[[], T]) -> T:
        """compute() once per key for this registry; later calls return the same object."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo.setdefault(key, compute())
        return value

    def device(self, name: str) -> DeviceRecord:
        try:
            return self.devices[name]
        except KeyError:
            raise UnknownNameError(f"unknown device {name!r}") from None

    def technology(self, label: str) -> Technology:
        for tech in self.technologies:
            if tech.label == label:
                return tech
        raise UnknownNameError(f"unknown technology {label!r}")

    def enumerate_technologies(self, network_kind: Optional[str] = None) -> list[Technology]:
        if network_kind is not None and network_kind not in NETWORK_KINDS:
            raise UnknownNameError(f"unknown network kind {network_kind!r}")
        return [t for t in self.technologies if network_kind in (None, t.network_kind)]

    def chip(self, name: str) -> ChipRecord:
        try:
            return self.chips[name]
        except KeyError:
            raise UnknownNameError(f"unknown chip {name!r}") from None

    def workload(self, name: str) -> WorkloadSpec:
        try:
            return self.workloads[name]
        except KeyError:
            raise UnknownNameError(f"unknown workload {name!r}") from None

    def canonical_json(self) -> str:
        """Deterministic serialization of everything loaded (for regression/determinism checks)."""

        def default(o):
            if hasattr(o, "__dataclass_fields__"):
                return asdict(o)
            raise TypeError(type(o).__name__)

        payload = {
            "constants": asdict(self.constants),
            "primitives": {k: asdict(v) for k, v in sorted(self.primitives.items())},
            "devices": {k: asdict(v) for k, v in sorted(self.devices.items())},
            "technologies": [asdict(t) for t in self.technologies],
            "chips": {k: asdict(v) for k, v in sorted(self.chips.items())},
            "workloads": {k: asdict(v) for k, v in sorted(self.workloads.items())},
            "fan_in": {k: v for k, v in sorted(self.fan_in_policy.limits.items())},
            "topsdown": dict(sorted(self.topsdown_params.items())),
        }
        return json.dumps(payload, sort_keys=True, default=default)


# ---------------------------------------------------------------------------
# loading helpers


def _read_json(path: Path, name: str) -> dict:
    try:
        with open(path / name, "rb") as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise DatasetError(f"{name}: file not found in {path}") from None
    except json.JSONDecodeError as e:
        raise DatasetError(f"{name}: parse failure: {e}") from None
    if not isinstance(doc, dict) or "units" not in doc:
        raise DatasetError(f"{name}: missing required 'units' header block")
    return doc


def _require(doc: dict, key: str, name: str):
    if key not in doc or doc[key] is None:
        raise ValidationError(f"{name}: missing constant {key}")
    return doc[key]


def _positive(value, record: str, field_name: str, strict: bool = True) -> float:
    v = float(value)
    if (strict and v <= 0) or (not strict and v < 0) or math.isnan(v):
        raise ValidationError(f"{record}.{field_name}: must be positive, got {value}")
    return v


def _load_constants(path: Path) -> GlobalConstants:
    doc = _read_json(path, "constants.json")
    name = "constants.json"
    feature = _positive(_require(doc, "feature_size", name), name, "feature_size")
    # min interconnect length defaults to 20 F when not overridden
    min_ic = doc.get("min_ic_length")
    min_ic = 20.0 * feature if min_ic is None else _positive(min_ic, name, "min_ic_length")

    def widths_f(key, fields):
        block = _require(doc, key, name)
        return {f: _positive(block[f], name, f"{key}.{f}") * feature for f in fields}

    transistors = {}
    for fam, params in _require(doc, "transistors", name).items():
        transistors[fam] = TransistorParams(
            on_current_per_width=_positive(params["on_current_per_width"], name, f"{fam}.on_current"),
            off_current_per_width=_positive(params["off_current_per_width"], name, f"{fam}.off_current"),
            saturation_voltage=_positive(params["saturation_voltage"], name, f"{fam}.saturation_voltage"),
        )
    if "cmos" not in transistors:
        raise ValidationError(f"{name}: transistors must include a 'cmos' family")

    cap_per_width = _positive(_require(doc, "transistor_cap_per_width", name), name, "transistor_cap_per_width")
    w_dt = _positive(_require(doc, "digital_transistor_width_f", name), name, "digital_transistor_width_f") * feature
    load_cap = doc.get("load_capacitance")
    # natural load of a receiving gate: one minimum digital transistor input
    load_cap = cap_per_width * w_dt * units.M_PER_NM if load_cap is None else _positive(load_cap, name, "load_capacitance")

    i_neu = doc.get("neuron_drive_current")
    i_neu = None if i_neu is None else _positive(i_neu, name, "neuron_drive_current")

    overheads = _require(doc, "overheads", name)
    nominal = _require(doc, "nominal_chip", name)
    sa = widths_f("sense_amp_widths_f", ("p", "n", "iso", "enable"))
    ota = widths_f("ota_widths_f", ("input", "pullup", "output"))

    r_per_len = units.convert(
        _positive(_require(doc, "ic_res_per_length", name), name, "ic_res_per_length"),
        doc["units"].get("res_per_length", "Ohm/m"),
        units.RES_PER_LENGTH_TO_OHM_PER_M,
        name,
    )
    c_per_len = units.convert(
        _positive(_require(doc, "ic_cap_per_length", name), name, "ic_cap_per_length"),
        doc["units"].get("cap_per_length", "F/m"),
        units.CAP_PER_LENGTH_TO_F_PER_M,
        name,
    )
    r_ic = _positive(_require(doc, "min_ic_resistance", name), name, "min_ic_resistance")

    constants = GlobalConstants(
        feature_size=feature,
        min_ic_length=min_ic,
        synapse_bits=int(_positive(_require(doc, "synapse_bits", name), name, "synapse_bits")),
        synapse_levels=int(_positive(_require(doc, "synapse_levels", name), name, "synapse_levels")),
        digital_transistor_width=w_dt,
        analog_transistor_width=_positive(_require(doc, "analog_transistor_width_f", name), name, "analog_transistor_width_f") * feature,
        transistor_cap_per_width=cap_per_width,
        supply_voltage=_positive(_require(doc, "supply_voltage", name), name, "supply_voltage"),
        spintronic_supply_voltage=_positive(_require(doc, "spintronic_supply_voltage", name), name, "spintronic_supply_voltage"),
        linear_transconductance=_positive(_require(doc, "linear_transconductance", name), name, "linear_transconductance"),
        transistor_on_resistance=_positive(_require(doc, "transistor_on_resistance", name), name, "transistor_on_resistance"),
        transistors=transistors,
        ic_cap_per_length=c_per_len,
        ic_res_per_length=r_per_len,
        min_ic_resistance=r_ic,
        load_capacitance=load_cap,
        sense_voltage=_positive(_require(doc, "sense_voltage", name), name, "sense_voltage"),
        sense_amp_widths=SenseAmpWidths(**sa),
        vsa_sense_voltage=_positive(_require(doc, "vsa_sense_voltage", name), name, "vsa_sense_voltage"),
        vsa_read_voltage=_positive(_require(doc, "vsa_read_voltage", name), name, "vsa_read_voltage"),
        analog_row_voltage=_positive(_require(doc, "analog_row_voltage", name), name, "analog_row_voltage"),
        analog_read_pulse=_positive(_require(doc, "analog_read_pulse", name), name, "analog_read_pulse"),
        ota_widths=OtaWidths(**ota),
        neuron_drive_current=i_neu,
        cnn_synapse_factor=_positive(_require(doc, "cnn_synapse_factor", name), name, "cnn_synapse_factor"),
        cnn_settling_factor=_positive(_require(doc, "cnn_settling_factor", name), name, "cnn_settling_factor"),
        cnn_max_weight=_positive(_require(doc, "cnn_max_weight", name), name, "cnn_max_weight"),
        cnn_weight_sum=_positive(_require(doc, "cnn_weight_sum", name), name, "cnn_weight_sum"),
        spike_duration_factor=_positive(_require(doc, "spike_duration_factor", name), name, "spike_duration_factor"),
        spike_spacing_factor=_positive(_require(doc, "spike_spacing_factor", name), name, "spike_spacing_factor"),
        spikes_to_fire=_positive(_require(doc, "spikes_to_fire", name), name, "spikes_to_fire"),
        sync_periods=_positive(_require(doc, "sync_periods", name), name, "sync_periods"),
        synapse_overhead=_positive(overheads["synapse"], name, "overheads.synapse"),
        neuron_overhead=_positive(overheads["neuron"], name, "overheads.neuron"),
        core_overhead=_positive(overheads["core"], name, "overheads.core"),
        chip_overhead=_positive(overheads["chip"], name, "overheads.chip"),
        nominal_cores=int(_positive(nominal["cores"], name, "nominal_chip.cores")),
        nominal_neurons_per_core=int(_positive(nominal["neurons_per_core"], name, "nominal_chip.neurons_per_core")),
        nominal_synapses_per_neuron=int(_positive(nominal["synapses_per_neuron"], name, "nominal_chip.synapses_per_neuron")),
        wire_pitch=_positive(_require(doc, "wire_pitch_f", name), name, "wire_pitch_f") * feature,
    )

    # table self-consistency: per-length resistance times minimum length must
    # reproduce the quoted minimum-interconnect resistance within 2%
    implied = constants.ic_res_per_length * constants.min_ic_length * units.M_PER_NM
    if abs(implied - constants.min_ic_resistance) / constants.min_ic_resistance > 0.02:
        raise ValidationError(
            f"{name}: ic_res_per_length * min_ic_length = {implied:.1f} Ohm "
            f"disagrees with min_ic_resistance = {constants.min_ic_resistance:.1f} Ohm by more than 2%"
        )
    return constants


def _load_primitives(path: Path) -> dict[str, CircuitPrimitiveTable]:
    doc = _read_json(path, "circuit_primitives.json")
    name = "circuit_primitives.json"
    u = doc["units"]
    fa = units.AREA_TO_NM2[u.get("area", "nm^2")]
    ft = units.TIME_TO_PS[u.get("delay", "ps")]
    fe = units.ENERGY_TO_AJ[u.get("energy", "aJ")]

    def triple(fam, cell, entry):
        rec = f"{name}: {fam}.{cell}"
        return AdeTriple(
            _positive(entry["area"], rec, "area") * fa,
            _positive(entry["delay"], rec, "delay") * ft,
            _positive(entry["energy"], rec, "energy") * fe,
        )

    tables = {}
    for fam, cells in _require(doc, "families", name).items():
        required = ("inv", "inv1", "inv4", "nan", "reg", "se", "add1", "add")
        for cell in required:
            if cell not in cells:
                raise ValidationError(f"{name}: family {fam} missing primitive {cell!r}")
        parsed = {cell: triple(fam, cell, cells[cell]) for cell in cells}
        parsed.setdefault("ram", parsed["reg"])  # default: closest declared analog
        tables[fam] = CircuitPrimitiveTable(family=fam, **parsed)
    for fam in ("digital_cmos", "digital_tfet"):
        if fam not in tables:
            raise ValidationError(f"{name}: missing primitive family {fam!r}")
    return tables


def _load_devices(path: Path) -> dict[str, DeviceRecord]:
    doc = _read_json(path, "devices.json")
    name = "devices.json"
    u = doc["units"]
    fa = units.AREA_TO_NM2[u.get("area", "nm^2")]
    ft = units.TIME_TO_PS[u.get("delay", "ps")]
    fe = units.ENERGY_TO_AJ[u.get("energy", "aJ")]
    fr = units.RESISTANCE_TO_OHM[u.get("resistance", "kOhm")]

    devices = {}
    for row in _require(doc, "devices", name):
        dev = row["name"]
        r_on = row.get("r_on")
        r_off = row.get("r_off")
        if (r_on is None) != (r_off is None):
            raise ValidationError(f"{name}: {dev}: r_on and r_off must be given together")
        if r_on is not None:
            r_on = _positive(r_on, dev, "r_on") * fr
            r_off = _positive(r_off, dev, "r_off") * fr
            if r_off < r_on:
                raise ValidationError(f"{name}: {dev}.r_off: must be >= r_on ({r_off} < {r_on})")
        devices[dev] = DeviceRecord(
            name=dev,
            area_int=_positive(row["area"], dev, "area") * fa,
            delay_int=_positive(row["delay"], dev, "delay") * ft,
            delay_ic=_positive(row["delay_ic"], dev, "delay_ic") * ft,
            energy_int=_positive(row["energy"], dev, "energy") * fe,
            energy_ic=_positive(row["energy_ic"], dev, "energy_ic") * fe,
            r_on=r_on,
            r_off=r_off,
        )
    return devices


def _load_technologies(path: Path, devices, primitives) -> tuple[tuple[Technology, ...], FanInPolicy]:
    doc = _read_json(path, "technologies.json")
    name = "technologies.json"

    raw_fan_in = _require(doc, "fan_in", name)
    limits = {}
    for cls, v in raw_fan_in.items():
        if v == "unlimited":
            limits[cls] = None
        else:
            limits[cls] = int(_positive(v, name, f"fan_in.{cls}"))
    policy = FanInPolicy(limits=limits)

    def resolve(ref: str, record: str):
        if ref in devices or ref in primitives:
            return
        raise ValidationError(f"{name}: {record}: dangling device reference {ref!r}")

    technologies: list[Technology] = []
    combos = _require(doc, "combos", name)
    for combo in combos:
        code = combo["code"]
        if combo["neuron_code"] + combo["synapse_code"] != code:
            raise ValidationError(f"{name}: {code}: label does not decompose into neuron+synapse codes")
        if combo["family"] not in ELEMENT_FAMILIES:
            raise ValidationError(f"{name}: {code}: unknown element family {combo['family']!r}")
        resolve(combo["neuron_device"], code)
        resolve(combo["synapse_device"], code)
        for kind in combo["networks"]:
            if kind not in ("ANN", "CNN", "SNN"):
                raise ValidationError(f"{name}: {code}: combo network kind {kind!r} invalid")

    # Table order: all ANN rows, then CNN, then SNN (matching the reference
    # matrix grouping), then the oscillator column.
    for kind in ("ANN", "CNN", "SNN"):
        for combo in combos:
            if kind not in combo["networks"]:
                continue
            technologies.append(
                Technology(
                    label=NETWORK_PREFIX[kind] + combo["code"],
                    network_kind=kind,
                    combo=combo["code"],
                    neuron_device=combo["neuron_device"],
                    synapse_device=combo["synapse_device"],
                    family=combo["family"],
                    primitive_family=combo.get("primitive_family", "digital_cmos"),
                    transistor_family=combo.get("transistor_family", "cmos"),
                    fan_in_class=combo.get("fan_in_class", "digital_cmos"),
                    mac=combo.get("mac", False),
                    ic_voltage=combo.get("ic_voltage"),
                    neuron_drive_current=combo.get("neuron_drive_current"),
                )
            )

    combo_by_code = {c["code"]: c for c in combos}
    for osc in _require(doc, "oscillators", name):
        label = osc["label"]
        base = combo_by_code.get(osc.get("base_combo", ""))
        if base is None:
            raise ValidationError(f"{name}: {label}: base_combo {osc.get('base_combo')!r} unknown")
        if osc["osc_class"] not in ("transistor_ring", "spintronic", "piezo"):
            raise ValidationError(f"{name}: {label}: unknown oscillator class {osc['osc_class']!r}")
        osc_device = osc.get("osc_device")
        if osc_device is not None and osc_device not in devices:
            raise ValidationError(f"{name}: {label}: dangling device reference {osc_device!r}")
        element_device = osc.get("element_device")
        if element_device is not None and element_device not in devices:
            raise ValidationError(f"{name}: {label}: dangling device reference {element_device!r}")
        technologies.append(
            Technology(
                label=label,
                network_kind="ONN",
                combo=base["code"],
                neuron_device=element_device or base["neuron_device"],
                synapse_device=element_device or base["synapse_device"],
                family=base["family"],
                primitive_family=base.get("primitive_family", "digital_cmos"),
                transistor_family=base.get("transistor_family", "cmos"),
                fan_in_class=osc.get("fan_in_class", base.get("fan_in_class", "digital_cmos")),
                mac=False,
                ic_voltage=osc.get("ic_voltage", base.get("ic_voltage")),
                osc_class=osc["osc_class"],
                osc_device=osc_device,
                neuron_drive_current=osc.get("neuron_drive_current", base.get("neuron_drive_current")),
            )
        )

    labels = [t.label for t in technologies]
    if len(labels) != len(set(labels)):
        raise ValidationError(f"{name}: duplicate technology labels")
    return tuple(technologies), policy


def _quantity(row: dict, field_name: str, default_unit: str, table: dict, record: str) -> Optional[float]:
    """Read an optional {value, unit} or bare-number field, converting units."""
    raw = row.get(field_name)
    if raw is None:
        return None
    if isinstance(raw, dict):
        value, unit = raw["value"], raw.get("unit", default_unit)
    else:
        value, unit = raw, default_unit
    return units.convert(_positive(value, record, field_name, strict=False), unit, table, record)


def _load_chips(path: Path, filename: str, kind: str) -> dict[str, ChipRecord]:
    doc = _read_json(path, filename)
    u = doc["units"]
    chips = {}
    for row in _require(doc, "chips", filename):
        cname = row["name"]
        rec = f"{filename}: {cname}"
        activity = row.get("activity")
        if activity is not None:
            activity = float(activity)
            if not (0.0 < activity <= 1.0):
                raise ValidationError(f"{rec}.activity: must be in (0, 1], got {activity}")
        counts = {}
        for f in ("cores", "neurons_per_core", "synapses_per_neuron"):
            counts[f] = int(row[f])
            if counts[f] < 1:
                raise ValidationError(f"{rec}.{f}: count must be >= 1")
        chips[cname] = ChipRecord(
            name=cname,
            kind=kind,
            cores=counts["cores"],
            neurons_per_core=counts["neurons_per_core"],
            synapses_per_neuron=counts["synapses_per_neuron"],
            area=_quantity(row, "area", u.get("area", "mm^2"), units.AREA_TO_NM2, rec),
            power=_quantity(row, "power", u.get("power", "mW"), units.POWER_TO_W, rec),
            syn_throughput=_quantity(row, "syn_throughput", u.get("syn_throughput", "MSOPS"), units.THROUGHPUT_TO_PER_S, rec),
            energy_per_event=_quantity(row, "energy_per_event", u.get("energy", "pJ"), units.ENERGY_TO_AJ, rec),
            fire_rate=_quantity(row, "fire_rate", u.get("fire_rate", "1/s"), units.RATE_TO_PER_S, rec),
            activity=activity,
            clock=_quantity(row, "clock", u.get("clock", "MHz"), units.RATE_TO_PER_S, rec),
            process_node=row.get("process_node_nm"),
            voltage=row.get("voltage_v"),
            memory=row.get("memory"),
            derived_fields=tuple(row.get("derived", ())),
        )
    return chips


def _load_workloads(path: Path) -> dict[str, WorkloadSpec]:
    doc = _read_json(path, "workloads.json")
    name = "workloads.json"
    specs = {}
    for row in _require(doc, "workloads", name):
        wname = row["name"]
        layers = []
        for i, layer in enumerate(row["layers"]):
            rec = f"{name}: {wname}.layers[{i}]"
            kind = layer["kind"]
            if kind == "fully_connected":
                spec = LayerSpec(
                    kind=kind,
                    inputs=int(_positive(layer["inputs"], rec, "inputs")),
                    outputs=int(_positive(layer["outputs"], rec, "outputs")),
                )
            elif kind == "convolution":
                spec = LayerSpec(
                    kind=kind,
                    image_w=int(_positive(layer["image_w"], rec, "image_w")),
                    image_h=int(_positive(layer["image_h"], rec, "image_h")),
                    in_channels=int(_positive(layer["in_channels"], rec, "in_channels")),
                    kernel=int(_positive(layer["kernel"], rec, "kernel")),
                    feature_maps=int(_positive(layer["feature_maps"], rec, "feature_maps")),
                    stride=int(_positive(layer.get("stride", 1), rec, "stride")),
                    padding=layer.get("padding", "valid"),
                )
                if spec.padding not in ("valid", "same"):
                    raise ValidationError(f"{rec}.padding: must be 'valid' or 'same'")
                if spec.padding == "valid" and (spec.kernel > spec.image_w or spec.kernel > spec.image_h):
                    raise ValidationError(f"{rec}.kernel: exceeds image dimensions under valid padding")
            else:
                raise ValidationError(f"{rec}.kind: unknown layer kind {kind!r}")
            layers.append(spec)
        specs[wname] = WorkloadSpec(name=wname, layers=tuple(layers), note=row.get("note", ""))
    return specs


def default_data_dir() -> Path:
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(str(resources.files("neurobench").joinpath("data")))


def load_datasets(data_dir: Optional[os.PathLike] = None) -> Registry:
    """Load and cross-validate all dataset files, returning an immutable Registry."""
    path = Path(data_dir) if data_dir is not None else default_data_dir()
    constants = _load_constants(path)
    primitives = _load_primitives(path)
    devices = _load_devices(path)
    technologies, fan_in = _load_technologies(path, devices, primitives)
    chips = {}
    chips.update(_load_chips(path, "chips_neuromorphic.json", "neuromorphic"))
    chips.update(_load_chips(path, "chips_accelerators.json", "accelerator"))
    workloads = _load_workloads(path)

    td_doc = _read_json(path, "chips_neuromorphic.json")
    topsdown_params = {
        "neuron_area_fraction": float(td_doc.get("neuron_area_fraction", 0.05)),
        "accelerator_compute_fraction": float(td_doc.get("accelerator_compute_fraction", 0.10)),
    }

    return Registry(
        constants=constants,
        primitives=MappingProxyType(primitives),
        devices=MappingProxyType(devices),
        technologies=technologies,
        chips=MappingProxyType(chips),
        workloads=MappingProxyType(workloads),
        fan_in_policy=FanInPolicy(limits=MappingProxyType(fan_in.limits)),
        topsdown_params=MappingProxyType(topsdown_params),
    )


def lookup_device(registry: Registry, name: str) -> DeviceRecord:
    return registry.device(name)


def enumerate_technologies(registry: Registry, network_kind: Optional[str] = None) -> list[Technology]:
    return registry.enumerate_technologies(network_kind)
