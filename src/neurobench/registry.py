"""Loads, validates, and serves all parameter datasets.

Seven JSON files make up a dataset directory: constants.json,
circuit_primitives.json, devices.json, technologies.json,
chips_neuromorphic.json, chips_accelerators.json, workloads.json.
Every file must carry a `units` header block; loaders convert to the
canonical units (nm^2, ps, aJ, V, Ohm, F) exactly once at load time, and
every value passes one validator, `_value`, which names `file: record.field`
in each rejection.

Each file is validated once per distinct content: each builder is a pure
function of one file's bytes and the names that file may reference,
cached by them, so loads of identical bytes share the same validated,
read-only records. The registry itself is cached by the bytes of all seven
files, so a warm load is seven reads and one lookup, calls no builder and
returns the registry of that content. A hit does not refresh the
builders' entries: once 32 newer contents of one file have been built, a
`derive` that edits another file rebuilds records equal to that file's, not
the identical ones, and `own_name` accepts them. A file rewritten in place
is always read again, and a rejected file fails on every load. A file is
read by one `os.read` loop on a raw descriptor, 16 KiB a read: twice the
largest shipped file (7.1 KB), so each takes one read, and no more, as
`os.read` allocates the whole size before it shrinks to the bytes read.

A Registry is built only here, from file bytes that `load_datasets` reads
or `derive` edits, so every registry passes the same checks. It is
read-only and safe to share between concurrent evaluators. Results derived
from it are kept in its memo, the memo of its content. A technology, chip
or workload spec reaches the model only as the registry's record of its
name, or one equal to it, and the memo keys it by that name (`own_name`);
any other raises, so a changed record comes from `derive`. No memo key
holds a record.
"""

import functools
import json
import os
import sys
from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, TypeVar

from . import units
from .ade import AdeTriple

NETWORK_KINDS = ("ANN", "CNN", "SNN", "ONN")
NETWORK_PREFIX = {"ANN": "ANN", "CNN": "CNN", "SNN": "Spi", "ONN": "Osc"}

# the families whose synapse is a resistive device cell, read through its r_on/r_off
RESISTIVE_FAMILIES = ("resistive_digital", "resistive_analog")
ELEMENT_FAMILIES = (
    "digital_sram",
    "digital_mac",
    "analog_transistor",
    "analog_single_device",
    *RESISTIVE_FAMILIES,
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
#
# The NamedTuples are the dataset schema, and the loader walks every field of
# a schema class the same way. A field is read from the JSON key of its name,
# unless the class's `_loader` table gives it a `(key, unit)` pair or leaves it
# to the loader (`_BY_HAND`). A key may name a value inside nested objects
# (`"overheads.synapse"`), and a unit is a `units` header entry or `_FEATURE`,
# the feature size, of the `_f` keys. A field whose type is a schema class is
# read from an object, and a `Mapping[str, ...]` of one from an object of them
# by name. Optional fields may be absent; defaults live here only. This module
# does without `from __future__ import annotations`: NamedTuple compiles each
# string annotation into a ForwardRef, which costs more at import than the types.


class Fraction(float):
    """Annotation for a number in (0, 1]; the loader stores a plain float."""


# the `_loader` entry of a field that follows a rule of its own: a name the
# row's place gives, or a value whose key or check depends on the row
_BY_HAND = object()

# the unit of the `_f` keys, multiples of the feature size; `_units` reads its
# factor from the file's key of the same name
_FEATURE = "feature_size"


class TransistorParams(NamedTuple):
    """Per-family transistor currents for the analog cell model."""

    on_current_per_width: float  # A/m
    off_current_per_width: float  # A/m
    saturation_voltage: float  # V


class SenseAmpWidths(NamedTuple):
    p: float  # nm
    n: float  # nm
    iso: float  # nm
    enable: float  # nm

    _loader = dict.fromkeys(("p", "n", "iso", "enable"), (None, _FEATURE))


class OtaWidths(NamedTuple):
    input: float  # nm
    pullup: float  # nm
    output: float  # nm

    _loader = dict.fromkeys(("input", "pullup", "output"), (None, _FEATURE))


class GlobalConstants(NamedTuple):
    """Process/architecture constants in canonical units (nm, ps, aJ, V, Ohm, F, A, S).

    The loader checks every precondition of the model, and the model checks
    none of them again. A copy made with `_replace` passes no check, so the
    model's entry points take a `Registry` and pass its constants on; only
    `chip.chip_bench` and `chip.nominal_config` take a constants record from
    their callers. Derive a registry with `neurobench.derive` instead.
    """

    feature_size: float  # nm
    synapse_bits: int
    synapse_levels: int
    digital_transistor_width: float  # nm
    transistor_cap_per_width: float  # F/m
    supply_voltage: float  # V
    linear_transconductance: float  # S
    transistor_on_resistance: float  # Ohm
    transistors: Mapping[str, TransistorParams]  # read-only
    ic_cap_per_length: float  # F/m, empirical routing factor folded in
    ic_res_per_length: float  # Ohm/m
    min_ic_resistance: float  # Ohm
    sense_voltage: float  # V
    sense_amp_widths: SenseAmpWidths
    vsa_sense_voltage: float  # V
    vsa_read_voltage: float  # V
    analog_row_voltage: float  # V
    analog_read_pulse: float  # ps
    ota_widths: OtaWidths
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

    _loader = {
        "digital_transistor_width": ("digital_transistor_width_f", _FEATURE),
        "ic_cap_per_length": (None, "cap_per_length"),
        "ic_res_per_length": (None, "res_per_length"),
        "sense_amp_widths": ("sense_amp_widths_f", None),
        "ota_widths": ("ota_widths_f", None),
        "synapse_overhead": ("overheads.synapse", None),
        "neuron_overhead": ("overheads.neuron", None),
        "core_overhead": ("overheads.core", None),
        "chip_overhead": ("overheads.chip", None),
        "nominal_cores": ("nominal_chip.cores", None),
        "nominal_neurons_per_core": ("nominal_chip.neurons_per_core", None),
        "nominal_synapses_per_neuron": ("nominal_chip.synapses_per_neuron", None),
        "wire_pitch": ("wire_pitch_f", _FEATURE),
    }

    @property
    def min_ic_length(self) -> float:
        """Length of one minimum interconnect segment, 20 feature sizes, nm."""
        return self.feature_size * 20.0

    @property
    def load_capacitance(self) -> float:
        """Input capacitance of one minimum digital transistor, F."""
        return self.transistor_cap_per_width * self.digital_transistor_width * units.M_PER_NM

    @property
    def min_ic_capacitance(self) -> float:
        """C of one minimum-length interconnect segment, F."""
        return self.ic_cap_per_length * self.min_ic_length * units.M_PER_NM


class CircuitPrimitiveTable(NamedTuple):
    """Area/delay/energy of standard digital cells for one technology family."""

    inv: AdeTriple
    inv1: AdeTriple
    inv4: AdeTriple
    nan: AdeTriple
    reg: AdeTriple
    se: AdeTriple
    add1: AdeTriple
    add: AdeTriple
    ram: AdeTriple


class DeviceRecord(NamedTuple):
    """Intrinsic figures for one switching/resistive device."""

    name: str
    area_int: float  # nm^2
    delay_int: float  # ps
    energy_int: float  # aJ
    r_on: Optional[float] = None  # Ohm
    r_off: Optional[float] = None  # Ohm

    _loader = {
        "area_int": ("area", "area"),
        "delay_int": ("delay", "delay"),
        "energy_int": ("energy", "energy"),
        "r_on": (None, "resistance"),
        "r_off": (None, "resistance"),
    }

    @property
    def intrinsic(self) -> AdeTriple:
        return AdeTriple(self.area_int, self.delay_int, self.energy_int)


class Technology(NamedTuple):
    """One device/architecture combination for one network kind."""

    label: str
    network_kind: str
    combo: str
    synapse_device: str
    family: str
    primitive_family: str = "digital_cmos"
    transistor_family: str = "cmos"
    fan_in_class: str = "digital_cmos"  # key of the fan-in table; "snn" for every SNN row
    ic_voltage: Optional[float] = None  # None = supply voltage
    osc_class: Optional[str] = None  # ONN only
    osc_device: Optional[str] = None  # ONN only: device whose intrinsics set rate/power

    _loader = {
        "label": _BY_HAND,
        "network_kind": _BY_HAND,
        "combo": _BY_HAND,
        "osc_class": _BY_HAND,
        "osc_device": _BY_HAND,
    }


# Chip kind -> the fields that its tops-down consistency identities solve
# for. Accelerators are clock-driven and have only the power identity.
DERIVABLE = {
    "neuromorphic": ("syn_throughput", "fire_rate", "activity", "power", "energy_per_event"),
    "accelerator": ("power", "syn_throughput", "energy_per_event"),
}


class ChipRecord(NamedTuple):
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
    activity: Optional[Fraction] = None
    clock: Optional[float] = None  # Hz
    derived_fields: tuple[str, ...] = ()  # each one of DERIVABLE[kind]

    _loader = {
        "kind": _BY_HAND,
        "area": (None, "area"),
        "power": (None, "power"),
        "syn_throughput": (None, "syn_throughput"),
        "energy_per_event": (None, "energy"),
        "fire_rate": (None, "fire_rate"),
        "clock": (None, "clock"),
        "derived_fields": _BY_HAND,
    }

    @property
    def total_synapses(self) -> int:
        return self.cores * self.neurons_per_core * self.synapses_per_neuron


class LayerSpec(NamedTuple):
    """One weight layer; `kind` selects which fields apply."""

    kind: str  # fully_connected | convolution
    inputs: int = 0
    outputs: int = 0
    image_w: int = 0
    image_h: int = 0
    in_channels: int = 1
    kernel: int = 0
    feature_maps: int = 1
    stride: int = 1
    padding: str = "valid"


class WorkloadSpec(NamedTuple):
    """A named workload, its weight layers in order."""

    name: str
    layers: tuple[LayerSpec, ...]


T = TypeVar("T")


def _lookup(mapping: Mapping[str, T], name: str, what: str) -> T:
    try:
        return mapping[name]
    except KeyError:
        raise UnknownNameError(f"unknown {what} {name!r}") from None


def _text(cell: str) -> str:
    """A dataset text cell as a CSV field (RFC 4180), as every output writes it."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


_OWNERS = {  # record class -> what it is, its Registry mapping
    Technology: ("technology", "technologies"), ChipRecord: ("chip", "chips"), WorkloadSpec: ("workload", "workloads")
}


def own_name(registry: "Registry", record) -> str:
    """The name of a technology (its label), chip or workload spec, the memo's key
    for it, once `record` is (or equals) the registry's record of that name: each
    reaches the model only as one the loader checked. Any other raises."""
    what, mapping = _OWNERS[record.__class__]
    name = record[0]  # a label or a name
    own = getattr(registry, mapping).get(name)
    if own is not record and own != record:
        raise UnknownNameError(
            f"{what} {name!r} is not this registry's record of that name; change a {what} with derive"
        )
    return name


class Registry:
    """The validated datasets, by kind, and the bytes of the seven files they
    were built from, by file name (`files`). Only `_dataset` builds one, the
    registry of that content, which every load and derive of those bytes
    returns; it cannot be changed, and it starts its own memo, `_memo`. An
    entry point reads it in place, always in one shape: `memo.get(key) or
    memo.setdefault(key, compute(*args))`. The `or` keeps the compute off the
    hit path, and a compute that raises stores nothing. A key is a tuple of a
    constant tag for its kind of result (never a function object, which a
    tracer may rebind) and names; no key holds a record."""

    __slots__ = (
        "files", "constants", "primitives", "devices", "technologies", "chips", "workloads", "fan_in",
        "topsdown_params", "_memo",
    )
    files: Mapping[str, bytes]
    constants: GlobalConstants
    primitives: Mapping[str, CircuitPrimitiveTable]
    devices: Mapping[str, DeviceRecord]
    technologies: Mapping[str, Technology]  # label -> record, in table order
    chips: Mapping[str, ChipRecord]
    workloads: Mapping[str, WorkloadSpec]
    fan_in: Mapping[str, Optional[int]]  # fan-in class -> parallel fan-in; None = unlimited, 1 = sequential
    topsdown_params: Mapping[str, float]

    def __init__(self, files: dict, constants: GlobalConstants, *mappings: dict) -> None:
        values = MappingProxyType(files), constants, *map(MappingProxyType, mappings), {}
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, *args):
        raise AttributeError("a Registry cannot be changed; derive a new one with neurobench.derive")

    __delattr__ = __setattr__

    def device(self, name: str) -> DeviceRecord:
        return _lookup(self.devices, name, "device")

    def technology(self, label: str) -> Technology:
        return _lookup(self.technologies, label, "technology")

    def enumerate_technologies(self, network_kind: Optional[str] = None) -> list[Technology]:
        if network_kind is not None and network_kind not in NETWORK_KINDS:
            raise UnknownNameError(f"unknown network kind {network_kind!r}")
        if network_kind is None:
            return list(self.technologies.values())
        return [t for t in self.technologies.values() if t.network_kind == network_kind]

    def chip(self, name: str) -> ChipRecord:
        return _lookup(self.chips, name, "chip")

    def workload(self, name: str) -> WorkloadSpec:
        return _lookup(self.workloads, name, "workload")


# ---------------------------------------------------------------------------
# loading


_REQUIRED = object()
_FLOAT_MAX, _INF = sys.float_info.max, float("inf")
_COUNT_MAX = 2**53  # every integer up to it is exactly a float, so no count overflows a conversion
_NOUNS = {str: "a string", bool: "true or false", dict: "an object"}


def _value(doc: dict, key, kind, file: str, record: str = "", default=_REQUIRED):
    """Return doc[key] checked against `kind`; every dataset value is read here.

    kind is one of
      float          a finite number > 0
      int            an integral number in [1, 2**53] (2.0 passes, 2.7 does not)
      Fraction       a finite number in (0, 1]
      str, bool      a value of exactly that JSON type
      dict           an object (a record)
      [kind]         a list whose every element is of `kind`
      a collection   one of its names (units, families, references)
    A missing or null key yields `default`, and is an error without one.
    Every rejection raises ValidationError naming `file: record.key`.
    """
    value = doc.get(key)
    cls = value.__class__
    if value is None:
        if default is _REQUIRED:
            what = "constant" if file == "constants.json" and not record else "field"
            raise ValidationError(f"{file}: missing {what} {_path(record, key)}")
        return default
    if isinstance(kind, list):
        if cls is list:
            if kind[0] in (dict, str) and all(item.__class__ is kind[0] for item in value):
                return value
            items, path = dict(enumerate(value)), _path(record, key)
            return [_value(items, i, kind[0], file, path) for i in items]
        problem = "must be a list"
    elif not isinstance(kind, type):
        if cls is str and value in kind:
            return value
        problem = f"must be one of {sorted(kind)}"
    elif kind in _NOUNS:
        if isinstance(value, kind):
            return value
        problem = f"must be {_NOUNS[kind]}"
    elif cls is int or cls is float:  # not bool
        if kind is float:
            if 0.0 < value <= _FLOAT_MAX:
                return float(value)
            problem = "must be finite and positive"
        elif kind is int:
            if 1 <= value <= _COUNT_MAX and (cls is int or value.is_integer()):
                return int(value)
            problem = "must be an integer <= 2**53" if _COUNT_MAX < value < _INF else "must be an integer >= 1"
        else:
            if 0.0 < value <= 1.0:
                return float(value)
            problem = "must be in (0, 1]"
    else:
        problem = "must be a number"
    raise ValidationError(f"{file}: {_path(record, key)}: {problem}, got {value!r}")


def _path(record: str, key) -> str:
    return f"{record}.{key}" if record else key


_SCALARS = (float, int, str, bool, Fraction)
_RECORDS = (TransistorParams, SenseAmpWidths, OtaWidths, CircuitPrimitiveTable)  # the schema read from JSON objects
_KINDS = {  # annotation -> kind: a scalar, a record class, or (record class,) for an object of records by name
    **{t: t for t in _SCALARS}, **{Optional[t]: t for t in _SCALARS},
    **{r: r for r in (*_RECORDS, AdeTriple)}, **{Mapping[str, r]: (r,) for r in _RECORDS},
}


def _walk(cls) -> tuple:
    """(field, enclosing keys, JSON key, kind, unit, default) of every field of
    `cls` that its `_loader` table does not leave to the loader."""
    loader = getattr(cls, "_loader", {})
    walked = []
    for name in cls._fields:
        how = loader.get(name, (None, None))
        if how is not _BY_HAND:
            *enclosing, key = (how[0] or name).split(".")
            kind, default = _KINDS[cls.__annotations__[name]], cls._field_defaults.get(name, _REQUIRED)
            walked.append((name, tuple(enclosing), key, kind, how[1], default))
    return tuple(walked)


_WALKS = {cls: _walk(cls) for cls in (GlobalConstants, DeviceRecord, Technology, ChipRecord, *_RECORDS)}
# a primitive cell: area, delay and energy, each in its header unit (`ade.py` keeps its annotations as strings)
_WALKS[AdeTriple] = tuple((name, (), name, float, name, _REQUIRED) for name in AdeTriple._fields)


def _read(cls, doc: dict, file: str, record: str = "", factors=None, defaults=None, kinds=None) -> dict:
    """Keyword arguments for `cls` from its walked fields in `doc`, in field
    order. `factors` maps units to conversion factors; `defaults`, when
    given, replaces the class defaults for every field; `kinds` narrows the
    kind of some scalar fields to a collection of known names."""
    kwargs = {}
    for name, enclosing, key, kind, unit, default in _WALKS[cls]:
        node, path = doc, record
        for step in enclosing:
            node, path = _value(node, step, dict, file, path), _path(path, step)
        if kind in _WALKS:
            kwargs[name] = _record(kind, node, key, file, path, factors)
        elif kind.__class__ is tuple:  # records by name, read-only
            block, path = _value(node, key, dict, file, path), _path(path, key)
            kwargs[name] = MappingProxyType({k: _record(kind[0], block, k, file, path, factors) for k in block})
        else:
            if kinds is not None:
                kind = kinds.get(name, kind)
            value = _value(node, key, kind, file, path, default if defaults is None else defaults[name])
            kwargs[name] = _converted(value, factors[unit], file, path, key) if unit and value is not None else value
    return kwargs


def _record(cls, doc: dict, key: str, file: str, record: str, factors):
    """The `cls` record read from the object doc[key]."""
    return cls(**_read(cls, _value(doc, key, dict, file, record), file, _path(record, key), factors))


def _converted(value: float, factor: float, file: str, record: str, key) -> float:
    """A checked value times its unit factor; the product must be finite and positive too."""
    if not 0.0 < value * factor <= _FLOAT_MAX:
        raise ValidationError(f"{file}: {_path(record, key)}: must be finite and positive once converted, got {value}")
    return value * factor


_CANONICAL = {key: tuple(n for n, f in table.items() if f == 1.0) for key, table in units.HEADER_UNITS.items()}


def _units(doc: dict, file: str, converted=()) -> dict[str, float]:
    """Conversion factors of the units that the loader converts: each header
    unit in `converted`, and `_FEATURE`, the file's feature size, whose 20
    multiples (the minimum interconnect length) must be finite too. Every
    other unit the header declares must be the canonical one."""
    header = _value(doc, "units", dict, file)
    for key in header:
        if key in _CANONICAL and key not in converted:
            _value(header, key, _CANONICAL[key], file, "units", None)
    tables = {key: units.HEADER_UNITS[key] for key in converted if key != _FEATURE}
    factors = {key: table[_value(header, key, table, file, "units")] for key, table in tables.items()}
    if _FEATURE in converted:
        feature = factors[_FEATURE] = _value(doc, _FEATURE, float, file)
        _converted(feature, 20.0, file, "", _FEATURE)
    return factors


def _units_of(cls) -> tuple[str, ...]:
    """The units that reading a `cls` converts, its records' included, in walk
    order, so a header that lacks several names the same one on every run."""
    found = {}
    for _, _, _, kind, unit, _ in _WALKS[cls]:
        nested = kind[0] if kind.__class__ is tuple else kind
        if nested in _WALKS:
            found.update(dict.fromkeys(_units_of(nested)))
        elif unit:
            found[unit] = None
    return tuple(found)


def _insert(records: dict, key: str, record, file: str, what: str) -> None:
    if key in records:
        raise ValidationError(f"{file}: duplicate {what} {key!r}")
    records[key] = record


# O_BINARY (Windows only) keeps the C runtime from translating line ends
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)
_READ_SIZE = 16384  # why 16 KiB: see the module docstring


def _file_bytes(directory: str, name: str) -> bytes:
    """The bytes of file `name` in `directory`, read by `os.read` on a raw
    descriptor until a read returns nothing: no file object, no `fstat`.
    Errors name the file as `open` would."""
    try:
        fd = os.open(os.path.join(directory, name), _READ_FLAGS)
        try:
            chunks = [os.read(fd, _READ_SIZE)]
            while chunks[-1]:
                chunks.append(os.read(fd, _READ_SIZE))
        finally:
            os.close(fd)
    except FileNotFoundError:
        raise DatasetError(f"{name}: file not found in {Path(directory)}") from None
    except OSError as e:
        # named as `open` names it; a directory fails only at the read, unnamed
        raise OSError(e.errno, e.strerror, os.path.join(Path(directory), name)) from None
    return chunks[0] if len(chunks) == 2 else b"".join(chunks)


def _parsed(data: bytes, name: str) -> dict:
    try:
        doc = json.loads(data)
    # not JSON, not UTF-8, an integer over `sys.get_int_max_str_digits()` digits, or nested past the recursion limit
    except (ValueError, RecursionError) as e:
        raise DatasetError(f"{name}: parse failure: {e}") from None
    if not isinstance(doc, dict) or "units" not in doc:
        raise DatasetError(f"{name}: missing required 'units' header block")
    return doc


# Each builder below is a pure function of the bytes of one file, and of the
# names that file may reference, cached by them: never by path or mtime, so
# a file rewritten in place is read again. No builder calls another; `_checked`
# passes the names on and checks what spans files. lru_cache stores no exception.
_CACHE_ENTRIES = 32  # per builder, and the registries that `_dataset` keeps, one per content
_by_content = functools.lru_cache(maxsize=_CACHE_ENTRIES)


@_by_content
def _constants(data: bytes) -> GlobalConstants:
    name = "constants.json"
    doc = _parsed(data, name)
    factors = _units(doc, name, _units_of(GlobalConstants))
    constants = GlobalConstants(**_read(GlobalConstants, doc, name, factors=factors))
    if "cmos" not in constants.transistors:
        raise ValidationError(f"{name}: transistors must include a 'cmos' family")

    # table self-consistency: per-length resistance times minimum length must
    # reproduce the quoted minimum-interconnect resistance within 2%
    implied = constants.ic_res_per_length * constants.min_ic_length * units.M_PER_NM
    if abs(implied - constants.min_ic_resistance) / constants.min_ic_resistance > 0.02:
        raise ValidationError(
            f"{name}: ic_res_per_length * min_ic_length = {implied:.1f} Ohm "
            f"disagrees with min_ic_resistance = {constants.min_ic_resistance:.1f} Ohm by more than 2%"
        )
    # orderings that the sense amp, analog read and OTA cell models need
    orders = [
        ("", constants, "sense_voltage", "supply_voltage"),
        ("", constants, "vsa_read_voltage", "analog_row_voltage"),
    ]
    for fam, params in constants.transistors.items():
        orders.append((f"transistors.{fam}", params, "off_current_per_width", "on_current_per_width"))
    for record, row, low, high in orders:
        below, above = getattr(row, low), getattr(row, high)
        if not below < above:
            raise ValidationError(f"{name}: {_path(record, low)}: must be below {high} ({below} >= {above})")
    return constants


@_by_content
def _primitives(data: bytes) -> dict[str, CircuitPrimitiveTable]:
    name = "circuit_primitives.json"
    doc = _parsed(data, name)
    factors = _units(doc, name, _units_of(CircuitPrimitiveTable))
    families = _value(doc, "families", dict, name)
    tables = {}
    for fam in families:  # a cell is named by its family alone: `digital_cmos.inv.area`
        cells = _value(families, fam, dict, name, "families")
        tables[fam] = CircuitPrimitiveTable(**_read(CircuitPrimitiveTable, cells, name, fam, factors))
    for fam in ("digital_cmos", "digital_tfet"):
        if fam not in tables:
            raise ValidationError(f"{name}: missing primitive family {fam!r}")
    return tables


@_by_content
def _devices(data: bytes) -> dict[str, DeviceRecord]:
    name = "devices.json"
    doc = _parsed(data, name)
    factors = _units(doc, name, _units_of(DeviceRecord))
    devices = {}
    for i, row in enumerate(_value(doc, "devices", [dict], name)):
        dev = _value(row, "name", str, name, f"devices.{i}")
        record = DeviceRecord(**_read(DeviceRecord, row, name, dev, factors))
        if (record.r_on is None) != (record.r_off is None):
            raise ValidationError(f"{name}: {dev}: r_on and r_off must be given together")
        if record.r_on is not None and record.r_off <= record.r_on:
            raise ValidationError(f"{name}: {dev}.r_off: must exceed r_on ({record.r_off} <= {record.r_on})")
        _insert(devices, dev, record, name, "device")
    return devices


@_by_content
def _technologies(
    data: bytes, transistor_families: tuple, primitive_families: tuple, devices: tuple, resistive_devices: tuple
) -> tuple[dict[str, Technology], dict]:
    """Technologies and fan-in limits, checked against the names they may
    reference: transistor and primitive families, devices, and the devices
    with r_on/r_off. The key holds those names, not the other files' bytes."""
    name = "technologies.json"
    doc = _parsed(data, name)
    _units(doc, name)
    # required classes: SNN rows and neuromorphic chips run at "snn", accelerators at "sequential"
    fan_in = {"snn": None, "sequential": None, **_value(doc, "fan_in", dict, name)}
    limits = {c: None if fan_in[c] == "unlimited" else _value(fan_in, c, int, name, "fan_in") for c in fan_in}
    known = {
        "family": ELEMENT_FAMILIES,
        "synapse_device": {*devices, *primitive_families},
        "primitive_family": primitive_families,
        "transistor_family": transistor_families,
        "fan_in_class": limits.keys(),
    }
    # a family built from the synapse device needs its record, a resistive one also its r_on/r_off
    device_of = {"analog_single_device": devices, **dict.fromkeys(RESISTIVE_FAMILIES, resistive_devices)}

    def device_checked(options: dict, record: str) -> dict:
        if options["family"] in device_of:
            _value(options, "synapse_device", device_of[options["family"]], name, record)
        return options

    combos = {}
    for i, row in enumerate(_value(doc, "combos", [dict], name)):
        code = _value(row, "code", str, name, f"combos.{i}")
        if _value(row, "neuron_code", str, name, code) + _value(row, "synapse_code", str, name, code) != code:
            raise ValidationError(f"{name}: {code}: label does not decompose into neuron+synapse codes")
        networks = _value(row, "networks", [NETWORK_KINDS[:3]], name, code)
        base = device_checked(_read(Technology, row, name, code, kinds=known), code)
        _insert(combos, code, (base, networks), name, "combo")

    # Table order: all ANN rows, then CNN, then SNN (matching the reference
    # matrix grouping), then the oscillator column.
    technologies: dict[str, Technology] = {}
    for kind in NETWORK_KINDS[:3]:
        for code, (base, networks) in combos.items():
            if kind in networks:
                label = NETWORK_PREFIX[kind] + code
                # spiking rows take the snn fan-in
                options = base | {"fan_in_class": "snn"} if kind == "SNN" else base
                tech = Technology(label=label, network_kind=kind, combo=code, **options)
                _insert(technologies, label, tech, name, "technology")
    for i, row in enumerate(_value(doc, "oscillators", [dict], name)):
        label = _value(row, "label", str, name, f"oscillators.{i}")
        code = _value(row, "base_combo", combos.keys(), name, label)
        inherited = _read(Technology, row, name, label, defaults=combos[code][0], kinds=known)
        device = inherited["synapse_device"] = _value(
            row, "element_device", devices, name, label, default=inherited["synapse_device"]
        )
        osc_class = _value(row, "osc_class", ("transistor_ring", "spintronic", "piezo"), name, label)
        # a ring or spintronic oscillator takes its rate and power from a device,
        # by default the synapse device; a piezo resonator reads none
        default = None if osc_class == "piezo" else device if device in devices else _REQUIRED
        tech = Technology(
            label=label,
            network_kind="ONN",
            combo=code,
            osc_class=osc_class,
            osc_device=_value(row, "osc_device", devices, name, label, default=default),
            **device_checked(inherited, label),
        )
        _insert(technologies, label, tech, name, "technology")
    return technologies, limits


_NEUROMORPHIC, _ACCELERATORS = "chips_neuromorphic.json", "chips_accelerators.json"
_CHIP_KINDS = {_NEUROMORPHIC: "neuromorphic", _ACCELERATORS: "accelerator"}
_TOPSDOWN_PARAMS = ("neuron_area_fraction", "accelerator_compute_fraction")


def _chip_file(data: bytes, name: str) -> tuple[dict[str, ChipRecord], dict]:
    """The chips of the chip file `name`, and the tops-down parameters as
    written, which `_build` checks after both chip files."""
    doc = _parsed(data, name)
    kind, factors = _CHIP_KINDS[name], _units(doc, name, _units_of(ChipRecord))
    chips: dict[str, ChipRecord] = {}
    for i, row in enumerate(_value(doc, "chips", [dict], name)):
        cname = _value(row, "name", str, name, f"chips.{i}")
        derived = tuple(_value(row, "derived", [DERIVABLE[kind]], name, cname, default=()))
        record = ChipRecord(kind=kind, derived_fields=derived, **_read(ChipRecord, row, name, cname, factors))
        _insert(chips, cname, record, name, "chip")
    return chips, {key: doc.get(key) for key in _TOPSDOWN_PARAMS}


# one builder per chip file, each with its own cache
_CHIP_BUILDER = {name: _by_content(functools.partial(_chip_file, name=name)) for name in _CHIP_KINDS}


@_by_content
def _workloads(data: bytes) -> dict[str, WorkloadSpec]:
    name = "workloads.json"
    doc = _parsed(data, name)
    _units(doc, name)
    counts = {
        "fully_connected": ("inputs", "outputs"),
        "convolution": ("image_w", "image_h", "in_channels", "kernel", "feature_maps"),
    }
    defaults = LayerSpec._field_defaults
    specs = {}
    for i, row in enumerate(_value(doc, "workloads", [dict], name)):
        wname = _value(row, "name", str, name, f"workloads.{i}")
        layer_rows = _value(row, "layers", [dict], name, wname)
        if not layer_rows:
            raise ValidationError(f"{name}: {wname}.layers: must list at least one layer")
        layers = []
        for j, layer in enumerate(layer_rows):
            rec = f"{wname}.layers[{j}]"
            kind = _value(layer, "kind", counts.keys(), name, rec)
            kw = {k: _value(layer, k, int, name, rec) for k in counts[kind]}
            if kind == "convolution":
                kw["stride"] = _value(layer, "stride", int, name, rec, default=defaults["stride"])
                kw["padding"] = _value(layer, "padding", ("valid", "same"), name, rec, default=defaults["padding"])
                if kw["padding"] == "valid" and kw["kernel"] > min(kw["image_w"], kw["image_h"]):
                    raise ValidationError(f"{name}: {rec}.kernel: exceeds image dimensions under valid padding")
            layers.append(LayerSpec(kind=kind, **kw))
        _insert(specs, wname, WorkloadSpec(name=wname, layers=tuple(layers)), name, "workload")
    return specs


def default_data_dir() -> Path:
    override = os.environ.get(ENV_DATA_DIR)
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


_FILES = (
    "constants.json", "circuit_primitives.json", "devices.json", "technologies.json", *_CHIP_KINDS, "workloads.json"
)


def _checked(data: Callable[[str], bytes]) -> tuple:
    """The validated datasets, in `Registry` field order from `constants` on,
    of the files whose bytes `data(name)` returns. Each file is asked for
    right before its builder checks it, in `_FILES` order, so the first fault
    in that order is reported; a builder gets the names its file may
    reference, and a chip name in both chip files and the tops-down
    parameters are checked after both."""
    constants = _constants(data("constants.json"))
    primitives = _primitives(data("circuit_primitives.json"))
    devices = _devices(data("devices.json"))
    resistive = tuple(d for d, record in devices.items() if record.r_on is not None)
    technologies, limits = _technologies(
        data("technologies.json"), tuple(constants.transistors), tuple(primitives), tuple(devices), resistive
    )
    (neuromorphic, params), (accelerators, _) = (_CHIP_BUILDER[name](data(name)) for name in _CHIP_KINDS)
    chips = dict(neuromorphic)
    for cname, record in accelerators.items():
        _insert(chips, cname, record, _ACCELERATORS, "chip")
    topsdown_params = {key: _value(params, key, Fraction, _NEUROMORPHIC) for key in _TOPSDOWN_PARAMS}
    workloads = _workloads(data("workloads.json"))
    return constants, primitives, devices, technologies, chips, workloads, limits, topsdown_params


class _Contents(tuple):
    """The bytes of the seven files, in `_FILES` order: the key of `_dataset`.
    It hashes only their lengths, and a lookup compares every byte of an
    entry of the same lengths, so it stays exact and spares hashing all the
    bytes, which took about a quarter of a warm load."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(map(len, self)))


@_by_content
def _dataset(contents: _Contents) -> Registry:
    """The registry of the seven files whose bytes are `contents`, one per
    content among the 32 latest. A miss runs the per-file builders, so a file
    whose bytes were built before, beside others that were not, shares its records."""
    files = dict(zip(_FILES, contents))
    return Registry(files, *_checked(files.__getitem__))


def _build(read: Callable[[str], bytes]) -> Registry:
    """The registry of the files whose bytes `read(name)` returns: seven reads
    in `_FILES` order, then one lookup of their bytes. If a read fails, the
    files before it are checked first, in that order, and then it is read
    again, so the first fault in file order is the one reported."""
    files: dict[str, bytes] = {}
    for name in _FILES:
        try:
            files[name] = read(name)
        except (DatasetError, OSError):
            break
    if len(files) < len(_FILES):
        # a read failed: check the files before it, then read it again to raise its error;
        # should that read succeed, it and the reads after it fill `files` in order
        _checked(lambda name: files[name] if name in files else files.setdefault(name, read(name)))
    return _dataset(_Contents(files.values()))


def load_datasets(data_dir: Optional[os.PathLike] = None) -> Registry:
    """Load and cross-validate all dataset files, returning the read-only
    registry of their content. A warm load, of bytes among the 32 latest
    contents, from any path, is seven reads and one lookup: it calls no
    builder and returns the registry first built from those bytes."""
    return _build(functools.partial(_file_bytes, os.fspath(default_data_dir() if data_dir is None else data_dir)))


def _json_key(node, step, within):
    """`step` as a key of the JSON `node`, the value at key `within` of its
    parent: a string step into a list is the index of the row it names, by
    `code` in `combos`, `label` in `oscillators` and `name` in every other list."""
    if isinstance(node, list) and isinstance(step, str):
        key = {"combos": "code", "oscillators": "label"}.get(within, "name")
        return next(i for i, row in enumerate(node) if isinstance(row, dict) and row.get(key) == step)
    return step


def derive(registry: Registry, edits: Mapping[str, Mapping[tuple, object]]) -> Registry:
    """The registry of `registry.files` with `edits` applied, through every
    check of `load_datasets`. `edits` maps a file name to `{path: value}`,
    where a path is a tuple of JSON keys, list indices and, into a list, row
    names, and a value is in the file's units:
    `{"constants.json": {("supply_voltage",): 0.9}, "devices.json": {("devices", "ME", "area"): 6100}}`.
    A file without edits keeps its bytes and records; with none at all, the
    result is `registry` itself while its content is among the 32 latest."""
    files = dict(registry.files)
    for name, changes in edits.items():
        doc = json.loads(_lookup(files, name, "dataset file"))
        for path, value in changes.items():
            try:
                *steps, last = path
                node, within = doc, None
                for step in steps:
                    node, within = node[_json_key(node, step, within)], step
                node[_json_key(node, last, within)] = value
            except (KeyError, IndexError, TypeError, ValueError, StopIteration):
                raise UnknownNameError(f"{name}: no value at path {path!r}") from None
        try:
            files[name] = json.dumps(doc).encode()
        except (ValueError, RecursionError) as e:  # an integer of too many digits, or a value nested too deep
            raise DatasetError(f"{name}: cannot be written as JSON: {e}") from None
    return _build(files.__getitem__)
