import functools
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import derived_constants, json_leaves, load_new, rewrite_json
from neurobench import FigureError, cli, derive, load_datasets, report
from neurobench.topsdown import IncomputableError, topsdown_element
from neurobench.registry import (
    RESISTIVE_FAMILIES,
    DatasetError,
    GlobalConstants,
    UnknownNameError,
    ValidationError,
    _BY_HAND,
    _CHIP_BUILDERS,
    _READ_SIZE,
    _WALKS,
    _constants,
    _dataset,
    _devices,
    _json_key,
    _primitives,
    _technologies,
    _workloads,
    default_data_dir,
)


def test_default_dataset_counts(registry):
    # the device table row count, units row excluded
    assert len(registry.devices) == 15
    assert len(registry.technologies) == 56


def test_lookup_device_me(registry):
    me = registry.device("ME")
    assert me.delay_int == pytest.approx(679.91)
    assert me.energy_int == pytest.approx(1108.90)


def test_lookup_device_oxider_resistances(registry):
    ox = registry.device("OxideR")
    assert ox.r_on == pytest.approx(200e3)  # canonical Ohm
    assert ox.r_off == pytest.approx(1000e3)


def test_lookup_unknown_device(registry):
    with pytest.raises(UnknownNameError, match="NOPE"):
        registry.device("NOPE")


def test_enumerate_onn_has_the_seven_oscillators(registry):
    labels = {t.label for t in registry.enumerate_technologies("ONN")}
    assert labels == {
        "OscSTT", "OscSOT", "OscMOSring", "OscTFEring", "OscPiezo", "OscOxide", "OscME",
    }


def test_enumerate_ann_has_17_entries(registry):
    ann = registry.enumerate_technologies("ANN")
    assert len(ann) == 17
    assert "ANNDCSRAM" in {t.label for t in ann}


def test_enumerate_all_is_duplicate_free_union(registry):
    everything = registry.enumerate_technologies()
    labels = [t.label for t in everything]
    assert len(labels) == len(set(labels))
    by_kind = sum(len(registry.enumerate_technologies(k)) for k in ("ANN", "CNN", "SNN", "ONN"))
    assert len(everything) == by_kind


def test_enumerate_rejects_an_unknown_network_kind(registry):
    with pytest.raises(UnknownNameError, match=r"^unknown network kind 'XNN'$"):
        registry.enumerate_technologies("XNN")


def test_snn_has_no_mac_rows(registry):
    assert not any(registry.fan_in[t.fan_in_class] == 1 for t in registry.enumerate_technologies("SNN"))


def test_every_loader_entry_names_a_field_of_its_class():
    # a misspelt entry would leave its field read by name and unconverted
    by_hand = set()
    for cls, walk in _WALKS.items():
        loader = getattr(cls, "_loader", {})
        assert set(loader) <= set(cls._fields), cls.__name__
        # every other field is walked: none is skipped for its annotation
        hand = [name for name, how in loader.items() if how is _BY_HAND]
        assert sorted([entry[0] for entry in walk] + hand) == sorted(cls._fields), cls.__name__
        by_hand.update(f"{cls.__name__}.{name}" for name in hand)
    # only the fields that follow a rule of their own
    assert by_hand == {
        "Technology.label", "Technology.network_kind", "Technology.combo", "Technology.osc_class",
        "Technology.osc_device", "ChipRecord.kind", "ChipRecord.derived_fields",
    }


# every GlobalConstants leaf read from a nested key, in feature sizes or by family name: leaf -> constants.json key
_ROUTES = {
    ("digital_transistor_width",): ("digital_transistor_width_f",),
    ("wire_pitch",): ("wire_pitch_f",),
    **{("sense_amp_widths", k): ("sense_amp_widths_f", k) for k in ("p", "n", "iso", "enable")},
    **{("ota_widths", k): ("ota_widths_f", k) for k in ("input", "pullup", "output")},
    **{(f"{k}_overhead",): ("overheads", k) for k in ("synapse", "neuron", "core", "chip")},
    **{(f"nominal_{k}",): ("nominal_chip", k) for k in ("cores", "neurons_per_core", "synapses_per_neuron")},
    **{
        ("transistors", fam, k): ("transistors", fam, k)
        for fam in ("cmos", "tfet") for k in ("on_current_per_width", "off_current_per_width", "saturation_voltage")
    },
}


def _record_leaves(record, path=()):
    """(path, value) of every number or text in a record, its records and its mappings of records."""
    for name, value in record.items() if isinstance(record, Mapping) else zip(record._fields, record):
        if isinstance(value, (tuple, Mapping)):
            yield from _record_leaves(value, (*path, name))
        else:
            yield (*path, name), value


def test_the_routes_are_every_nested_or_feature_size_key(constants):
    def routed(cls, path=()):
        for name, enclosing, _, kind, unit, _ in _WALKS[cls]:
            if kind in _WALKS:
                yield from routed(kind, (*path, name))
            elif isinstance(kind, tuple):  # records by name: the shipped transistor families
                for family in constants.transistors:
                    yield from routed(kind[0], (*path, name, family))
            elif enclosing or unit == "feature_size" or path:
                yield (*path, name)

    assert set(routed(GlobalConstants)) == set(_ROUTES)


@pytest.mark.parametrize("leaf, key", _ROUTES.items(), ids=[".".join(leaf) for leaf in _ROUTES])
def test_a_routed_key_moves_exactly_its_field_by_the_edit_factor(registry, leaf, key):
    # a misrouted `_loader` entry moves another field, or this one by another factor
    value = functools.reduce(operator.getitem, key, json.loads(registry.files["constants.json"]))
    before = dict(_record_leaves(registry.constants))
    after = dict(_record_leaves(derive(registry, {"constants.json": {key: 2 * value}}).constants))
    assert before.keys() == after.keys()
    assert {path for path in before if after[path] != before[path]} == {leaf}
    assert after[leaf] == 2 * before[leaf]
    assert before[leaf] == value * (registry.constants.feature_size if key[0].endswith("_f") else 1)  # in nm


def test_a_header_without_its_units_names_the_first_in_walk_order(tmp_path):
    """With `units: {}`, the unit reported is the walk's first, whatever the hash seed."""
    directories = []
    for name in ("constants.json", "chips_neuromorphic.json", "devices.json"):
        directory = tmp_path / name.removesuffix(".json")
        directory.mkdir()
        for path in default_data_dir().glob("*.json"):
            (directory / path.name).write_bytes(path.read_bytes())
        rewrite_json(directory / name, lambda doc: doc.update(units={}))
        directories.append(str(directory))
    probe = (
        "import sys\n"
        "from neurobench import load_datasets\n"
        "from neurobench.registry import ValidationError\n"
        "for directory in sys.argv[1:]:\n"
        "    try:\n"
        "        load_datasets(directory)\n"
        "    except ValidationError as e:\n"
        "        print(e)\n"
    )
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "NEUROBENCH_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    expected = (
        "constants.json: missing field units.cap_per_length\n"
        "chips_neuromorphic.json: missing field units.area\n"
        "devices.json: missing field units.area\n"
    )
    for seed in range(6):
        proc = subprocess.run(
            [sys.executable, "-c", probe, *directories], env={**env, "PYTHONHASHSEED": str(seed)},
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, ""), seed


def test_min_ic_length_defaults_to_20_feature_sizes(constants):
    assert constants.min_ic_length == pytest.approx(20 * constants.feature_size)
    assert constants.min_ic_length == pytest.approx(300.0)


@pytest.mark.parametrize(
    "field, derived", [("feature_size", "min_ic_length"), ("transistor_cap_per_width", "load_capacitance")]
)
def test_derived_constants_follow_a_replaced_input(registry, field, derived):
    # the loader ties min_ic_resistance to 20 feature sizes within 2%, so it doubles too
    fields = (field, "min_ic_resistance") if field == "feature_size" else (field,)
    doc = json.loads(registry.files["constants.json"])
    doubled = derived_constants(registry, **{f: 2 * doc[f] for f in fields})
    assert getattr(doubled, derived) == 2 * getattr(registry.constants, derived)


def test_ic_resistance_self_consistency(constants):
    implied = constants.ic_res_per_length * constants.min_ic_length * 1e-9
    assert abs(implied - constants.min_ic_resistance) / constants.min_ic_resistance < 0.02


def test_every_technology_reference_resolves(registry):
    for tech in registry.technologies.values():
        ref = tech.synapse_device
        assert ref in registry.devices or ref in registry.primitives, (tech.label, ref)


def test_oscillator_device_defaults_to_the_synapse_device(data_copy):
    def drop(doc):
        del next(row for row in doc["oscillators"] if row["label"] == "OscSOT")["osc_device"]

    rewrite_json(data_copy / "technologies.json", drop)
    registry = load_datasets(data_copy)
    assert registry.technology("OscSOT").osc_device == registry.technology("OscSOT").synapse_device == "SOT"
    assert registry.technology("OscPiezo").osc_device is None  # a piezo resonator reads no device


def test_label_decomposition(registry):
    prefixes = {"ANN": "ANN", "CNN": "CNN", "SNN": "Spi"}
    for tech in registry.technologies.values():
        if tech.network_kind in prefixes:
            assert tech.label == prefixes[tech.network_kind] + tech.combo


def test_deterministic_load():
    a, b = load_datasets(), load_datasets()
    assert all(getattr(a, name) == getattr(b, name) for name in ("constants", *_MAPPINGS, "fan_in", "topsdown_params"))
    assert list(a.technologies) == list(b.technologies)


def test_validation_rejects_swapped_resistances(registry):
    with pytest.raises(ValidationError, match="OxideR"):
        derive(registry, {"devices.json": {("devices", "OxideR", "r_on"): 1000, ("devices", "OxideR", "r_off"): 200}})


def test_missing_supply_voltage_is_named(data_copy):
    rewrite_json(data_copy / "constants.json", lambda doc: doc.pop("supply_voltage"))
    with pytest.raises(ValidationError, match="missing constant supply_voltage"):
        load_datasets(data_copy)


def test_missing_units_header_rejected(data_copy):
    rewrite_json(data_copy / "devices.json", lambda doc: doc.pop("units"))
    with pytest.raises(DatasetError, match="units"):
        load_datasets(data_copy)


def test_malformed_file_reports_parse_failure(data_copy):
    (data_copy / "devices.json").write_text("{not json")
    with pytest.raises(DatasetError, match="parse failure"):
        load_datasets(data_copy)


def test_dangling_device_reference_is_named(registry):
    with pytest.raises(ValidationError, match="Vapourware"):
        derive(registry, {"technologies.json": {("combos", 2, "synapse_device"): "Vapourware"}})


def test_unit_round_trip_devices(registry):
    """Canonical values convert back to the dataset's units bit-exactly
    (conversions are single multiplications by powers of ten)."""
    raw = json.loads((default_data_dir() / "devices.json").read_text())
    factor = {"kOhm": 1e3}[raw["units"]["resistance"]]
    for row in raw["devices"]:
        rec = registry.device(row["name"])
        assert rec.area_int == row["area"]
        assert rec.delay_int == row["delay"]
        assert rec.energy_int == row["energy"]
        if "r_on" in row:
            assert rec.r_on / factor == pytest.approx(row["r_on"], rel=1e-15)
            assert rec.r_off / factor == pytest.approx(row["r_off"], rel=1e-15)


def test_chip_records_store_missing_fields_as_absent(registry):
    dyn = registry.chip("DYNAPSEL")
    assert dyn.power is None
    assert dyn.syn_throughput is None
    assert dyn.activity is None


def test_activity_bounds_enforced(registry):
    with pytest.raises(ValidationError, match="activity"):
        derive(registry, {"chips_neuromorphic.json": {("chips", "TrueNorth", "activity"): 1.5}})


@pytest.mark.parametrize(
    "file, rows, key, copied, name",
    [
        ("devices.json", "devices", "name", "ME", "ME"),
        ("technologies.json", "combos", "code", "DCSRAM", "DCSRAM"),
        ("workloads.json", "workloads", "name", "lenet", "lenet"),
        ("chips_neuromorphic.json", "chips", "name", "TrueNorth", "TrueNorth"),
        ("chips_accelerators.json", "chips", "name", "Eyeriss", "TrueNorth"),  # a name from the other chip file
        ("technologies.json", "oscillators", "label", "OscME", "OscME"),
        ("technologies.json", "oscillators", "label", "OscME", "ANNDCSRAM"),  # a label derived from a combo
    ],
)
def test_duplicate_record_name_is_rejected(data_copy, file, rows, key, copied, name):
    def duplicate(doc):
        row = next(r for r in doc[rows] if r[key] == copied)
        doc[rows].append({**row, key: name})

    rewrite_json(data_copy / file, duplicate)
    with pytest.raises(ValidationError, match=re.escape(f"{file}: duplicate") + f".* '{re.escape(name)}'"):
        load_datasets(data_copy)


def test_the_first_fault_in_file_order_is_reported(data_copy):
    rewrite_json(data_copy / "chips_neuromorphic.json", lambda doc: doc["chips"][5].update(activity=1.5))
    (data_copy / "chips_accelerators.json").unlink()
    with pytest.raises(ValidationError, match=r"^chips_neuromorphic\.json: .*activity"):
        load_datasets(data_copy)


# -- one validator: every rejected value names file, record and field ---------

_DELETE = "<delete the key>"  # readable in a falsifying example


def _edit(doc, path, value):
    """Set the leaf at `path`, or remove it for _DELETE; a step is read as
    `derive` reads it, so a string step into a list picks the row of that name."""
    *steps, last = path
    for step in steps:
        doc = doc[_json_key(doc, step)]
    if value == _DELETE:
        del doc[_json_key(doc, last)]
    else:
        doc[_json_key(doc, last)] = value


# Each case carries its own id, so a case inserted anywhere renames no other test. The first 39
# keep the ids that pytest once numbered by table position; a new case is named `<file>:<path>`.
@pytest.mark.parametrize(
    "file, path, value, named, argv",
    [
        pytest.param(
            "devices.json", ("devices", "CMOSdig", "delay"), _DELETE, ("CMOSdig.delay",), ("devices", "list"),
            id="devices.json-path0-<delete the key>-named0-argv0",
        ),
        pytest.param(
            "circuit_primitives.json", ("units", "area"), "furlong^2", ("units.area", "furlong^2"),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="circuit_primitives.json-path1-furlong^2-named1-argv1",
        ),
        pytest.param(
            "constants.json", ("supply_voltage",), math.inf, ("supply_voltage", "inf"),
            ("bench", "chip", "--nominal", "--tech", "ANNMEME"),
            id="constants.json-path2-inf-named2-argv2",
        ),
        pytest.param(
            "constants.json", ("synapse_bits",), 2.7, ("synapse_bits", "2.7"),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path3-2.7-named3-argv3",
        ),
        pytest.param(
            "workloads.json", ("workloads", "lenet", "layers", 0, "stride"), 0.001, ("lenet.layers[0].stride",),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            id="workloads.json-path4-0.001-named4-argv4",
        ),
        pytest.param(
            "chips_accelerators.json", ("chips", "Diannao", "syn_throughput"), 0, ("Diannao.syn_throughput",),
            ("topsdown", "--chip", "Diannao", "--backfill"),
            id="chips_accelerators.json-path5-0-named5-argv5",
        ),
        pytest.param(
            "chips_neuromorphic.json", ("neuron_area_fraction",), 1.5, ("neuron_area_fraction", "1.5"),
            ("topsdown", "--chip", "TrueNorth"),
            id="chips_neuromorphic.json-path6-1.5-named6-argv6",
        ),
        pytest.param(
            "devices.json", ("devices", "CMOSdig", "name"), 2.5, ("devices.0.name", "2.5"), ("devices", "list"),
            id="devices.json-path7-2.5-named7-argv7",
        ),
        pytest.param(
            "constants.json", ("units", "time"), "ns", ("units.time", "'ns'"), ("devices", "list"),
            id="constants.json-path8-ns-named8-argv8",
        ),
        pytest.param(
            "technologies.json", ("fan_in", "snn"), _DELETE, ("fan_in.snn",), ("devices", "list"),
            id="technologies.json-path9-<delete the key>-named9-argv9",
        ),
        pytest.param(
            "technologies.json", ("fan_in", "sequential"), _DELETE, ("fan_in.sequential",), ("devices", "list"),
            id="technologies.json-path10-<delete the key>-named10-argv10",
        ),
        pytest.param(
            "technologies.json", ("fan_in",), _DELETE, ("missing field fan_in",), ("devices", "list"),
            id="technologies.json-path11-<delete the key>-named11-argv11",
        ),
        pytest.param(
            "workloads.json", ("workloads", "lenet", "layers"), [], ("lenet.layers",),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            id="workloads.json-path12-value12-named12-argv12",
        ),
        pytest.param(
            "chips_neuromorphic.json", ("chips", "HICANN", "derived"), ["bogus"], ("HICANN.derived.0", "'bogus'"),
            ("topsdown", "--chip", "HICANN", "--backfill"),
            id="chips_neuromorphic.json-path13-value13-named13-argv13",
        ),
        pytest.param(
            "chips_accelerators.json", ("chips", "Diannao", "derived"), ["fire_rate"], ("Diannao.derived.0", "'fire_rate'"),
            ("topsdown", "--chip", "Diannao", "--backfill"),
            id="chips_accelerators.json-path14-value14-named14-argv14",
        ),
        pytest.param(  # DCOxme is resistive_digital; ME has no on/off resistances
            "technologies.json", ("combos", 2, "synapse_device"), "ME", ("DCOxme.synapse_device", "got 'ME'"),
            ("bench", "element", "--tech", "ANNDCOxme"),
            id="technologies.json-path15-ME-named15-argv15",
        ),
        pytest.param(  # FETFET is analog_single_device; digital_cmos is a primitive family, not a device
            "technologies.json", ("combos", 13, "synapse_device"), "digital_cmos",
            ("FETFET.synapse_device", "got 'digital_cmos'"), ("bench", "element", "--tech", "ANNFETFET"),
            id="technologies.json-path16-digital_cmos-named16-argv16",
        ),
        # cross-field constraints of the circuit models
        pytest.param(
            "devices.json", ("devices", "OxideR", "r_off"), 200, ("OxideR.r_off", "must exceed r_on"),
            ("bench", "element", "--tech", "ANNDCOxme"),
            id="devices.json-path17-200-named17-argv17",
        ),
        pytest.param(
            "constants.json", ("sense_voltage",), 0.9, ("sense_voltage: must be below supply_voltage",),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path18-0.9-named18-argv18",
        ),
        pytest.param(
            "constants.json", ("analog_row_voltage",), 0.4, ("vsa_read_voltage: must be below analog_row_voltage",),
            ("bench", "element", "--tech", "ANNAnCOxme"),
            id="constants.json-path19-0.4-named19-argv19",
        ),
        pytest.param(
            "constants.json", ("transistors", "tfet", "off_current_per_width"), 500,
            ("transistors.tfet.off_current_per_width: must be below on_current_per_width",),
            ("bench", "element", "--tech", "ANNAnTAnT"),
            id="constants.json-path20-500-named20-argv20",
        ),
        pytest.param(  # finite in mm^2, beyond the float range in nm^2
            "chips_neuromorphic.json", ("chips", "TrueNorth", "area"), 1e300, ("TrueNorth.area", "1e+300"),
            ("topsdown", "--chip", "TrueNorth"),
            id="chips_neuromorphic.json-path21-1e+300-named21-argv21",
        ),
        # required values that once had a code default
        pytest.param(
            "circuit_primitives.json", ("families", "digital_cmos", "ram"), _DELETE, ("missing field digital_cmos.ram",),
            ("bench", "element", "--tech", "ANNDCCMAC"),
            id="circuit_primitives.json-path22-<delete the key>-named22-argv22",
        ),
        pytest.param(
            "chips_neuromorphic.json", ("neuron_area_fraction",), _DELETE, ("missing field neuron_area_fraction",),
            ("topsdown", "--chip", "TrueNorth"),
            id="chips_neuromorphic.json-path23-<delete the key>-named23-argv23",
        ),
        pytest.param(  # a ring oscillator needs a device, and DCSRAM's synapse is a primitive family
            "technologies.json", ("oscillators", 2),
            {"label": "OscMOSring", "osc_class": "transistor_ring", "base_combo": "DCSRAM", "fan_in_class": "analog_cmos"},
            ("missing field OscMOSring.osc_device",), ("bench", "element", "--tech", "OscMOSring"),
            id="technologies.json-path24-value24-named24-argv24",
        ),
        pytest.param(  # its spintronic twin
            "technologies.json", ("oscillators", 1),
            {"label": "OscSOT", "osc_class": "spintronic", "base_combo": "DCSRAM", "fan_in_class": "spintronic"},
            ("missing field OscSOT.osc_device",), ("bench", "element", "--tech", "OscSOT"),
            id="technologies.json:oscillators.1",
        ),
        # feature-size multiples beyond the float range in nm
        pytest.param(
            "constants.json", ("wire_pitch_f",), 1e308, ("constants.json: wire_pitch_f", "1e+308"),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path25-1e+308-named25-argv25",
        ),
        pytest.param(
            "constants.json", ("digital_transistor_width_f",), 1e308, ("constants.json: digital_transistor_width_f",),
            ("devices", "list"),
            id="constants.json-path26-1e+308-named26-argv26",
        ),
        pytest.param(
            "constants.json", ("sense_amp_widths_f", "iso"), 1e308, ("constants.json: sense_amp_widths_f.iso",),
            ("devices", "list"),
            id="constants.json-path27-1e+308-named27-argv27",
        ),
        pytest.param(
            "constants.json", ("ota_widths_f", "input"), 1e308, ("constants.json: ota_widths_f.input",),
            ("bench", "element", "--tech", "ANNAnCOxme"),
            id="constants.json-path28-1e+308-named28-argv28",
        ),
        pytest.param(  # 20 feature sizes, the minimum interconnect length
            "constants.json", ("feature_size",), 1e307, ("constants.json: feature_size", "1e+307"),
            ("devices", "list"),
            id="constants.json-path29-1e+307-named29-argv29",
        ),
        # cross-record checks of the loader
        pytest.param(
            "constants.json", ("transistors", "cmos"), _DELETE, ("constants.json: transistors", "'cmos'"),
            ("devices", "list"),
            id="constants.json-path30-<delete the key>-named30-argv30",
        ),
        pytest.param(  # ic_res_per_length * 20 feature sizes is 667 Ohm
            "constants.json", ("min_ic_resistance",), 700.0, ("min_ic_resistance = 700.0 Ohm", "more than 2%"),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path31-700.0-named31-argv31",
        ),
        pytest.param(
            "circuit_primitives.json", ("families", "digital_tfet"), _DELETE,
            ("circuit_primitives.json: missing primitive family 'digital_tfet'",), ("devices", "list"),
            id="circuit_primitives.json-path32-<delete the key>-named32-argv32",
        ),
        pytest.param(
            "devices.json", ("devices", "OxideR", "r_off"), _DELETE, ("devices.json: OxideR: r_on and r_off",),
            ("devices", "list"),
            id="devices.json-path33-<delete the key>-named33-argv33",
        ),
        pytest.param(
            "technologies.json", ("combos", 0, "neuron_code"), "DX",
            ("technologies.json: DCSRAM: label does not decompose",), ("bench", "element", "--tech", "ANNDCSRAM"),
            id="technologies.json-path34-DX-named34-argv34",
        ),
        pytest.param(
            "workloads.json", ("workloads", "lenet", "layers", 0, "kernel"), 33,
            ("workloads.json: lenet.layers[0].kernel: exceeds image dimensions",),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            id="workloads.json-path35-33-named35-argv35",
        ),
        # preconditions of the circuit and element models, which check none of them again
        pytest.param(
            "constants.json", ("sense_amp_widths_f", "p"), 0,
            ("constants.json: sense_amp_widths_f.p: must be finite and positive, got 0",),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path36-0-named36-argv36",
        ),
        pytest.param(
            "constants.json", ("synapse_bits",), 0, ("constants.json: synapse_bits: must be an integer >= 1, got 0",),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="constants.json-path37-0-named37-argv37",
        ),
        pytest.param(
            "constants.json", ("cnn_max_weight",), 0,
            ("constants.json: cnn_max_weight: must be finite and positive, got 0",),
            ("bench", "element", "--tech", "ANNAnTAnT"),
            id="constants.json-path38-0-named38-argv38",
        ),
        pytest.param(
            "technologies.json", ("combos", 0, "family"), "bogus", ("technologies.json: DCSRAM.family: must be one of [",),
            ("bench", "element", "--tech", "ANNDCSRAM"),
            id="technologies.json:combos.0.family",
        ),
        pytest.param(
            "technologies.json", ("oscillators", 0, "osc_class"), "bogus",
            ("technologies.json: OscSTT.osc_class: must be one of [",), ("bench", "element", "--tech", "OscSTT"),
            id="technologies.json:oscillators.0.osc_class",
        ),
        pytest.param(
            "technologies.json", ("combos", 0, "networks"), ["ANN", "XNN"],
            ("technologies.json: DCSRAM.networks.1: must be one of [",), ("bench", "element", "--tech", "CNNDCSRAM"),
            id="technologies.json:combos.0.networks",
        ),
        # a count above 2**53 is not exactly a float, and a larger one overflows its conversion
        pytest.param(
            "chips_neuromorphic.json", ("chips", "Loihi", "neurons_per_core"), 1e306,
            ("chips_neuromorphic.json: Loihi.neurons_per_core: must be an integer <= 2**53, got 1e+306",),
            ("topsdown", "--chip", "Loihi"),
            id="chips_neuromorphic.json:chips.Loihi.neurons_per_core",
        ),
        pytest.param(  # the shipped image_w times 1e300
            "workloads.json", ("workloads", "lenet", "layers", 0, "image_w"), 32 * 1e300,
            ("workloads.json: lenet.layers[0].image_w: must be an integer <= 2**53, got 3.2e+301",),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            id="workloads.json:workloads.lenet.layers.0.image_w",
        ),
        # the workload model checks no layer again: an unknown kind and a zero count stop here
        pytest.param(
            "workloads.json", ("workloads", "lenet", "layers", 0, "kind"), "pooling",
            ("workloads.json: lenet.layers[0].kind: must be one of ['convolution', 'fully_connected'], got 'pooling'",),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            id="workloads.json:workloads.lenet.layers.0.kind",
        ),
        pytest.param(
            "workloads.json", ("workloads", "mnist_mlp", "layers", 0, "outputs"), 0,
            ("workloads.json: mnist_mlp.layers[0].outputs: must be an integer >= 1, got 0",),
            ("topsdown", "--chip", "Loihi", "--workload", "mnist_mlp"),
            id="workloads.json:workloads.mnist_mlp.layers.0.outputs",
        ),
        pytest.param(
            "devices.json", ("devices",), {"ME": {}},
            ("devices.json: devices: must be a list, got {'ME': {}}",),
            ("devices", "list"),
            id="devices.json:devices",
        ),
    ],
)
def test_bad_value_is_one_named_data_error(data_copy, capsys, file, path, value, named, argv):
    rewrite_json(data_copy / file, lambda doc: _edit(doc, path, value))
    with pytest.raises(DatasetError) as exc:
        load_datasets(data_copy)
    for part in (f"{file}: ", *named):
        assert part in str(exc.value)

    assert cli.main(["--data-dir", str(data_copy), *argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(exc.value) in err


_SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(default_data_dir().glob("*.json"))}
_LEAVES = [(file, path) for file, doc in _SHIPPED.items() for path, _ in json_leaves(doc)]


def _rejection(registry, file, path, value):
    try:
        derive(registry, {file: {path: value}})
    except ValidationError as e:
        return str(e)
    return None


def test_every_count_times_1e300_is_rejected_by_name(registry):
    # a count is an integral leaf where the loader rejects -1 as "not an integer >= 1" (a leaf
    # it does not read loads); the rejection of the scaled count names the same field
    fields = set()
    for file, path in _LEAVES:
        value = _SHIPPED[file]
        for step in path:
            value = value[step]
        negative = _rejection(registry, file, path, -1) if type(value) is int else None
        if negative is None or not negative.endswith(": must be an integer >= 1, got -1"):
            continue
        field = negative.removesuffix(": must be an integer >= 1, got -1")
        scaled = value * 1e300
        assert _rejection(registry, file, path, scaled) == f"{field}: must be an integer <= 2**53, got {scaled!r}"
        fields.add(path[-1])
    assert fields == {
        "synapse_bits", "synapse_levels", "cores", "neurons_per_core", "synapses_per_neuron", "digital_cmos",
        "analog_cmos", "spintronic", "sequential", "inputs", "outputs", "image_w", "image_h", "in_channels", "kernel",
        "feature_maps", "stride",
    }


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    leaf=st.sampled_from(_LEAVES),
    value=st.sampled_from([_DELETE, None, "x", True, -1, 0, 2.5, math.inf, math.nan]),
)
def test_one_field_mutation_is_rejected_or_gives_sound_figures(leaf, value):
    """A dataset with one leaf deleted or replaced either fails to load with
    DatasetError, or every emitted figure is finite and non-negative (a
    figure the model cannot form, a FigureError, also counts as sound)."""
    file, path = leaf
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _SHIPPED.items():
            doc = json.loads(json.dumps(doc))
            if name == file:
                _edit(doc, path, value)
            (Path(tmp) / name).write_text(json.dumps(doc))
        try:
            reg = load_datasets(tmp)
        except DatasetError:
            return
    scopes = [("elements", None), ("chips", None), *(("workload", name) for name in reg.workloads)]
    for scope, workload in scopes:
        try:
            rows = report.emit_matrix(reg, scope, workload=workload, precision=17, fmt="json")
        except FigureError:
            continue
        for row in json.loads(rows):
            for column, cell in row.items():
                if column in ("technology", "chip", "kind", "schedule") or cell == "":
                    continue
                assert math.isfinite(float(cell)) and float(cell) >= 0, (scope, row)


_CHIP_FILES = ("chips_neuromorphic.json", "chips_accelerators.json")


def _rows(doc):
    if "families" in doc:
        return [cell for cells in doc["families"].values() for cell in cells.values()]
    return doc["chips"] if "chips" in doc else doc["devices"]


@pytest.mark.parametrize(
    "files, unit, old, new, keys, factor",
    [
        (_CHIP_FILES, "area", "mm^2", "um^2", ("area",), 1e6),
        (_CHIP_FILES, "energy", "pJ", "fJ", ("energy_per_event",), 1e3),
        (("devices.json",), "resistance", "kOhm", "Ohm", ("r_on", "r_off"), 1e3),
        (("devices.json",), "energy", "aJ", "fJ", ("energy",), 1e-3),
        (("circuit_primitives.json",), "area", "nm^2", "um^2", ("area",), 1e-6),
    ],
)
def test_rewriting_units_leaves_every_result_unchanged(registry, data_copy, files, unit, old, new, keys, factor):
    """Values rewritten into other units, header and all, are converted exactly once."""

    def rewrite(doc):
        assert doc["units"][unit] == old
        doc["units"][unit] = new
        for row in _rows(doc):
            for key in keys:
                if key in row:
                    row[key] *= factor

    for file in files:
        rewrite_json(data_copy / file, rewrite)
    other = load_datasets(data_copy)

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12)

    for tech in registry.technologies.values():
        want = report.bench_technology(tech, registry).columns()
        assert all(map(close, report.bench_technology(tech, other).columns(), want)), tech.label
        for name in registry.workloads:
            a, b = report.bench_workload(name, tech, other), report.bench_workload(name, tech, registry)
            assert (a.schedule, close(a.area, b.area), close(a.delay, b.delay), close(a.energy, b.energy)) == (
                b.schedule, True, True, True,
            ), (name, tech.label)
    figures = ("synapse_area", "neuron_area", "synapse_delay", "synapse_energy", "neuron_energy")
    for chip_name, chip in registry.chips.items():
        try:
            want = topsdown_element(chip, registry)
        except IncomputableError:
            with pytest.raises(IncomputableError):
                topsdown_element(other.chip(chip_name), other)
            continue
        got = topsdown_element(other.chip(chip_name), other)
        assert all(close(getattr(got, f), getattr(want, f)) for f in figures), chip_name


# -- loads of the same bytes share validated, read-only records ----------------

_MAPPINGS = ("primitives", "devices", "technologies", "chips", "workloads")


def test_loads_of_the_same_bytes_share_records_and_the_memo(data_copy):
    # each load is made here, back to back, so no earlier test's loads can have evicted these bytes
    first, second, shipped = load_datasets(data_copy), load_datasets(data_copy), load_datasets()
    assert first is not second
    for reg in (first, second, shipped):  # a byte-identical copy at another path shares them too
        assert reg.constants is first.constants and reg._memo is first._memo
        for mapping in _MAPPINGS:
            assert getattr(reg, mapping) == getattr(first, mapping)
            assert all(record is getattr(first, mapping)[name] for name, record in getattr(reg, mapping).items())
    for mapping in (*_MAPPINGS, "fan_in", "topsdown_params"):
        assert getattr(first, mapping) is not getattr(second, mapping)

    tech = first.technology("ANNDCSRAM")
    assert report.bench_technology(tech, second) is report.bench_technology(tech, first)


_BUILDERS = (_constants, _primitives, _devices, _technologies, *_CHIP_BUILDERS.values(), _workloads)


def test_a_warm_load_calls_no_builder(data_copy):
    load_datasets(data_copy)  # the bytes are seen, whatever earlier tests loaded
    builders, dataset = [b.cache_info() for b in _BUILDERS], _dataset.cache_info()
    load_datasets(data_copy)
    assert [b.cache_info() for b in _BUILDERS] == builders
    assert _dataset.cache_info() == dataset._replace(hits=dataset.hits + 1)


def test_a_warm_load_is_a_new_registry_of_fresh_views_over_the_same_records(data_copy):
    first = load_datasets(data_copy)
    second = load_datasets(data_copy)
    assert second is not first and second._memo is first._memo and second.constants is first.constants
    for mapping in ("files", *_MAPPINGS, "fan_in", "topsdown_params"):
        old, new = getattr(first, mapping), getattr(second, mapping)
        assert new is not old and new == old and list(new) == list(old), mapping
        if mapping != "files":  # the bytes are this load's own reads
            assert all(new[name] is record for name, record in old.items()), mapping


def test_other_bytes_of_the_same_values_give_equal_records(data_copy):
    registry = load_datasets(data_copy)
    rewrite_json(data_copy / "constants.json", lambda doc: None)  # re-serialized
    other = load_datasets(data_copy)
    assert other.constants is not registry.constants and other.constants == registry.constants
    assert other.devices["ME"] is registry.devices["ME"]  # devices.json is byte-identical


def test_shared_records_are_read_only(registry):
    # the registry mappings, fan_in among them, are pinned read-only in test_memo.py
    with pytest.raises(TypeError):
        registry.constants.transistors["cmos"] = None
    doubled = registry.constants._replace(supply_voltage=2 * registry.constants.supply_voltage)
    assert doubled.transistors is registry.constants.transistors and doubled != registry.constants


def _rewrite_in_place(file: Path, old: bytes, new: bytes) -> None:
    """Replace `old` by `new` of the same length, keeping the file's mtime."""
    stat, data = file.stat(), file.read_bytes()
    assert data.count(old) == 1 and len(new) == len(old)
    file.write_bytes(data.replace(old, new))
    os.utime(file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (file.stat().st_size, file.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)


def test_a_file_rewritten_in_place_is_read_again(data_copy):
    file = data_copy / "constants.json"
    assert load_datasets(data_copy).constants.supply_voltage == 0.8
    _rewrite_in_place(file, b'"supply_voltage": 0.8,', b'"supply_voltage": 0.7,')
    assert load_datasets(data_copy).constants.supply_voltage == 0.7
    _rewrite_in_place(file, b'"supply_voltage": 0.7,', b'"supply_voltage": 0.0,')
    for _ in range(2):  # a rejection is never cached
        with pytest.raises(ValidationError) as exc:
            load_datasets(data_copy)
        assert str(exc.value) == "constants.json: supply_voltage: must be finite and positive, got 0.0"


# -- derive: a registry from another's bytes, through the same checks ----------


def test_derive_rejects_what_the_loader_rejects(registry):
    with pytest.raises(ValidationError) as exc:
        derive(registry, {"constants.json": {("supply_voltage",): 0.0}})
    assert str(exc.value) == "constants.json: supply_voltage: must be finite and positive, got 0.0"


@pytest.mark.parametrize(
    "edits, message",
    [
        ({"constant.json": {("supply_voltage",): 0.9}}, "unknown dataset file 'constant.json'"),
        ({"constants.json": {("overhead", "core"): 3.0}}, "constants.json: no value at path ('overhead', 'core')"),
        ({"devices.json": {("devices", 99, "area"): 1.0}}, "devices.json: no value at path ('devices', 99, 'area')"),
        (
            {"devices.json": {("devices", "Vapourware", "area"): 1.0}},
            "devices.json: no value at path ('devices', 'Vapourware', 'area')",
        ),
        (  # a combo row has a code, not a name
            {"technologies.json": {("combos", "DCSRAM", "family"): "digital_mac"}},
            "technologies.json: no value at path ('combos', 'DCSRAM', 'family')",
        ),
    ],
)
def test_derive_names_an_unknown_file_or_path(registry, edits, message):
    with pytest.raises(UnknownNameError) as exc:
        derive(registry, edits)
    assert str(exc.value) == message


def test_derive_edits_only_the_named_files(tmp_path):
    registry = load_new(tmp_path)  # its files' builder entries are the latest, whatever ran before
    me = next(row for row in json.loads(registry.files["devices.json"])["devices"] if row["name"] == "ME")
    derived = derive(registry, {"devices.json": {("devices", "ME", "energy"): 2 * me["energy"]}})
    assert derived.device("ME").energy_int == 2 * registry.device("ME").energy_int
    assert derived.device("SOT") == registry.device("SOT")
    assert derived.constants is registry.constants and derived.chips["Loihi"] is registry.chips["Loihi"]
    assert json.loads(registry.files["devices.json"]) != json.loads(derived.files["devices.json"])
    assert {name for name in registry.files if registry.files[name] is not derived.files[name]} == {"devices.json"}


def _nested_lists(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "value", [10**5000, _nested_lists(100_000)], ids=["an integer too long to write", "lists nested too deep"]
)
def test_derive_names_the_file_of_a_value_json_cannot_write(registry, value):
    # the encoder's wording differs across Python versions
    with pytest.raises(DatasetError) as exc:
        derive(registry, {"constants.json": {("nominal_chip", "cores"): value}})
    assert type(exc.value) is DatasetError
    assert str(exc.value).startswith("constants.json: cannot be written as JSON: ")


def test_derive_leaves_a_value_of_no_json_type_a_type_error(registry):
    with pytest.raises(TypeError, match="set is not JSON serializable"):  # a type JSON has no form for
        derive(registry, {"constants.json": {("nominal_chip", "cores"): {1, 2}}})


def test_derive_picks_a_list_row_by_its_name(registry):
    doc = json.loads(registry.files["chips_neuromorphic.json"])
    row = next(i for i, row in enumerate(doc["chips"]) if row["name"] == "Loihi")
    by_name, by_index = (
        derive(registry, {"chips_neuromorphic.json": {("chips", step, "activity"): 0.5}}) for step in ("Loihi", row)
    )
    assert by_name.files == by_index.files
    assert by_name.chip("Loihi").activity == 0.5 and by_name.chip("Loihi") != registry.chip("Loihi")


def test_derived_feature_size_moves_every_feature_size_multiple(registry):
    # the loader ties min_ic_resistance to the minimum interconnect length within 2%
    doc = json.loads(registry.files["constants.json"])
    edits = {("feature_size",): 2 * doc["feature_size"], ("min_ic_resistance",): 2 * doc["min_ic_resistance"]}
    before, after = registry.constants, derive(registry, {"constants.json": edits}).constants
    for field in ("feature_size", "min_ic_length", "digital_transistor_width", "wire_pitch"):
        assert getattr(after, field) == 2 * getattr(before, field), field
    for field in ("sense_amp_widths", "ota_widths"):
        assert getattr(after, field) == tuple(2 * w for w in getattr(before, field)), field


def test_a_change_to_devices_alone_reaches_technologies(data_copy):
    registry = load_datasets(data_copy)  # every builder has seen the shipped bytes
    tech = next(t for t in registry.technologies.values() if t.family in RESISTIVE_FAMILIES)

    def drop(doc):
        row = next(row for row in doc["devices"] if row["name"] == tech.synapse_device)
        del row["r_on"], row["r_off"]

    rewrite_json(data_copy / "devices.json", drop)
    with pytest.raises(ValidationError) as exc:
        load_datasets(data_copy)
    assert str(exc.value).startswith(f"technologies.json: {tech.combo}.synapse_device: ")
    assert repr(tech.synapse_device) in str(exc.value)


def _shares_technologies(registry, data_copy, file, path, value):
    """A load and a derive of `file` with `value` at `path`: each shares every
    technology record of `registry`, and their rows are equal to each other
    and differ from those of `registry`."""
    rewrite_json(data_copy / file, lambda doc: _edit(doc, path, value))
    other, derived = load_datasets(data_copy), derive(registry, {file: {path: value}})
    for reg in (other, derived):
        assert all(reg.technologies[label] is tech for label, tech in registry.technologies.items())
    rows = [report.bench_technology(t, other) for t in other.enumerate_technologies()]
    assert rows == [report.bench_technology(t, derived) for t in derived.enumerate_technologies()]
    assert rows != [report.bench_technology(t, registry) for t in registry.enumerate_technologies()]
    return other, derived


def test_a_change_to_constants_alone_shares_technologies(data_copy):
    # technologies read only the transistor family names of the constants
    registry = load_new(data_copy)
    other, derived = _shares_technologies(registry, data_copy, "constants.json", ("supply_voltage",), 0.9)
    assert other.constants.supply_voltage == 0.9
    assert derived.constants == other.constants


_VALUE_CHANGES = [
    pytest.param("devices.json", ("devices", "ME", "energy"), 90.0, id="devices.json:devices.ME.energy"),
    pytest.param("devices.json", ("devices", "OxideR", "r_on"), 150, id="devices.json:devices.OxideR.r_on"),
    pytest.param(
        "circuit_primitives.json", ("families", "digital_cmos", "add", "energy"), 1500.0,
        id="circuit_primitives.json:families.digital_cmos.add.energy",
    ),
]


@pytest.mark.parametrize("file, path, value", _VALUE_CHANGES)
def test_a_value_change_to_devices_or_primitives_shares_technologies(data_copy, file, path, value):
    # technologies read only the names of the devices and primitive families, and which devices have r_on
    registry = load_new(data_copy)
    other, derived = _shares_technologies(registry, data_copy, file, path, value)
    assert (other.devices, other.primitives) == (derived.devices, derived.primitives)


def test_the_sharing_checks_hold_after_33_newer_constants(registry, tmp_path):
    # a warm load refreshes no builder entry, so 33 newer constants.json contents, each
    # followed by a warm load of the shipped files, evict the shipped constants' entry
    for i in range(1, 34):
        derive(registry, {"constants.json": {("supply_voltage",): 0.8 + i / 1000}})
        load_datasets()
    (tmp_path / "derive").mkdir()
    test_derive_edits_only_the_named_files(tmp_path / "derive")
    test_a_change_to_constants_alone_shares_technologies(shutil.copytree(default_data_dir(), tmp_path / "constants"))
    for i, change in enumerate(_VALUE_CHANGES):
        copy = shutil.copytree(default_data_dir(), tmp_path / f"values{i}")
        test_a_value_change_to_devices_or_primitives_shares_technologies(copy, *change.values)


def test_a_constants_file_without_a_used_transistor_family_fails_on_technologies(registry, data_copy):
    load_datasets(data_copy)  # every builder has seen the shipped bytes
    tech = next(t for t in registry.technologies.values() if t.transistor_family != "cmos")
    rewrite_json(data_copy / "constants.json", lambda doc: doc["transistors"].pop(tech.transistor_family))
    with pytest.raises(ValidationError) as exc:
        load_datasets(data_copy)
    assert str(exc.value).startswith(f"technologies.json: {tech.combo}.transistor_family: ")


# -- reading the files: one os.read loop on a raw descriptor per file -------------

# the data directory `d` as the caller may write it
_DIR_FORMS = {"d": str, "d/": lambda d: d + "/", "./d": lambda d: "./" + d, "Path(d)": Path}


def _load_error(capsys, data_dir):
    """The exception `load_datasets(data_dir)` raises, and the exit code and
    stderr of `cli.main` on the same directory."""
    with pytest.raises((DatasetError, OSError)) as exc:
        load_datasets(data_dir)
    code = cli.main(["--data-dir", str(data_dir), "devices", "list"])
    return exc.value, code, capsys.readouterr().err


@pytest.mark.parametrize("form", _DIR_FORMS.values(), ids=_DIR_FORMS)
def test_a_missing_file_is_named_with_the_directory_as_pathlib_writes_it(capsys, data_copy, monkeypatch, form):
    monkeypatch.chdir(data_copy.parent)
    (data_copy / "devices.json").unlink()
    error, code, stderr = _load_error(capsys, form(data_copy.name))
    message = f"devices.json: file not found in {data_copy.name}"
    assert (type(error), str(error), code, stderr) == (DatasetError, message, 1, f"error: {message}\n")


def _file_is_a_directory(d: Path) -> str:
    (d / "constants.json").unlink()
    (d / "constants.json").mkdir()
    return f"[Errno 21] Is a directory: '{d.name}/constants.json'"


def _directory_is_a_file(d: Path) -> str:
    shutil.rmtree(d)
    d.write_bytes(b"{}")
    return f"[Errno 20] Not a directory: '{d.name}/constants.json'"


@pytest.mark.skipif(sys.platform == "win32", reason="Windows gives other errors with other numbers")
@pytest.mark.parametrize(
    "fault, kind", [(_file_is_a_directory, IsADirectoryError), (_directory_is_a_file, NotADirectoryError)]
)
@pytest.mark.parametrize("form", _DIR_FORMS.values(), ids=_DIR_FORMS)
def test_an_os_error_names_the_file_as_open_names_it(capsys, data_copy, monkeypatch, fault, kind, form):
    monkeypatch.chdir(data_copy.parent)
    message = fault(data_copy)
    error, code, stderr = _load_error(capsys, form(data_copy.name))
    assert (type(error), str(error), code, stderr) == (kind, message, 1, f"error: {message}\n")


@pytest.mark.skipif(sys.platform == "win32", reason="Windows gives other errors with other numbers")
def test_a_fault_before_a_file_that_cannot_be_read_is_reported_first(capsys, data_copy, monkeypatch):
    monkeypatch.chdir(data_copy.parent)
    (data_copy / "workloads.json").unlink()
    (data_copy / "workloads.json").mkdir()
    message = f"[Errno 21] Is a directory: '{data_copy.name}/workloads.json'"
    error, code, stderr = _load_error(capsys, data_copy.name)
    assert (type(error), str(error), code, stderr) == (IsADirectoryError, message, 1, f"error: {message}\n")
    rewrite_json(data_copy / "constants.json", lambda doc: doc.update(supply_voltage=0.0))
    message = "constants.json: supply_voltage: must be finite and positive, got 0.0"
    error, code, stderr = _load_error(capsys, data_copy.name)
    assert (type(error), str(error), code, stderr) == (ValidationError, message, 1, f"error: {message}\n")


@pytest.mark.parametrize("reads", [1, 2.5], ids=["one read", "more than two reads"])
def test_a_file_of_one_or_more_reads_loads_whole(registry, data_copy, reads):
    file = data_copy / "technologies.json"
    data = file.read_bytes().rstrip()
    size = int(reads * _READ_SIZE)
    file.write_bytes(data + b" " * (size - len(data) - 1) + b"\n")
    assert len(file.read_bytes()) == size
    padded = load_datasets(data_copy)
    assert padded.files == {**registry.files, file.name: file.read_bytes()}
    for field in ("constants", *_MAPPINGS, "fan_in", "topsdown_params"):
        assert getattr(padded, field) == getattr(registry, field), field


def test_an_empty_file_is_a_parse_failure(data_copy):
    (data_copy / "technologies.json").write_bytes(b"")
    with pytest.raises(DatasetError) as exc:
        load_datasets(data_copy)
    assert str(exc.value) == "technologies.json: parse failure: Expecting value: line 1 column 1 (char 0)"


# the faults a load can meet, each breaking the copy `d`; workloads.json is the last file read
_FAULTS = {
    "none": lambda d: None,
    "missing file": lambda d: (d / "workloads.json").unlink(),
    "directory": _file_is_a_directory,
    "parse failure": lambda d: (d / "workloads.json").write_bytes(b"{not json"),
}


@pytest.mark.skipif(sys.platform != "linux", reason="counts the descriptors in /proc/self/fd")
@pytest.mark.parametrize("fault", _FAULTS)
def test_a_load_leaves_no_descriptor_open(data_copy, fault):
    # raw descriptors raise no ResourceWarning, so `-W error::ResourceWarning` cannot see a leak here
    _FAULTS[fault](data_copy)
    before = sorted(os.listdir("/proc/self/fd"))
    for _ in range(3):
        if fault == "none":
            load_datasets(data_copy)
        else:
            with pytest.raises((DatasetError, OSError)):
                load_datasets(data_copy)
    assert sorted(os.listdir("/proc/self/fd")) == before
