"""Memoized results belong to the content of the Registry that produced them:
byte-identical files give one registry, the registry of that content, and so one memo."""

import json
import sys
from collections import Counter

import pytest

from neurobench import derive, elements, load_datasets, report, topsdown, workload
from neurobench.chip import nominal_config
from neurobench.interconnect import ElementBench
from neurobench.registry import ChipRecord, LayerSpec, Technology, UnknownNameError, WorkloadSpec, own_name

from conftest import load_new, rewrite_json


def uncached_row(tech, registry):
    """The nominal row, built afresh: an explicit config bypasses the memo."""
    cfg = nominal_config(registry.constants, spiking=tech.network_kind == "SNN")
    return report.bench_technology(tech, registry, cfg)


def test_second_call_returns_the_identical_row():
    registry = load_datasets()
    tech = registry.technology("ANNDCSRAM")
    row = report.bench_technology(tech, registry)
    assert report.bench_technology(tech, registry) is row
    assert row == uncached_row(tech, registry)
    assert uncached_row(tech, registry) is not row


def test_second_workload_call_returns_the_identical_result():
    registry = load_datasets()
    tech = registry.technology("SpiMEME")
    bench = report.bench_workload("mnist_mlp", tech, registry)
    assert report.bench_workload("mnist_mlp", tech, registry) is bench
    tmux = report.bench_workload("mnist_mlp", tech, registry, schedule="time_multiplexed")
    assert tmux.schedule == "time_multiplexed" and bench.schedule == "parallel"


def test_replaced_registry_starts_with_an_empty_memo():
    registry = load_datasets()
    tech = registry.technology("ANNDCSRAM")
    row = report.bench_technology(tech, registry)
    scaled = derive(registry, {"constants.json": {("supply_voltage",): 1.05 * registry.constants.supply_voltage}})
    assert scaled._memo == {}
    scaled_row = report.bench_technology(tech, scaled)
    assert scaled_row != row
    assert scaled_row == uncached_row(tech, scaled)
    assert report.bench_technology(tech, registry) is row


def test_derived_registry_shares_every_record_and_the_memo():
    registry = load_datasets()
    row = report.bench_technology(registry.technology("ANNDCSRAM"), registry)
    derived = derive(registry, {})
    assert derived is registry  # the registry of that content
    assert report.bench_technology(registry.technology("ANNDCSRAM"), derived) is row


def test_a_registry_cannot_be_changed(registry):
    for name in ("constants", "_memo", "files", "new"):
        with pytest.raises(AttributeError):
            setattr(registry, name, None)
        with pytest.raises(AttributeError):
            delattr(registry, name)
    assert not hasattr(registry, "_replace") and not isinstance(registry, tuple)


def test_perturbed_dataset_does_not_read_the_default_rows(registry, data_copy):
    def scale_register_energy(doc):
        doc["families"]["digital_cmos"]["reg"]["energy"] *= 1.2

    default_rows = report.element_matrix(registry)
    rewrite_json(data_copy / "circuit_primitives.json", scale_register_energy)
    perturbed = load_datasets(data_copy)
    rows = report.element_matrix(perturbed)
    assert next(iter(perturbed.technologies)) == "ANNDCSRAM" and rows[0] != default_rows[0]
    for tech, row in zip(perturbed.enumerate_technologies(), rows):
        assert row == uncached_row(tech, perturbed)
    tech = perturbed.technology("ANNDCSRAM")
    assert report.bench_workload("lenet", tech, perturbed) != report.bench_workload("lenet", tech, registry)


def _touch_every_row(registry):
    report.element_matrix(registry)
    for name in registry.workloads:
        for tech in registry.enumerate_technologies():
            report.bench_workload(name, tech, registry)
        report.emit_matrix(registry, "workload", workload=name)


def test_each_row_is_built_once_per_registry(monkeypatch, tmp_path):
    registry = load_new(tmp_path)
    built = Counter()
    original = report._build_row

    def counting(tech, reg, cfg=None):
        built[tech.label] += 1
        return original(tech, reg, cfg)

    monkeypatch.setattr(report, "_build_row", counting)
    _touch_every_row(registry)
    _touch_every_row(load_datasets(tmp_path))  # the same bytes: the same memo
    assert set(built) == set(registry.technologies)
    assert set(built.values()) == {1}


def test_each_raw_element_is_built_once_per_builder_input(monkeypatch, tmp_path):
    registry = load_new(tmp_path)
    built = Counter()
    original = report.build_raw_element

    def counting(tech, reg):
        built[tech.family, tech.primitive_family, tech.transistor_family, tech.synapse_device] += 1
        return original(tech, reg)

    monkeypatch.setattr(report, "build_raw_element", counting)
    _touch_every_row(registry)
    for tech in registry.enumerate_technologies():  # explicit configs share the raw elements too
        uncached_row(tech, registry)
    _touch_every_row(derive(registry, {}))  # the same bytes: the same memo
    assert len(built) == 18 < len(registry.technologies)
    assert set(built.values()) == {1}


def _scaled_constants(registry):
    edits = {("supply_voltage",): 1.05 * registry.constants.supply_voltage, ("synapse_levels",): 4}
    return derive(registry, {"constants.json": edits})


@pytest.mark.parametrize("build", [lambda r: r, _scaled_constants], ids=["default", "scaled"])
def test_shared_raw_elements_give_the_unshared_rows(build, tmp_path):
    registry = build(load_datasets())
    alone = load_new(tmp_path, registry.files)  # the same values, a memo of its own
    for tech in registry.enumerate_technologies():
        alone._memo.clear()  # nothing is shared: each row is built from an empty memo
        unshared = report._build_row(alone.technology(tech.label), alone)
        assert report.bench_technology(tech, registry) == unshared, tech.label


def _row(registry, file, name):
    """The row of the chip or workload `name` in `file`, as the registry's bytes hold it."""
    rows = next(v for k, v in json.loads(registry.files[file]).items() if k in ("chips", "workloads"))
    return next(row for row in rows if row["name"] == name)


def test_second_topsdown_call_returns_the_identical_result():
    registry = load_datasets()
    chip, spec = registry.chip("Loihi"), registry.workload("speech_mlp")
    element = topsdown.topsdown_element(chip, registry)
    assert topsdown.topsdown_element(chip, registry) is element
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench
    layers = _row(registry, "workloads.json", "speech_mlp")["layers"]
    first = derive(registry, {"workloads.json": {("workloads", "speech_mlp", "layers"): layers[:1]}})
    assert topsdown.run_workload_on_chip(first.chip("Loihi"), first.workload("speech_mlp"), first).energy < bench.energy


def test_replaced_registry_recomputes_topsdown_results():
    registry = load_datasets()
    chip, spec = registry.chip("Loihi"), registry.workload("speech_mlp")
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    scaled = derive(registry, {"constants.json": {("overheads", "core"): 2 * registry.constants.core_overhead}})
    assert scaled._memo == {}
    assert topsdown.run_workload_on_chip(chip, spec, scaled).area != bench.area
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench


def test_replaced_chip_gets_its_own_topsdown_element():
    registry = load_datasets()
    chip = registry.chip("TrueNorth")
    element = topsdown.topsdown_element(chip, registry)
    area = _row(registry, "chips_neuromorphic.json", "TrueNorth")["area"]
    larger = derive(registry, {"chips_neuromorphic.json": {("chips", "TrueNorth", "area"): 2 * area}})
    doubled = topsdown.topsdown_element(larger.chip("TrueNorth"), larger)
    assert doubled.synapse_area == pytest.approx(2 * element.synapse_area)
    assert doubled.neuron_area == pytest.approx(2 * element.neuron_area)
    assert topsdown.topsdown_element(chip, registry) is element


def test_each_topsdown_result_is_computed_once_per_registry(monkeypatch, tmp_path):
    registry = load_new(tmp_path)
    elements, benches = Counter(), Counter()
    element, chip_workload = topsdown._element, topsdown._chip_workload

    def counting_element(chip, reg):
        elements[chip.name] += 1
        return element(chip, reg)

    def counting_chip_workload(chip, spec, reg):
        benches[chip.name, spec.name] += 1
        return chip_workload(chip, spec, reg)

    monkeypatch.setattr(topsdown, "_element", counting_element)
    monkeypatch.setattr(topsdown, "_chip_workload", counting_chip_workload)
    report.emit_matrix(registry, "chips")
    computable = []
    for chip in registry.chips.values():
        try:
            topsdown.topsdown_element(chip, registry)
        except topsdown.IncomputableError:
            continue
        computable.append(chip.name)
        for spec in registry.workloads.values():
            topsdown.run_workload_on_chip(chip, spec, registry)
    report.speech_comparison(registry)
    report.emit_matrix(load_datasets(tmp_path), "chips")  # the same bytes: the same memo
    assert 0 < len(computable) < len(registry.chips)
    assert [elements[name] for name in computable] == [1] * len(computable)
    assert set(benches) == {(name, w) for name in computable for w in registry.workloads}
    assert set(benches.values()) == {1}


def test_incomputable_chip_raises_on_every_call():
    registry = load_datasets()
    chip = registry.chip("Parker")
    for _ in range(2):
        with pytest.raises(topsdown.IncomputableError, match="area required"):
            topsdown.topsdown_element(chip, registry)
        with pytest.raises(topsdown.IncomputableError, match="area required"):
            topsdown.run_workload_on_chip(chip, registry.workload("lenet"), registry)


@pytest.mark.parametrize("mapping", ["primitives", "devices", "technologies", "chips", "workloads", "topsdown_params"])
def test_registry_mappings_are_read_only(registry, mapping):
    with pytest.raises(TypeError):
        getattr(registry, mapping)["new"] = None


def test_fan_in_limits_are_read_only(registry):
    with pytest.raises(TypeError):
        registry.fan_in["digital_cmos"] = 2


# -- memo keys: a registry's own records, by name ------------------------------


def _surface_pass(registry):
    """Every memoized query that a pass over the golden surface makes."""
    _touch_every_row(registry)
    report.emit_matrix(registry, "elements")
    report.emit_matrix(registry, "chips")
    for what in ("synapse", "neuron"):
        report.pareto_front(report.scatter_dataset(registry, what))
    report.speech_comparison(registry)
    for kind in ("ANN", "ONN", "CNN", "SNN"):
        report.geometric_mean_neuron_delay(registry, kind)
    for chip in registry.chips.values():
        try:
            topsdown.topsdown_element(chip, registry)
        except topsdown.IncomputableError:
            continue
        for spec in registry.workloads.values():
            topsdown.run_workload_on_chip(chip, spec, registry)


@pytest.mark.parametrize("record", [Technology, ChipRecord, WorkloadSpec, LayerSpec], ids=lambda c: c.__name__)
def test_warm_pass_hashes_no_record_of_the_registry(monkeypatch, record):
    registry = load_datasets()
    _surface_pass(registry)
    hashed = Counter()
    original = record.__hash__

    def counting(self):
        hashed[record] += 1
        return original(self)

    monkeypatch.setattr(record, "__hash__", counting)
    _surface_pass(registry)
    assert hashed[record] == 0


def test_no_memo_key_holds_a_record(tmp_path):
    registry = load_new(tmp_path)
    _surface_pass(registry)
    filled = topsdown.backfill_derived(registry.chip("Diannao")).chip
    topsdown.run_workload_on_chip(filled, registry.workload("lenet"), registry)

    def records(key):
        if isinstance(key, (Technology, ChipRecord, WorkloadSpec, LayerSpec)):
            yield key
        elif isinstance(key, tuple):
            for item in key:
                yield from records(item)

    tags = {"row", "raw element", "row terms", "workload", "chip element", "chip workload"}
    assert {key[0] for key in registry._memo} == tags
    assert [key for key in registry._memo if any(records(key))] == []
    plans = workload.workload_plan.cache_info()
    _surface_pass(registry)
    assert workload.workload_plan.cache_info() == plans  # a warm pass makes no plan lookup


def test_only_the_registrys_own_technology_reaches_the_model():
    registry = load_datasets()
    tech = registry.technology("ANNDCSRAM")
    row = report.bench_technology(tech, registry)
    supply = registry.constants.supply_voltage
    boosted = tech._replace(ic_voltage=1.5 * supply)
    memo = dict(registry._memo)
    for bench in (
        lambda: report.bench_technology(boosted, registry),
        lambda: report.bench_technology(boosted, registry, nominal_config(registry.constants)),
        lambda: report.bench_workload("lenet", boosted, registry),
        lambda: report.bench_workload("lenet", boosted, registry, schedule="parallel"),
    ):
        with pytest.raises(UnknownNameError, match="ANNDCSRAM.*derive"):
            bench()
        assert registry._memo == memo
    same = Technology(*tech)
    assert same is not tech
    assert report.bench_technology(same, registry) is row
    assert report.bench_workload("lenet", same, registry) is report.bench_workload("lenet", tech, registry)
    derived = derive(registry, {"technologies.json": {("combos", 0, "ic_voltage"): 1.5 * supply}})
    assert report.bench_technology(derived.technology("ANNDCSRAM"), derived) != row
    # so do a chip and a workload spec: a changed one raises before any memo lookup
    chip, spec, spiking = registry.chip("Loihi"), registry.workload("lenet"), registry.technology("SpiMEME")
    element, own = topsdown.topsdown_element(chip, registry), topsdown.run_workload_on_chip(chip, spec, registry)
    row = report.bench_technology(spiking, registry)
    larger, shorter = chip._replace(area=2 * chip.area), spec._replace(layers=spec.layers[:1])
    memo = dict(registry._memo)
    for name, bench in (
        ("Loihi", lambda: topsdown.topsdown_element(larger, registry)),
        ("Loihi", lambda: topsdown.run_workload_on_chip(larger, spec, registry)),
        ("lenet", lambda: topsdown.run_workload_on_chip(chip, shorter, registry)),
        ("lenet", lambda: workload.run_workload(shorter, row, registry)),
    ):
        with pytest.raises(UnknownNameError, match=f"{name}.*derive"):
            bench()
        assert registry._memo == memo
    same_chip, same_spec = ChipRecord(*chip), WorkloadSpec(*spec)
    assert same_chip is not chip and same_spec is not spec
    assert topsdown.topsdown_element(same_chip, registry) is element
    assert topsdown.run_workload_on_chip(same_chip, same_spec, registry) is own
    assert workload.run_workload(same_spec, row, registry) == workload.run_workload(spec, row, registry)
    # the back-filled chip, a pure function of the registry's record, has entries of its own
    diannao = registry.chip("Diannao")
    filled = topsdown.backfill_derived(diannao).chip
    assert filled != diannao
    filled_element = topsdown.topsdown_element(filled, registry)
    filled_bench = topsdown.run_workload_on_chip(filled, spec, registry)
    assert registry._memo[("chip element", ("backfill", "Diannao"))] is filled_element
    assert registry._memo[("chip workload", ("backfill", "Diannao"), "lenet")] is filled_bench
    assert topsdown.run_workload_on_chip(topsdown.backfill_derived(diannao).chip, spec, registry) is filled_bench
    assert topsdown.run_workload_on_chip(diannao, spec, registry) != filled_bench
    with pytest.raises(UnknownNameError, match="Diannao.*derive"):
        topsdown.topsdown_element(filled._replace(area=2 * filled.area), registry)
    with pytest.raises(UnknownNameError, match="DYNAPSEL.*derive"):  # a record with no back-filled chip
        topsdown.topsdown_element(registry.chip("DYNAPSEL")._replace(cores=1), registry)


@pytest.mark.parametrize(
    "mapping, name, changes",
    [
        ("technologies", "ANNDCSRAM", {"ic_voltage": 2.0}),
        ("chips", "Loihi", {"cores": 1}),
        ("workloads", "lenet", {"layers": ()}),
    ],
)
def test_own_name_accepts_the_registrys_record_or_an_equal_one(registry, mapping, name, changes):
    record = getattr(registry, mapping)[name]
    assert own_name(registry, record) == name
    assert own_name(registry, type(record)(*record)) == name
    for other in (record._replace(**changes), record._replace(**{record._fields[0]: "nothing"})):
        with pytest.raises(UnknownNameError, match=f"{other[0]}.*not this registry's record.*derive"):
            own_name(registry, other)


def test_chip_named_like_a_technology_keeps_its_own_entries(data_copy):
    def rename_loihi(doc):
        next(row for row in doc["chips"] if row["name"] == "Loihi")["name"] = "ANNDCSRAM"

    rewrite_json(data_copy / "chips_neuromorphic.json", rename_loihi)
    registry = load_datasets(data_copy)
    tech, chip, spec = registry.technology("ANNDCSRAM"), registry.chip("ANNDCSRAM"), registry.workload("lenet")
    row = report.bench_technology(tech, registry)
    element = topsdown.topsdown_element(chip, registry)
    bench = report.bench_workload("lenet", tech, registry)
    on_chip = topsdown.run_workload_on_chip(chip, spec, registry)
    assert isinstance(row, ElementBench) and isinstance(element, topsdown.TopsDownElement)
    assert on_chip != bench
    assert report.bench_technology(tech, registry) is row
    assert topsdown.topsdown_element(chip, registry) is element
    assert report.bench_workload("lenet", tech, registry) is bench
    assert topsdown.run_workload_on_chip(chip, spec, registry) is on_chip


def test_backfilled_chip_gets_its_own_workload_result():
    registry = load_datasets()
    chip, spec = registry.chip("Diannao"), registry.workload("lenet")
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    filled = topsdown.backfill_derived(chip).chip
    assert filled.name == chip.name and filled != chip
    filled_bench = topsdown.run_workload_on_chip(filled, spec, registry)
    assert filled_bench != bench
    assert filled_bench == topsdown._chip_workload(filled, spec, load_datasets())
    assert topsdown.run_workload_on_chip(filled, spec, registry) is filled_bench
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench


# -- layers wrapped at every call site, as perfbench's tracer wraps them --------


def _wrap_everywhere(monkeypatch, module, name, calls):
    """Replace `module.name` with a counting wrapper in every neurobench module that holds it."""
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for holder in [m for k, m in sys.modules.items() if k == "neurobench" or k.startswith("neurobench.")]:
        for attr, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, attr, counting)


def test_memo_misses_call_the_wrapped_layers(monkeypatch, tmp_path):
    registry = load_new(tmp_path)
    calls = Counter()
    _wrap_everywhere(monkeypatch, report, "bench_technology", calls)
    _wrap_everywhere(monkeypatch, topsdown, "topsdown_element", calls)
    report.bench_workload("lenet", registry.technology("SpiMEME"), registry)
    assert calls["bench_technology"] == 1
    topsdown.run_workload_on_chip(registry.chip("Loihi"), registry.workload("lenet"), registry)
    assert calls["topsdown_element"] == 1


def test_memo_hits_after_the_layers_are_wrapped(monkeypatch):
    registry = load_datasets()
    _surface_pass(registry)
    incomputable = 0
    for chip in registry.chips.values():
        try:
            topsdown.topsdown_element(chip, registry)
        except topsdown.IncomputableError:
            incomputable += 1
    calls = Counter()
    for module, name in [
        (report, "bench_technology"),
        (report, "bench_workload"),
        (elements, "build_raw_element"),
        (workload, "run_workload"),
        (topsdown, "topsdown_element"),
        (topsdown, "run_workload_on_chip"),
        (report, "_build_row"),
        (topsdown, "_element"),
        (topsdown, "_chip_workload"),
    ]:
        _wrap_everywhere(monkeypatch, module, name, calls)
    _surface_pass(registry)
    assert calls["bench_technology"] > 0 and calls["topsdown_element"] > 0
    for computed in ("build_raw_element", "run_workload", "_build_row", "_chip_workload"):
        assert calls[computed] == 0, computed
    # only an incomputable chip, which stores nothing, computes its element again: once
    # for the chips table and once in the loop over chips
    assert calls["_element"] == 2 * incomputable > 0
    for tech in registry.enumerate_technologies():  # explicit configs read the shared raw elements
        uncached_row(tech, registry)
    assert calls["_build_row"] == 56 and calls["build_raw_element"] == 0


# -- one memo per content: loads of byte-identical files give one registry --------


def _results(registry):
    """Every element row, and every workload's bench on every technology."""
    techs = registry.enumerate_technologies()
    rows = [report.bench_technology(tech, registry) for tech in techs]
    return rows, [report.bench_workload(name, tech, registry) for name in registry.workloads for tech in techs]


def test_a_memo_is_shared_exactly_when_all_seven_files_are_byte_equal(data_copy):
    shipped = load_datasets(data_copy)
    assert load_datasets(data_copy)._memo is shipped._memo and derive(shipped, {})._memo is shipped._memo
    want = _results(shipped)
    memos = [shipped._memo]
    for name, data in shipped.files.items():
        (data_copy / name).write_text(json.dumps(json.loads(data)))  # the same values in new bytes
        other = load_datasets(data_copy)
        assert all(other._memo is not memo for memo in memos), name
        assert _results(other) == want, name
        memos.append(other._memo)
        (data_copy / name).write_bytes(data)
    assert len(memos) == 1 + 7
    assert load_datasets(data_copy)._memo is shipped._memo


def test_an_incomputable_chip_stores_nothing_in_the_shared_memo(tmp_path):
    registry = load_new(tmp_path)
    for reg in (registry, load_datasets(tmp_path), derive(registry, {})):
        for _ in range(2):
            with pytest.raises(topsdown.IncomputableError, match="area required"):
                topsdown.topsdown_element(reg.chip("Parker"), reg)
            with pytest.raises(topsdown.IncomputableError, match="area required"):
                topsdown.run_workload_on_chip(reg.chip("Parker"), reg.workload("lenet"), reg)
    assert registry._memo == {}


def test_the_memos_of_the_32_latest_contents_are_kept(tmp_path):
    first = load_new(tmp_path)
    files, want = dict(first.files), _results(first)

    def reload_first():
        for name, data in files.items():
            (tmp_path / name).write_bytes(data)
        return load_datasets(tmp_path)

    for _ in range(31):  # 32 contents in all: the first is kept, and a reload makes it the latest
        load_new(tmp_path)
    assert reload_first() is first
    for _ in range(32):  # 33 contents since the first was last loaded: it is evicted
        load_new(tmp_path)
    again = reload_first()
    assert again is not first and again._memo == {}
    assert _results(again) == want
