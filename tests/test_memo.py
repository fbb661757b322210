"""Memoized results belong to the Registry that produced them."""

import sys
from collections import Counter

import pytest

from neurobench import derive, elements, load_datasets, report, topsdown, workload
from neurobench.chip import nominal_config
from neurobench.interconnect import ElementBench
from neurobench.registry import ChipRecord, LayerSpec, Technology, WorkloadSpec

from conftest import rewrite_json


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


def test_derived_registry_shares_every_record_and_starts_with_an_empty_memo():
    registry = load_datasets()
    row = report.bench_technology(registry.technology("ANNDCSRAM"), registry)
    derived = derive(registry, {})
    assert derived._memo == {} and registry._memo
    assert derived.files == registry.files and derived.constants is registry.constants
    for mapping in ("primitives", "devices", "technologies", "chips", "workloads"):
        records = getattr(registry, mapping)
        assert all(record is records[name] for name, record in getattr(derived, mapping).items())
        assert list(getattr(derived, mapping)) == list(records)
    assert derived.fan_in == registry.fan_in and derived.topsdown_params == registry.topsdown_params
    assert report.bench_technology(registry.technology("ANNDCSRAM"), derived) is not row


def test_a_registry_cannot_be_changed(registry):
    for name in ("constants", "_memo", "files", "new"):
        with pytest.raises(AttributeError):
            setattr(registry, name, None)
        with pytest.raises(AttributeError):
            delattr(registry, name)
    assert not hasattr(registry, "_replace") and not isinstance(registry, tuple)


def test_replaced_spec_starts_without_plans():
    registry = load_datasets()
    spec = registry.workload("mnist_mlp")
    workload.workload_plan(spec, "ANN", 2)
    for copy in (spec._replace(), spec._make(spec), WorkloadSpec(*spec)):
        assert type(copy) is WorkloadSpec and copy._plans == {} and spec._plans
        assert copy == spec and hash(copy) == hash(spec)  # equality and hash ignore the plans


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


def test_each_row_is_built_once_per_registry(monkeypatch):
    registry = load_datasets()
    built = Counter()
    original = report._build_row

    def counting(tech, reg, cfg=None):
        built[tech.label] += 1
        return original(tech, reg, cfg)

    monkeypatch.setattr(report, "_build_row", counting)
    _touch_every_row(registry)
    assert set(built) == set(registry.technologies)
    assert set(built.values()) == {1}


def test_each_raw_element_is_built_once_per_builder_input(monkeypatch):
    registry = load_datasets()
    built = Counter()
    original = report.build_raw_element

    def counting(tech, reg):
        built[tech.family, tech.primitive_family, tech.transistor_family, tech.synapse_device] += 1
        return original(tech, reg)

    monkeypatch.setattr(report, "build_raw_element", counting)
    _touch_every_row(registry)
    for tech in registry.enumerate_technologies():  # explicit configs share the raw elements too
        uncached_row(tech, registry)
    assert len(built) == 18 < len(registry.technologies)
    assert set(built.values()) == {1}


def _scaled_constants(registry):
    edits = {("supply_voltage",): 1.05 * registry.constants.supply_voltage, ("synapse_levels",): 4}
    return derive(registry, {"constants.json": edits})


@pytest.mark.parametrize("build", [lambda r: r, _scaled_constants], ids=["default", "scaled"])
def test_shared_raw_elements_give_the_unshared_rows(build):
    registry = build(load_datasets())
    for tech in registry.enumerate_technologies():
        alone = report._build_row(tech, derive(registry, {}))  # an empty memo: nothing is shared
        assert report.bench_technology(tech, registry) == alone, tech.label


def test_second_topsdown_call_returns_the_identical_result():
    registry = load_datasets()
    chip, spec = registry.chip("Loihi"), registry.workload("speech_mlp")
    element = topsdown.topsdown_element(chip, registry)
    assert topsdown.topsdown_element(chip, registry) is element
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench
    first_layer = spec._replace(layers=spec.layers[:1])
    assert topsdown.run_workload_on_chip(chip, first_layer, registry).energy < bench.energy


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
    doubled = topsdown.topsdown_element(chip._replace(area=2 * chip.area), registry)
    assert doubled.synapse_area == pytest.approx(2 * element.synapse_area)
    assert doubled.neuron_area == pytest.approx(2 * element.neuron_area)
    assert topsdown.topsdown_element(chip, registry) is element


def test_each_topsdown_result_is_computed_once_per_registry(monkeypatch):
    registry = load_datasets()
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


# -- memo keys: a registry's own records by name, any other record by value ------


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


def test_replaced_technology_keeps_its_label_and_gets_its_own_row():
    registry = load_datasets()
    tech = registry.technology("ANNDCSRAM")
    row = report.bench_technology(tech, registry)
    boosted = tech._replace(ic_voltage=1.5 * registry.constants.supply_voltage)
    assert boosted.label == tech.label
    boosted_row = report.bench_technology(boosted, registry)
    assert boosted_row != row
    assert boosted_row == uncached_row(boosted, registry)
    assert report.bench_technology(boosted, registry) is boosted_row
    assert report.bench_technology(tech, registry) is row
    assert report.bench_workload("lenet", boosted, registry) != report.bench_workload("lenet", tech, registry)


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


def test_memo_misses_call_the_wrapped_layers(monkeypatch):
    registry = load_datasets()
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
