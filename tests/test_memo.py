"""Memoized results belong to the Registry that produced them."""

from collections import Counter
from dataclasses import replace

import pytest

from neurobench import load_datasets, report, topsdown
from neurobench.chip import nominal_config

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
    c = registry.constants
    scaled = replace(registry, constants=replace(c, supply_voltage=1.05 * c.supply_voltage))
    assert scaled._memo == {}
    scaled_row = report.bench_technology(tech, scaled)
    assert scaled_row != row
    assert scaled_row == uncached_row(tech, scaled)
    assert report.bench_technology(tech, registry) is row


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
    c = registry.constants
    return replace(registry, constants=replace(c, supply_voltage=1.05 * c.supply_voltage, synapse_levels=4))


@pytest.mark.parametrize("derive", [lambda r: r, _scaled_constants], ids=["default", "scaled"])
def test_shared_raw_elements_give_the_unshared_rows(derive):
    registry = derive(load_datasets())
    for tech in registry.enumerate_technologies():
        alone = report._build_row(tech, replace(registry))  # an empty memo: nothing is shared
        assert report.bench_technology(tech, registry) == alone, tech.label


def test_second_topsdown_call_returns_the_identical_result():
    registry = load_datasets()
    chip, spec = registry.chip("Loihi"), registry.workload("speech_mlp")
    element = topsdown.topsdown_element(chip, registry)
    assert topsdown.topsdown_element(chip, registry) is element
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench
    first_layer = replace(spec, layers=spec.layers[:1])
    assert topsdown.run_workload_on_chip(chip, first_layer, registry).energy < bench.energy


def test_replaced_registry_recomputes_topsdown_results():
    registry = load_datasets()
    chip, spec = registry.chip("Loihi"), registry.workload("speech_mlp")
    bench = topsdown.run_workload_on_chip(chip, spec, registry)
    c = registry.constants
    scaled = replace(registry, constants=replace(c, core_overhead=2 * c.core_overhead))
    assert scaled._memo == {}
    assert topsdown.run_workload_on_chip(chip, spec, scaled).area != bench.area
    assert topsdown.run_workload_on_chip(chip, spec, registry) is bench


def test_replaced_chip_gets_its_own_topsdown_element():
    registry = load_datasets()
    chip = registry.chip("TrueNorth")
    element = topsdown.topsdown_element(chip, registry)
    doubled = topsdown.topsdown_element(replace(chip, area=2 * chip.area), registry)
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
