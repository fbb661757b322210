
import pytest

from conftest import derived_constants
from neurobench.ade import AdeTriple
from neurobench.elements import build_raw_element
from neurobench.interconnect import ElementBench
from neurobench.networks import (
    ann_transform,
    cnn_transform,
    network_transform,
    onn_transform,
    snn_transform,
    transform_terms,
)


@pytest.fixture(scope="module")
def terms(constants):
    return transform_terms(constants)


def derived_terms(registry, **factors):
    """The transform terms of `registry` with the named constants set."""
    return transform_terms(derived_constants(registry, **factors))


@pytest.fixture()
def raw():
    return ElementBench(
        synapse=AdeTriple(100.0, 10.0, 5.0),
        neuron=AdeTriple(300.0, 20.0, 7.0),
    )


def test_ann_is_identity(raw):
    out = ann_transform(raw)
    assert out.synapse == raw.synapse
    assert out.neuron == raw.neuron


def test_ann_idempotent(raw):
    once = ann_transform(raw)
    twice = ann_transform(ElementBench(synapse=once.synapse, neuron=once.neuron))
    assert twice.synapse == once.synapse and twice.neuron == once.neuron


def test_cnn_factors(raw, terms):
    out = cnn_transform(raw, terms[0])
    assert out.synapse.area == pytest.approx(4 * raw.synapse.area)
    assert out.synapse.delay == pytest.approx(20 * raw.synapse.delay)
    assert out.synapse.energy == pytest.approx(20 * raw.synapse.energy)
    assert out.neuron.area == raw.neuron.area
    assert out.neuron.delay == pytest.approx(5 * raw.neuron.delay)
    assert out.neuron.energy == pytest.approx(5 * raw.neuron.energy)


def test_cnn_unit_factors_are_identity(raw, registry):
    flat = derived_terms(registry, cnn_synapse_factor=1.0, cnn_settling_factor=1.0)
    out = cnn_transform(raw, flat[0])
    assert out.synapse == raw.synapse and out.neuron == raw.neuron


def test_snn_leaves_areas_untouched(raw, terms):
    out = snn_transform(raw, terms[1])
    assert out.synapse.area == raw.synapse.area
    assert out.neuron.area == raw.neuron.area
    assert out.synapse.delay == pytest.approx(9 * raw.synapse.delay)
    assert out.neuron.delay == pytest.approx(90 * raw.neuron.delay)


def test_snn_unit_factors_are_identity(raw, registry):
    flat = derived_terms(registry, spike_duration_factor=1.0, spike_spacing_factor=1.0, spikes_to_fire=1.0)
    out = snn_transform(raw, flat[1])
    assert out.synapse == raw.synapse and out.neuron == raw.neuron


def test_onn_area_markup(raw, constants):
    out = onn_transform(raw, constants.sync_periods, "piezo", inv4_delay=10.0)
    assert out.synapse.area == pytest.approx(10 * raw.synapse.area)
    assert out.neuron.area == pytest.approx(30 * raw.neuron.area)


def test_onn_ring_frequency_arithmetic(raw, constants):
    # inv4 delay of 10 ps -> 0.01/ps oscillation -> 30 periods = 3000 ps
    out = onn_transform(
        raw, constants.sync_periods, "transistor_ring", inv4_delay=10.0, device_intrinsics=AdeTriple(1.0, 1.0, 1.0)
    )
    assert out.synapse.delay == pytest.approx(3000.0)


def test_onn_neuron_tracks_synapse(raw, constants):
    out = onn_transform(
        raw, constants.sync_periods, "spintronic", inv4_delay=10.0, device_intrinsics=AdeTriple(1.0, 680.0, 1100.0)
    )
    assert out.neuron.delay == out.synapse.delay
    assert out.neuron.energy == out.synapse.energy


# -- dataset-wide invariants ---------------------------------------------------


def shared_combos(registry, kind_a, kind_b):
    a = {t.combo: t for t in registry.enumerate_technologies(kind_a)}
    b = {t.combo: t for t in registry.enumerate_technologies(kind_b)}
    return [(a[c], b[c]) for c in sorted(set(a) & set(b))]


def test_cnn_area_ratios_across_dataset(registry, constants, terms):
    for ann_t, cnn_t in shared_combos(registry, "ANN", "CNN"):
        ann = network_transform(build_raw_element(ann_t, registry), ann_t, registry, terms)
        cnn = network_transform(build_raw_element(cnn_t, registry), cnn_t, registry, terms)
        assert cnn.synapse.area / ann.synapse.area == pytest.approx(constants.cnn_synapse_factor)
        assert cnn.neuron.area == ann.neuron.area


def test_snn_areas_equal_ann_across_dataset(registry, terms):
    for ann_t, snn_t in shared_combos(registry, "ANN", "SNN"):
        ann = network_transform(build_raw_element(ann_t, registry), ann_t, registry, terms)
        snn = network_transform(build_raw_element(snn_t, registry), snn_t, registry, terms)
        assert snn.synapse.area == ann.synapse.area
        assert snn.neuron.area == ann.neuron.area


def test_onn_ratios_against_analog_counterparts(registry, terms):
    ann = {t.combo: t for t in registry.enumerate_technologies("ANN")}
    for osc in registry.enumerate_technologies("ONN"):
        counterpart = ann.get(osc.combo)
        if counterpart is None or osc.synapse_device != counterpart.synapse_device:
            continue  # oscillator has no matching analog row
        base = network_transform(build_raw_element(counterpart, registry), counterpart, registry, terms)
        out = network_transform(build_raw_element(osc, registry), osc, registry, terms)
        assert out.synapse.area / base.synapse.area == pytest.approx(10.0)
        assert out.neuron.area / base.neuron.area == pytest.approx(30.0)


def test_onn_timing_equalities_across_dataset(registry, terms):
    for tech in registry.enumerate_technologies("ONN"):
        out = network_transform(build_raw_element(tech, registry), tech, registry, terms)
        assert out.neuron.delay == out.synapse.delay
        assert out.neuron.energy == out.synapse.energy
        assert out.synapse.delay > 0 and out.synapse.energy > 0
