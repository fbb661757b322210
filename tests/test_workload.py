import math

import pytest
from hypothesis import given, settings, strategies as st

from neurobench.ade import AdeTriple
from neurobench.interconnect import ElementBench
from neurobench.registry import LayerSpec
from neurobench.workload import (
    StageBench,
    StageParams,
    aggregate,
    cascade,
    core_area,
    run_workload,
    stage_params,
    stage_time_energy,
    total_synaptic_ops,
    wire_limited_area,
)

ZERO = AdeTriple(0.0, 0.0, 0.0)


def element(a_syn=100.0, t_syn=10.0, e_syn=5.0, a_neu=300.0, t_neu=20.0, e_neu=7.0):
    return ElementBench(
        synapse=AdeTriple(a_syn, t_syn, e_syn), core_ic=ZERO,
        neuron=AdeTriple(a_neu, t_neu, e_neu), chip_ic=ZERO,
    )


def reduction_tree_oracle(fan_in, s_neu):
    """Independent construction: grow a complete fan_in-ary tree level by
    level until its leaf slots cover s_neu inputs; count levels and nodes."""
    levels = 1
    level_nodes = 1
    total_nodes = 1
    while fan_in**levels < s_neu:
        levels += 1
        level_nodes *= fan_in
        total_nodes += level_nodes
    return levels, total_nodes


# -- stage parameters -----------------------------------------------------------


def test_conv_stage_from_single_stage_workload():
    layer = LayerSpec(kind="convolution", image_w=35, image_h=35, in_channels=1, kernel=5, feature_maps=24)
    stage = stage_params(layer, 1, "ANN")
    assert stage.n_in == 1225
    assert stage.n_out == 961
    assert stage.s_neu == 25
    assert stage.f_st == 24


def test_fc_stage_mnist_first_layer():
    stage = stage_params(LayerSpec(kind="fully_connected", inputs=784, outputs=256), 1, "ANN")
    assert (stage.n_in, stage.n_out, stage.s_neu, stage.f_st) == (784, 256, 784, 1)


def test_degenerate_1x1_kernel():
    layer = LayerSpec(kind="convolution", image_w=8, image_h=8, in_channels=3, kernel=1, feature_maps=2)
    stage = stage_params(layer, 1, "ANN")
    assert stage.s_neu == 3
    assert stage.n_out == 64


def test_kernel_larger_than_image_rejected():
    layer = LayerSpec(kind="convolution", image_w=4, image_h=4, in_channels=1, kernel=5, feature_maps=1)
    with pytest.raises(ValueError, match="kernel"):
        stage_params(layer, 1, "ANN")


def test_snn_activity_decays_with_stage():
    layer = LayerSpec(kind="fully_connected", inputs=10, outputs=10)
    assert stage_params(layer, 1, "SNN").r_a == 1.0
    assert stage_params(layer, 2, "SNN").r_a == 0.5
    assert stage_params(layer, 3, "SNN").r_a == pytest.approx(1 / 3)
    assert stage_params(layer, 3, "ANN").r_a == 1.0


def test_strided_convolution():
    layer = LayerSpec(kind="convolution", image_w=227, image_h=227, in_channels=3, kernel=11, stride=4, feature_maps=96)
    stage = stage_params(layer, 1, "ANN")
    assert stage.n_out == 55 * 55
    assert stage.s_neu == 121 * 3


# -- cascade -------------------------------------------------------------------


@pytest.mark.parametrize(
    "fan_in,s_neu,expected",
    [
        (2, 256, (8, 255)),
        (16, 256, (2, 17)),
        (32, 256, (2, 33)),  # ceil(log_32 256) = 2; (32^2 - 1)/31 = 33
        (7, 7, (1, 1)),
        (64, 2, (1, 1)),
        (2, 1, (1, 1)),
    ],
)
def test_cascade_examples(fan_in, s_neu, expected):
    assert cascade(fan_in, s_neu) == expected


def test_cascade_unlimited():
    assert cascade(None, 10**9) == (1, 1)


def test_cascade_fan_in_one_is_sequential():
    assert cascade(1, 16) == (16, 1)
    with pytest.raises(ValueError, match="fan-in"):
        cascade(0, 16)


@given(fan_in=st.integers(2, 64), s_neu=st.integers(1, 4096))
def test_cascade_matches_tree_oracle(fan_in, s_neu):
    assert cascade(fan_in, s_neu) == reduction_tree_oracle(fan_in, s_neu)


@given(fan_in=st.integers(2, 64), s_neu=st.integers(2, 4096))
def test_cascade_bracketing(fan_in, s_neu):
    levels, nodes = cascade(fan_in, s_neu)
    assert nodes >= levels >= 1
    assert fan_in**levels >= s_neu > fan_in ** (levels - 1)


# -- core area ------------------------------------------------------------------


def test_wire_limited_area_arithmetic(constants):
    stage = StageParams(n_in=784, n_out=256, s_neu=784, f_st=1, r_a=1.0)
    # 784 * 256 * (120 nm)^2
    assert wire_limited_area(stage, constants) == pytest.approx(784 * 256 * 14400)
    assert wire_limited_area(stage, constants) == pytest.approx(2.8901376e9)


def test_convolution_core_area_counts_kernel_synapses(constants):
    layer = LayerSpec(kind="convolution", image_w=35, image_h=35, kernel=5)
    stage = stage_params(layer, 1, "ANN")
    assert (stage.n_in, stage.n_out, stage.s_neu) == (1225, 961, 25)
    elem = element(a_syn=1e7, a_neu=0.0)  # circuit area well above the wire floor
    area = core_area(stage, elem, 16, constants)
    c = constants
    assert area > wire_limited_area(stage, c)
    assert area == pytest.approx(c.core_overhead * c.synapse_overhead * 1e7 * stage.n_out * stage.s_neu, rel=1e-12)


def test_wire_limit_dominates_tiny_synapses(constants):
    stage = StageParams(n_in=1000, n_out=1000, s_neu=10, f_st=1, r_a=1.0)
    elem = element(a_syn=1e-3, a_neu=1e-3)
    assert core_area(stage, elem, 16, constants) == wire_limited_area(stage, constants)


def test_core_area_counts_cascade_neurons(constants):
    stage = StageParams(n_in=256, n_out=1, s_neu=256, f_st=1, r_a=1.0)
    elem = element(a_syn=1e-9, a_neu=1e6)  # circuit area well above the wire floor
    # fan-in 2 needs 255 cascade neurons; unlimited needs 1
    wide = core_area(stage, elem, None, constants)
    deep = core_area(stage, elem, 2, constants)
    c = constants
    expected_gap = c.core_overhead * c.neuron_overhead * elem.neuron.area * (255 - 1) * stage.n_out
    assert deep - wide == pytest.approx(expected_gap, rel=1e-6)


# -- stage time/energy -----------------------------------------------------------


def test_sequential_single_synapse_equals_single_level_cascade():
    stage = StageParams(n_in=1, n_out=4, s_neu=1, f_st=1, r_a=1.0)
    elem = element()
    assert stage_time_energy(stage, elem, 2) == stage_time_energy(stage, elem, 1)


def test_stage_energy_linear_in_outputs():
    elem = element()
    e1 = stage_time_energy(StageParams(10, 10, 10, 1, 1.0), elem, 2)[1]
    e2 = stage_time_energy(StageParams(10, 20, 10, 1, 1.0), elem, 2)[1]
    assert e2 == pytest.approx(2 * e1)


def test_stage_activity_scales_synapse_term_only():
    elem = element(e_syn=5.0, e_neu=7.0)
    full = stage_time_energy(StageParams(10, 8, 10, 1, 1.0), elem, 2)[1]
    half = stage_time_energy(StageParams(10, 8, 10, 1, 0.5), elem, 2)[1]
    assert full - half == pytest.approx(0.5 * 10 * 8 * 5.0)


def test_sequential_delay_structure():
    stage = StageParams(n_in=100, n_out=10, s_neu=100, f_st=1, r_a=1.0)
    tau, _ = stage_time_energy(stage, element(t_syn=10.0, t_neu=20.0), 1)
    assert tau == pytest.approx(100 * 10.0 + 20.0)


def test_cascaded_delay_structure():
    stage = StageParams(n_in=256, n_out=10, s_neu=256, f_st=1, r_a=1.0)
    tau, _ = stage_time_energy(stage, element(t_syn=10.0, t_neu=20.0), 2)
    assert tau == pytest.approx(8 * 10.0 + 20.0)


# -- aggregation ------------------------------------------------------------------


def test_single_stage_schedules_coincide():
    stages = [StageBench(area=5.0, delay=7.0, energy=11.0, f_st=1)]
    par = aggregate(stages, "parallel")
    tmux = aggregate(stages, "time_multiplexed")
    assert (par.area, par.delay, par.energy) == (tmux.area, tmux.delay, tmux.energy)


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate([], "parallel")


@given(
    stages=st.lists(
        st.tuples(
            st.floats(1, 1e9), st.floats(1, 1e9), st.floats(1, 1e9), st.integers(1, 64)
        ),
        min_size=1,
        max_size=8,
    )
)
def test_aggregate_schedule_properties(stages):
    benches = [StageBench(*s) for s in stages]
    par = aggregate(benches, "parallel")
    tmux = aggregate(benches, "time_multiplexed")
    assert par.energy == pytest.approx(tmux.energy)  # energy shared
    assert tmux.area <= par.area + 1e-9  # max <= weighted sum
    assert tmux.delay >= par.delay - 1e-9  # feature maps serialize
    assert par.power == pytest.approx(par.energy / par.delay)
    assert par.inference_throughput == pytest.approx(1.0 / (par.area * par.delay))


# -- whole workloads ---------------------------------------------------------------


def test_builtin_workload_names(registry):
    assert set(registry.workloads) == {
        "lenet", "alexnet", "conv35x35", "assoc_mem", "mnist_mlp", "speech_mlp",
    }


def test_mnist_total_ops_oracle(registry):
    # independent oracle: sum of layer products
    dims = [784, 256, 128, 10]
    expected = sum(a * b for a, b in zip(dims, dims[1:]))
    assert expected == 234_752
    assert total_synaptic_ops(registry.workload("mnist_mlp")) == expected


def test_speech_mlp_has_three_weight_stages(registry):
    spec = registry.workload("speech_mlp")
    assert len(spec.layers) == 3
    assert [l.inputs for l in spec.layers] == [390, 256, 256]
    assert [l.outputs for l in spec.layers] == [256, 256, 29]


def test_conv_workload_feature_maps(registry):
    spec = registry.workload("conv35x35")
    assert spec.layers[0].feature_maps == 24


def test_zero_neuron_energy_isolates_synapse_term(registry, constants):
    # with no neuron energy and full activity, workload energy is exactly
    # synapse energy times the op count
    elem = element(e_syn=3.25, e_neu=0.0)
    bench = run_workload(registry.workload("mnist_mlp"), elem, constants, fan_in=2)
    assert bench.energy == pytest.approx(3.25 * 234_752, rel=1e-12)


def test_workload_energy_linear_in_mac_count(registry, constants):
    # across all six workloads the energy with zero neuron term is exactly
    # proportional to the activity-weighted MAC count
    elem = element(e_syn=1.0, e_neu=0.0)
    for name, spec in registry.workloads.items():
        bench = run_workload(spec, elem, constants, fan_in=2)
        assert bench.energy == pytest.approx(total_synaptic_ops(spec), rel=1e-12), name


def test_workload_delay_monotone_in_stage_delay(registry, constants):
    slow = run_workload(registry.workload("mnist_mlp"), element(t_syn=20.0), constants, fan_in=2)
    fast = run_workload(registry.workload("mnist_mlp"), element(t_syn=10.0), constants, fan_in=2)
    assert slow.delay >= fast.delay
