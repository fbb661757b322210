import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, reject, settings, strategies as st

from neurobench import derive, load_datasets
from neurobench.ade import AdeTriple
from neurobench.interconnect import ElementBench
from neurobench.registry import LayerSpec, ValidationError
from neurobench.report import bench_technology, bench_workload
from neurobench.workload import (
    StageBench,
    StageParams,
    aggregate,
    cascade,
    plan_stage,
    run_workload,
    stage_benches,
    stage_params,
    workload_plan,
)

ZERO = AdeTriple(0.0, 0.0, 0.0)


def element(a_syn=100.0, t_syn=10.0, e_syn=5.0, a_neu=300.0, t_neu=20.0, e_neu=7.0):
    return ElementBench(
        synapse=AdeTriple(a_syn, t_syn, e_syn), core_ic=ZERO,
        neuron=AdeTriple(a_neu, t_neu, e_neu), chip_ic=ZERO,
    )


def stage_bench(stage, elem, fan_in, registry):
    """One stage through the kernel."""
    return stage_benches((plan_stage(stage, fan_in),), elem, registry)[0]


def time_energy(stage, elem, fan_in, registry):
    bench = stage_bench(stage, elem, fan_in, registry)
    return bench.delay, bench.energy


def wire_floor(stage, constants):
    """Area of n_in x n_out wires at the metal pitch, nm^2."""
    p = constants.wire_pitch
    return stage.n_in * stage.n_out * p * p


def oracle_stages(spec, elem, c, network_kind="ANN", fan_in=None):
    """The stages of `run_workload`, written stage by stage with the model's
    expressions in their order of evaluation."""
    syn, neu = elem.synapse_total, elem.neuron_total
    stages = []
    for index, layer in enumerate(spec.layers, start=1):
        s = stage_params(layer, index, network_kind)
        levels, n_cas = cascade(fan_in, s.s_neu)
        n_cor = n_cas * s.n_out + s.n_in
        a_cor = c.core_overhead * (
            c.neuron_overhead * elem.neuron.area * n_cor + c.synapse_overhead * elem.synapse.area * (s.n_out * s.s_neu)
        )
        area = max(a_cor, s.n_in * s.n_out * c.wire_pitch * c.wire_pitch)
        delay = levels * syn.delay + neu.delay
        energy = s.r_a * s.s_neu * s.n_out * syn.energy + s.n_out * neu.energy
        stages.append(StageBench(area, delay, energy, s.f_st))
    return stages


def oracle(spec, elem, c, network_kind="ANN", fan_in=None, schedule=None):
    stages = oracle_stages(spec, elem, c, network_kind, fan_in)
    return aggregate(stages, schedule or ("time_multiplexed" if fan_in == 1 else "parallel"))


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


def test_wire_limited_area_arithmetic(registry):
    stage = StageParams(n_in=784, n_out=256, s_neu=784, f_st=1, r_a=1.0)
    area = stage_bench(stage, element(a_syn=1e-3, a_neu=1e-3), 16, registry).area  # circuit below the floor
    # 784 * 256 * (120 nm)^2
    assert area == pytest.approx(784 * 256 * 14400)
    assert area == pytest.approx(2.8901376e9)


def test_convolution_core_area_counts_kernel_synapses(registry):
    layer = LayerSpec(kind="convolution", image_w=35, image_h=35, kernel=5)
    stage = stage_params(layer, 1, "ANN")
    assert (stage.n_in, stage.n_out, stage.s_neu) == (1225, 961, 25)
    elem = element(a_syn=1e7, a_neu=0.0)  # circuit area well above the wire floor
    area = stage_bench(stage, elem, 16, registry).area
    c = registry.constants
    assert area > wire_floor(stage, c)
    assert area == pytest.approx(c.core_overhead * c.synapse_overhead * 1e7 * stage.n_out * stage.s_neu, rel=1e-12)


def test_wire_limit_dominates_tiny_synapses(registry):
    stage = StageParams(n_in=1000, n_out=1000, s_neu=10, f_st=1, r_a=1.0)
    elem = element(a_syn=1e-3, a_neu=1e-3)
    assert stage_bench(stage, elem, 16, registry).area == wire_floor(stage, registry.constants)


def test_core_area_counts_cascade_neurons(registry):
    stage = StageParams(n_in=256, n_out=1, s_neu=256, f_st=1, r_a=1.0)
    elem = element(a_syn=1e-9, a_neu=1e6)  # circuit area well above the wire floor
    # fan-in 2 needs 255 cascade neurons; unlimited needs 1
    wide = stage_bench(stage, elem, None, registry).area
    deep = stage_bench(stage, elem, 2, registry).area
    c = registry.constants
    expected_gap = c.core_overhead * c.neuron_overhead * elem.neuron.area * (255 - 1) * stage.n_out
    assert deep - wide == pytest.approx(expected_gap, rel=1e-6)


# -- stage time/energy -----------------------------------------------------------


def test_sequential_single_synapse_equals_single_level_cascade(registry):
    stage = StageParams(n_in=1, n_out=4, s_neu=1, f_st=1, r_a=1.0)
    elem = element()
    assert time_energy(stage, elem, 2, registry) == time_energy(stage, elem, 1, registry)


def test_stage_energy_linear_in_outputs(registry):
    elem = element()
    e1 = time_energy(StageParams(10, 10, 10, 1, 1.0), elem, 2, registry)[1]
    e2 = time_energy(StageParams(10, 20, 10, 1, 1.0), elem, 2, registry)[1]
    assert e2 == pytest.approx(2 * e1)


def test_stage_activity_scales_synapse_term_only(registry):
    elem = element(e_syn=5.0, e_neu=7.0)
    full = time_energy(StageParams(10, 8, 10, 1, 1.0), elem, 2, registry)[1]
    half = time_energy(StageParams(10, 8, 10, 1, 0.5), elem, 2, registry)[1]
    assert full - half == pytest.approx(0.5 * 10 * 8 * 5.0)


def test_sequential_delay_structure(registry):
    stage = StageParams(n_in=100, n_out=10, s_neu=100, f_st=1, r_a=1.0)
    tau, _ = time_energy(stage, element(t_syn=10.0, t_neu=20.0), 1, registry)
    assert tau == pytest.approx(100 * 10.0 + 20.0)


def test_cascaded_delay_structure(registry):
    stage = StageParams(n_in=256, n_out=10, s_neu=256, f_st=1, r_a=1.0)
    tau, _ = time_energy(stage, element(t_syn=10.0, t_neu=20.0), 2, registry)
    assert tau == pytest.approx(8 * 10.0 + 20.0)


# -- aggregation ------------------------------------------------------------------


def test_single_stage_schedules_coincide():
    stages = [StageBench(area=5.0, delay=7.0, energy=11.0, f_st=1)]
    par = aggregate(stages, "parallel")
    tmux = aggregate(stages, "time_multiplexed")
    assert (par.area, par.delay, par.energy) == (tmux.area, tmux.delay, tmux.energy)


def test_aggregate_takes_one_pass_over_any_iterable_of_figures():
    figures = [(5.0, 7.0, 11.0, 2), (3.0, 1.0, 4.0, 1)]
    for schedule in ("parallel", "time_multiplexed"):
        from_benches = aggregate([StageBench(*f) for f in figures], schedule)
        assert aggregate(iter(figures), schedule) == aggregate((f for f in figures), schedule) == from_benches
    with pytest.raises(ValueError, match="^unknown schedule 'both'$"):
        aggregate(iter(figures), "both")


def test_aggregate_sums_stages_left_to_right():
    # 1 + 2**-53 rounds back to 1 at each step; a compensated sum gives 1 + 2**-52
    stages = [StageBench(x, x, x, 1) for x in (1.0, 2.0**-53, 2.0**-53)]
    par = aggregate(stages, "parallel")
    tmux = aggregate(stages, "time_multiplexed")
    assert (par.area, par.delay, par.energy, tmux.delay) == (1.0, 1.0, 1.0, 1.0)


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


def synaptic_ops(spec):
    """Activity-weighted synaptic operations, summed over stages and feature maps."""
    return sum(stage.active_synapses * stage.f_st for stage in workload_plan(spec, "ANN", 2))


def test_mnist_total_ops_oracle(registry):
    # independent oracle: sum of layer products
    dims = [784, 256, 128, 10]
    expected = sum(a * b for a, b in zip(dims, dims[1:]))
    assert expected == 234_752
    assert synaptic_ops(registry.workload("mnist_mlp")) == expected


def test_speech_mlp_has_three_weight_stages(registry):
    spec = registry.workload("speech_mlp")
    assert len(spec.layers) == 3
    assert [l.inputs for l in spec.layers] == [390, 256, 256]
    assert [l.outputs for l in spec.layers] == [256, 256, 29]


def test_conv_workload_feature_maps(registry):
    spec = registry.workload("conv35x35")
    assert spec.layers[0].feature_maps == 24


def test_zero_neuron_energy_isolates_synapse_term(registry):
    # with no neuron energy and full activity, workload energy is exactly
    # synapse energy times the op count
    elem = element(e_syn=3.25, e_neu=0.0)
    bench = run_workload(registry.workload("mnist_mlp"), elem, registry, fan_in=2)
    assert bench.energy == pytest.approx(3.25 * 234_752, rel=1e-12)


def test_workload_energy_linear_in_mac_count(registry):
    # across all six workloads the energy with zero neuron term is exactly
    # proportional to the activity-weighted MAC count
    elem = element(e_syn=1.0, e_neu=0.0)
    for name, spec in registry.workloads.items():
        bench = run_workload(spec, elem, registry, fan_in=2)
        assert bench.energy == pytest.approx(synaptic_ops(spec), rel=1e-12), name


def test_workload_delay_monotone_in_stage_delay(registry):
    slow = run_workload(registry.workload("mnist_mlp"), element(t_syn=20.0), registry, fan_in=2)
    fast = run_workload(registry.workload("mnist_mlp"), element(t_syn=10.0), registry, fan_in=2)
    assert slow.delay >= fast.delay


# -- the stage kernel against the per-stage oracle ----------------------------------


# layers as workloads.json rows: a spec reaches the model only through the loader
fully_connected = st.fixed_dictionaries(
    {"kind": st.just("fully_connected"), "inputs": st.integers(1, 2048), "outputs": st.integers(1, 2048)}
)


@st.composite
def convolutions(draw):
    image_w, image_h = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    return {
        "kind": "convolution",
        "image_w": image_w,
        "image_h": image_h,
        "in_channels": draw(st.integers(1, 8)),
        "kernel": draw(st.integers(1, min(image_w, image_h, 11))),
        "feature_maps": draw(st.integers(1, 64)),
        "stride": draw(st.integers(1, 4)),
        "padding": draw(st.sampled_from(["valid", "same"])),
    }


workloads = st.lists(st.one_of(fully_connected, convolutions()), min_size=1, max_size=8)


def with_layers(registry, layers, constants=None, name="lenet"):
    """`registry` derived with `layers` as the rows of workload `name` and with the
    constants.json edits `constants`, and the spec the loader read from them."""
    edits = {"workloads.json": {("workloads", name, "layers"): layers}}
    if constants:
        edits["constants.json"] = constants
    derived = derive(registry, edits)
    return derived, derived.workload(name)
fan_ins = st.one_of(st.none(), st.just(1), st.integers(2, 64))
schedules = st.sampled_from([None, "parallel", "time_multiplexed"])
figures = st.one_of(st.just(0.0), st.floats(1e-3, 1e6))
triples = st.builds(AdeTriple, figures, figures, figures)
elements = st.builds(ElementBench, synapse=triples, neuron=triples, core_ic=triples, chip_ic=triples)


@settings(max_examples=300, deadline=None)
@given(
    layers=workloads,
    elem=elements,
    kind=st.sampled_from(["ANN", "SNN"]),
    fan_in=fan_ins,
    schedule=schedules,
    overheads=st.tuples(st.floats(1.0, 4.0), st.floats(1.0, 4.0), st.floats(1.0, 4.0)),
    wire_pitch=st.floats(1.0, 1e3),
)
def test_run_workload_equals_stage_oracle_bit_for_bit(
    registry, layers, elem, kind, fan_in, schedule, overheads, wire_pitch
):
    # overheads and a pitch off the shipped round numbers, so that a
    # reordered product rounds differently
    core, neuron, synapse = overheads
    edits = {
        ("overheads", "core"): core,
        ("overheads", "neuron"): neuron,
        ("overheads", "synapse"): synapse,
        ("wire_pitch_f",): wire_pitch / registry.constants.feature_size,
    }
    derived, spec = with_layers(registry, layers, edits)
    c = derived.constants
    assert stage_benches(workload_plan(spec, kind, fan_in), elem, derived) == oracle_stages(spec, elem, c, kind, fan_in)
    got = run_workload(spec, elem, derived, network_kind=kind, fan_in=fan_in, schedule=schedule)
    want = oracle(spec, elem, c, kind, fan_in, schedule)
    assert (got.area, got.delay, got.energy, got.schedule) == (want.area, want.delay, want.energy, want.schedule)


# -- workload invariants on every shipped technology, nominal and perturbed constants --


PERTURBED = (  # paths in constants.json
    ("supply_voltage",),
    ("overheads", "synapse"),
    ("overheads", "neuron"),
    ("overheads", "core"),
    ("overheads", "chip"),
    ("wire_pitch_f",),
)
scalings = st.one_of(st.none(), st.tuples(*[st.floats(0.5, 2.0)] * len(PERTURBED)))


def scaled(registry, factors, layers):
    """`registry` derived with `layers` as the lenet workload's rows and, unless
    factors is None, the `PERTURBED` constants scaled; and its lenet spec. A draw
    is discarded only when the loader rejects it for breaking the ordering
    sense_voltage < supply_voltage."""
    edits = None
    if factors is not None:
        doc = json.loads(registry.files["constants.json"])
        edits = {path: reduce(getitem, path, doc) * f for path, f in zip(PERTURBED, factors)}
    try:
        return with_layers(registry, layers, edits)
    except ValidationError as e:
        if not str(e).startswith("constants.json: sense_voltage: must be below supply_voltage "):
            raise
        reject()


def shipped_rows(registry):
    return [(tech, bench_technology(tech, registry)) for tech in registry.enumerate_technologies()]


@settings(max_examples=30, deadline=None)
@given(layers=workloads, factors=scalings)
def test_schedules_share_energy_and_trade_area_for_delay(registry, layers, factors):
    registry, spec = scaled(registry, factors, layers)
    for tech, row in shipped_rows(registry):
        policy = {"network_kind": tech.network_kind, "fan_in": registry.fan_in[tech.fan_in_class]}
        par = run_workload(spec, row, registry, schedule="parallel", **policy)
        tmux = run_workload(spec, row, registry, schedule="time_multiplexed", **policy)
        assert par.energy == tmux.energy, tech.label
        assert tmux.area <= par.area, tech.label
        assert tmux.delay >= par.delay, tech.label


@settings(max_examples=30, deadline=None)
@given(
    layers=workloads,
    pair=st.lists(st.integers(1, 64), min_size=2, max_size=2, unique=True),
    schedule=schedules,
    factors=scalings,
)
def test_larger_fan_in_never_raises_delay(registry, layers, pair, schedule, factors):
    registry, spec = scaled(registry, factors, layers)
    for tech, row in shipped_rows(registry):
        delays = [
            run_workload(spec, row, registry, network_kind=tech.network_kind, fan_in=fan_in, schedule=schedule).delay
            for fan_in in (*sorted(pair), None)  # None: unlimited
        ]
        assert delays[0] >= delays[1] >= delays[2], tech.label


@settings(max_examples=30, deadline=None)
@given(layers=workloads, factors=scalings)
def test_stage_synapse_energy_is_activity_times_synapses_times_synapse_energy(registry, layers, factors):
    registry, spec = scaled(registry, factors, layers)
    for tech, row in shipped_rows(registry):
        silent = row._replace(
            neuron=row.neuron._replace(energy=0.0),
            chip_ic=row.chip_ic._replace(energy=0.0),
        )
        e_syn = row.synapse_total.energy
        plan = workload_plan(spec, tech.network_kind, registry.fan_in[tech.fan_in_class])
        for index, (layer, bench) in enumerate(zip(spec.layers, stage_benches(plan, silent, registry)), start=1):
            s = stage_params(layer, index, tech.network_kind)
            assert bench.energy == s.r_a * s.s_neu * s.n_out * e_syn, (tech.label, index)


@pytest.mark.parametrize("factors", [None, (1.25, 1.5)], ids=["shipped", "scaled"])
def test_stage_view_sums_to_the_memoized_workload_bench(registry, factors):
    # the explain path (stage_benches, then aggregate) and the hot path
    # (run_workload, memoized by bench_workload) give the same bits
    if factors is not None:
        doc = json.loads(registry.files["constants.json"])
        voltage, overhead = factors
        edits = {
            ("supply_voltage",): doc["supply_voltage"] * voltage,
            ("overheads", "core"): doc["overheads"]["core"] * overhead,
        }
        registry = derive(registry, {"constants.json": edits})
    for tech, row in shipped_rows(registry):
        fan_in = registry.fan_in[tech.fan_in_class]
        for name, spec in registry.workloads.items():
            stages = stage_benches(workload_plan(spec, tech.network_kind, fan_in), row, registry)
            for schedule in ("parallel", "time_multiplexed"):
                assert bench_workload(name, tech, registry, schedule) == aggregate(stages, schedule), (tech.label, name)


# -- the plan cache ----------------------------------------------------------------


def _workloads_reserialized(data_copy, indent: int):
    """A registry whose workloads.json holds the shipped values in other
    bytes, so its specs are not those of any load of the shipped file."""
    file = data_copy / "workloads.json"
    text = file.read_text()
    file.write_text(json.dumps(json.loads(text), indent=indent))
    assert file.read_text() != text
    return load_datasets(data_copy)


def test_value_equal_specs_from_two_loads_share_plans_and_results(registry, data_copy):
    # two byte contents that no other test loads, so their specs are other objects
    first, second = _workloads_reserialized(data_copy, indent=3), _workloads_reserialized(data_copy, indent=4)
    elem = element(a_syn=3.7, t_syn=1.3, e_syn=0.7)
    for name, spec in registry.workloads.items():
        a, b = first.workload(name), second.workload(name)
        assert a is not b and a == b == spec
        for kind, fan_in in (("ANN", None), ("SNN", 16), ("ANN", 1)):
            assert workload_plan(a, kind, fan_in) is workload_plan(b, kind, fan_in)
            results = [run_workload(s, elem, registry, network_kind=kind, fan_in=fan_in) for s in (a, b, spec)]
            assert results[0] == results[1] == results[2] == oracle(spec, elem, registry.constants, kind, fan_in)


def test_replaced_spec_gets_its_own_plan(registry):
    spec = registry.workload("mnist_mlp")
    elem = element(a_syn=3.7, t_syn=1.3, e_syn=0.7)
    assert len(workload_plan(spec, "ANN", 2)) == 3
    doc = json.loads(registry.files["workloads.json"])
    rows = next(w["layers"] for w in doc["workloads"] if w["name"] == "mnist_mlp")
    shorter = with_layers(registry, rows[:1], name="mnist_mlp")
    wider = with_layers(registry, [{**rows[0], "outputs": 512}, *rows[1:]], name="mnist_mlp")
    assert len(workload_plan(shorter[1], "ANN", 2)) == 1
    assert workload_plan(wider[1], "ANN", 2) != workload_plan(spec, "ANN", 2)
    for reg, s in ((registry, spec), shorter, wider, (registry, spec)):
        assert run_workload(s, elem, reg, fan_in=2) == oracle(s, elem, reg.constants, fan_in=2)


def test_the_plan_cache_holds_every_plan_of_the_shipped_data(registry):
    runs = {(tech.network_kind, registry.fan_in[tech.fan_in_class]) for tech in registry.technologies.values()}
    runs |= {("ANN", registry.fan_in["sequential"]), ("SNN", registry.fan_in["snn"])}  # the chips' runs
    keys = [(spec, kind, fan_in) for spec in registry.workloads.values() for kind, fan_in in runs]
    assert len(keys) == 66
    plans = [workload_plan(*key) for key in keys]
    assert all(workload_plan(*key) is plan for key, plan in zip(keys, plans))  # none evicted


def test_network_kinds_and_fan_ins_never_share_a_plan(registry, data_copy):
    spec = _workloads_reserialized(data_copy, indent=5).workload("lenet")  # equal to the registry's own lenet
    elem = element(a_syn=3.7, t_syn=1.3, e_syn=0.7)
    runs = [(kind, fan_in) for kind in ("ANN", "SNN") for fan_in in (None, 1, 2, 16)]
    for kind, fan_in in runs + runs[::-1]:
        got = run_workload(spec, elem, registry, network_kind=kind, fan_in=fan_in)
        assert got == oracle(spec, elem, registry.constants, kind, fan_in), (kind, fan_in)
    assert len({workload_plan(spec, kind, fan_in) for kind, fan_in in runs}) == len(runs)
