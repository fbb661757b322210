"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Ratio and consistency checks are anchored to the published
reference tables; the golden regression pins this package's calibrated
defaults (the reference matrix itself is not reproducible from the printed
model alone, see README)."""

import json
import math
import time
from pathlib import Path

import pytest

from neurobench import load_datasets, report
from neurobench.chip import chip_bench, nominal_config
from neurobench.topsdown import topsdown_element
from neurobench.workload import cascade, run_workload, workload_plan

GOLDEN = Path(__file__).parent / "golden" / "golden.json"


@pytest.fixture(scope="module")
def registry():
    return load_datasets()


@pytest.fixture(scope="module")
def matrix(registry):
    return {t.label: report.bench_technology(t, registry) for t in registry.enumerate_technologies()}


def verdict(number, ok, detail):
    line = f"criterion {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_01_oscillator_area_ratios(matrix):
    base = matrix["ANNAnCAnC"]
    osc = matrix["OscMOSring"]
    syn_ratio = osc.synapse.area / base.synapse.area
    neu_ratio = osc.neuron.area / base.neuron.area
    ok = abs(syn_ratio - 10.0) / 10.0 < 0.005 and abs(neu_ratio - 30.0) / 30.0 < 0.005
    verdict(1, ok, f"ring-oscillator area ratios syn={syn_ratio:.4f} (10) neu={neu_ratio:.4f} (30)")


def test_criterion_02_cellular_area_ratios(registry, matrix):
    factor = registry.constants.cnn_synapse_factor
    worst = 0.0
    for tech in registry.enumerate_technologies("CNN"):
        ann = matrix.get("ANN" + tech.combo)
        cnn = matrix[tech.label]
        ratio = cnn.synapse.area / ann.synapse.area
        worst = max(worst, abs(ratio - factor) / factor)
        assert cnn.neuron.area == ann.neuron.area, tech.label
    verdict(2, worst < 0.01, f"cellular synapse area = {factor}x across all rows (worst {worst:.2e}); neuron areas equal")


def test_criterion_03_spiking_areas_equal(registry, matrix):
    checked = 0
    for tech in registry.enumerate_technologies("SNN"):
        ann = matrix["ANN" + tech.combo]
        snn = matrix[tech.label]
        assert snn.synapse.area == ann.synapse.area, tech.label
        assert snn.neuron.area == ann.neuron.area, tech.label
        checked += 1
    verdict(3, checked == 15, f"spiking synapse/neuron areas equal the base rows for {checked} technologies")


def test_criterion_04_truenorth_consistency(registry):
    chip = registry.chip("TrueNorth")
    computed_t = chip.fire_rate * chip.activity * chip.total_synapses
    t_err = abs(computed_t - chip.syn_throughput) / chip.syn_throughput
    computed_p = computed_t * chip.energy_per_event * 1e-18
    p_err = abs(computed_p - chip.power) / chip.power
    ok = t_err < 0.15 and p_err < 0.10
    verdict(4, ok, f"TrueNorth throughput err {t_err:.1%} (<15%), power err {p_err:.1%} (<10%)")


def test_criterion_05_accelerator_energy_identity(registry):
    worst = ("", 0.0)
    rows = 0
    for chip in registry.chips.values():
        if chip.kind != "accelerator" or chip.power is None or chip.syn_throughput is None:
            continue
        derived = chip.power / chip.syn_throughput * 1e18  # aJ
        err = abs(derived - chip.energy_per_event) / chip.energy_per_event
        if err > worst[1]:
            worst = (chip.name, err)
        rows += 1
        assert err < 0.05, (chip.name, err)
    verdict(5, rows >= 15, f"P/T matches the quoted event energy on {rows} accelerators (worst {worst[0]} {worst[1]:.1%})")


def test_criterion_06_network_kind_delay_ordering(registry):
    means = {k: report.geometric_mean_neuron_delay(registry, k) for k in ("ANN", "ONN", "CNN", "SNN")}
    ok = means["ANN"] < means["ONN"] < means["CNN"] < means["SNN"]
    verdict(6, ok, "geometric-mean neuron delay " + " < ".join(f"{k}={means[k]:.0f}ps" for k in ("ANN", "ONN", "CNN", "SNN")))


def test_criterion_07_cascade_oracle_sweep():
    def oracle(fan_in, s_neu):
        levels, level_nodes, total = 1, 1, 1
        while fan_in**levels < s_neu:
            levels += 1
            level_nodes *= fan_in
            total += level_nodes
        return levels, total

    start = time.monotonic()
    for fan_in in range(2, 65):
        for s_neu in range(1, 4097):
            assert cascade(fan_in, s_neu) == oracle(fan_in, s_neu), (fan_in, s_neu)
    elapsed = time.monotonic() - start
    verdict(7, elapsed < 5.0, f"cascade matches the tree oracle on 63x4096 inputs in {elapsed:.2f}s")


def test_criterion_08_workload_operation_count(registry):
    dims = [784, 256, 128, 10]
    expected = sum(a * b for a, b in zip(dims, dims[1:]))
    spec = registry.workload("mnist_mlp")
    ops = sum(stage.active_synapses * stage.f_st for stage in workload_plan(spec, "ANN", 2))
    from neurobench.ade import AdeTriple
    from neurobench.interconnect import ElementBench

    zero = AdeTriple(0.0, 0.0, 0.0)
    elem = ElementBench(
        synapse=AdeTriple(1.0, 1.0, 7.0), core_ic=zero, neuron=AdeTriple(1.0, 1.0, 0.0), chip_ic=zero
    )
    bench = run_workload(spec, elem, registry, fan_in=2)
    ok = expected == 234_752 and ops == expected and bench.energy == pytest.approx(7.0 * expected, rel=1e-12)
    verdict(8, ok, f"digit-recognition MLP ops = {expected}; energy with zero neuron term = E_syn * ops exactly")


def test_criterion_09_unit_self_consistency(registry):
    c = registry.constants
    implied = c.ic_res_per_length * c.min_ic_length * 1e-9
    r_err = abs(implied - c.min_ic_resistance) / c.min_ic_resistance
    spike = c.ic_cap_per_length * 15e-3 * 1.0  # J at 1 V over 15 mm
    s_err = abs(spike - 8e-12) / 8e-12
    ok = r_err < 0.02 and s_err < 0.10
    verdict(9, ok, f"wire resistance self-consistency {r_err:.1%} (<2%); 15mm spike energy vs 8pJ {s_err:.1%} (<10%)")


def test_criterion_10_golden_regression(registry, matrix):
    golden = json.loads(GOLDEN.read_text())
    drift = 0

    def close(a, b):
        return a == pytest.approx(b, rel=1e-9, abs=1e-12)

    assert set(golden["elements"]) == set(matrix)
    for label, columns in golden["elements"].items():
        assert all(close(a, b) for a, b in zip(matrix[label].columns(), columns)), label
    for label, expected in golden["nominal_chip"].items():
        tech = registry.technology(label)
        cfg = nominal_config(registry.constants, spiking=tech.network_kind == "SNN")
        bench = chip_bench(cfg, matrix[label], registry.constants)
        for field, value in expected.items():
            assert close(getattr(bench, field), value), (label, field)
    for name, per_tech in golden["workloads"].items():
        for label, expected in per_tech.items():
            bench = report.bench_workload(name, registry.technology(label), registry)
            assert bench.schedule == expected["schedule"]
            for field in ("area", "delay", "energy"):
                assert close(getattr(bench, field), expected[field]), (name, label, field)
    count = len(golden["elements"]) + len(golden["nominal_chip"]) + sum(map(len, golden["workloads"].values()))
    verdict(10, True, f"{count} pinned benchmarks reproduced to 1e-9 relative")


def test_criterion_11_speech_workload_exploratory(registry):
    comparison = report.speech_comparison(registry)
    for name, v in comparison.items():
        print(
            f"  {name}: computed {v['computed_inferences_per_s']:.3g} inf/s vs published "
            f"{v['published_inferences_per_s']:.3g} (ratio {v['rate_ratio']:.3g}); "
            f"computed {v['computed_energy_per_inference_uJ']:.3g} uJ vs published "
            f"{v['published_energy_per_inference_uJ']:.3g} (ratio {v['energy_ratio']:.3g})"
        )
    ok = all(
        v["computed_inferences_per_s"] > 0 and v["computed_energy_per_inference_uJ"] > 0
        for v in comparison.values()
    )
    verdict(11, ok, "speech-workload estimates reported beside measurements (non-gating, ratios above)")
