import json
from pathlib import Path

import pytest

from conftest import BACKFILL_BREAKS
from neurobench import derive
from neurobench.registry import ChipRecord
from neurobench.topsdown import (
    POWER_IDENTITY,
    IncomputableError,
    backfill_derived,
    run_workload_on_chip,
    topsdown_element,
)


def test_truenorth_synapse_area(registry):
    # oracle: 95% of 430 mm^2 spread over 4096*256*256 synapses
    chip = registry.chip("TrueNorth")
    expected = 0.95 * 430e12 / (4096 * 256 * 256)
    element = topsdown_element(chip, registry)
    assert element.synapse_area == pytest.approx(expected)
    assert element.synapse_area == pytest.approx(1.5218e6, rel=1e-3)  # nm^2


def test_truenorth_neuron_energy(registry):
    # 26 pJ * 0.5 activity * 256 synapses = 3328 pJ
    element = topsdown_element(registry.chip("TrueNorth"), registry)
    assert element.neuron_energy == pytest.approx(3328e6)  # aJ


def test_truenorth_synapse_delay_from_fire_rate(registry):
    element = topsdown_element(registry.chip("TrueNorth"), registry)
    # inverted spiking rate: 1/(20 Hz * 0.5 * 256)
    assert element.synapse_delay == pytest.approx(1.0 / (20 * 0.5 * 256) * 1e12)


def test_neuron_energy_identity_for_all_computable_records(registry):
    for chip in registry.chips.values():
        if chip.kind != "neuromorphic":
            continue
        try:
            element = topsdown_element(chip, registry)
        except IncomputableError:
            continue
        assert element.neuron_energy / element.synapse_energy == pytest.approx(
            chip.activity * chip.synapses_per_neuron
        )


def test_area_split_proportion(registry):
    for chip in registry.chips.values():
        try:
            element = topsdown_element(chip, registry)
        except IncomputableError:
            continue
        ratio = element.neuron_area / (element.synapse_area * chip.synapses_per_neuron)
        assert ratio == pytest.approx(0.05 / 0.95)


def test_missing_area_is_named(registry):
    with pytest.raises(IncomputableError, match="area"):
        topsdown_element(registry.chip("SpiNNaker 2"), registry)


def test_accelerator_energy_from_power_over_throughput(registry):
    eyeriss = topsdown_element(registry.chip("Eyeriss"), registry)
    assert eyeriss.synapse_energy == pytest.approx(8.3e6, rel=0.05)  # pJ scale in aJ
    tpu = topsdown_element(registry.chip("TPU"), registry)
    assert tpu.synapse_energy == pytest.approx(3.5e6, rel=0.05)


def test_accelerator_time_step_is_clock(registry):
    eyeriss = topsdown_element(registry.chip("Eyeriss"), registry)
    assert eyeriss.synapse_delay == pytest.approx(1e12 / 200e6)  # 200 MHz in ps


def without(registry, chip, *fields):
    """`registry` derived with the accelerator `chip` lacking `fields`, and that chip."""
    derived = derive(registry, {"chips_accelerators.json": {("chips", chip, f): None for f in fields}})
    return derived, derived.chip(chip)


def test_accelerator_missing_clock(registry):
    derived, chip = without(registry, "Eyeriss", "clock")
    with pytest.raises(IncomputableError, match="clock"):
        topsdown_element(chip, derived)


def test_accelerator_missing_energy_sources(registry):
    derived, chip = without(registry, "Eyeriss", "power", "syn_throughput", "energy_per_event")
    with pytest.raises(IncomputableError, match="energy_per_event"):
        topsdown_element(chip, derived)


# -- back-fill -----------------------------------------------------------------


def test_backfill_spinnaker_activity(registry):
    result = backfill_derived(registry.chip("SpiNNaker"))
    assert result.chip.activity == pytest.approx(0.4, rel=0.05)
    assert "activity" in result.filled
    assert result.chip.energy_per_event == pytest.approx(16000e6, rel=0.05)


def test_backfill_never_overwrites_quoted(registry):
    chip = registry.chip("SpiNNaker")
    result = backfill_derived(chip)
    for field in ("power", "syn_throughput", "fire_rate", "area"):
        assert getattr(result.chip, field) == getattr(chip, field)


def test_backfill_truenorth_is_noop_with_small_residual(registry):
    chip = registry.chip("TrueNorth")
    result = backfill_derived(chip)
    assert result.chip == chip
    assert not result.filled
    assert all(r < 0.15 for r in result.residuals.values())


def test_backfill_idempotent(registry):
    first = backfill_derived(registry.chip("Loihi"))
    second = backfill_derived(first.chip)
    assert second.chip == first.chip


def test_backfill_under_determined(registry):
    with pytest.raises(IncomputableError, match="under-determined"):
        backfill_derived(registry.chip("DYNAPSEL"))


def test_backfill_synapse_fire_rate(registry):
    result = backfill_derived(registry.chip("SynAPSE"))
    # throughput / (activity * synapses): 15 MSOPS over 576*128
    assert result.chip.fire_rate == pytest.approx(15e6 / (576 * 128), rel=1e-6)
    assert result.chip.fire_rate == pytest.approx(203, rel=0.01)


def test_backfilled_activity_above_one_is_rejected(registry):
    chip = registry.chip("IFAT")
    inflated = chip._replace(syn_throughput=20 * chip.syn_throughput)
    with pytest.raises(IncomputableError, match=r"chip IFAT: back-filled activity 2\.17557 lies outside \(0, 1\]"):
        backfill_derived(inflated)


def test_backfill_accelerator_throughput_from_the_power_identity(registry):
    # Diannao with its throughput flagged instead of its event energy: 0.485 W over 1.1 pJ per MAC
    edits = {("chips", "Diannao", "derived"): ["syn_throughput"]}
    chip = derive(registry, {"chips_accelerators.json": edits}).chip("Diannao")
    result = backfill_derived(chip)
    assert dict(result.filled) == {"syn_throughput": POWER_IDENTITY}
    assert not result.residuals  # an accelerator has only the power identity, and the solve consumed it
    assert result.chip == chip._replace(syn_throughput=440909090909.0908)
    assert result.chip.syn_throughput == 0.485 / (1.1e6 * 1e-18)


@pytest.mark.parametrize("name, file, field, value, message", BACKFILL_BREAKS)
def test_backfill_rejects_a_value_that_is_not_finite_and_positive(registry, name, file, field, value, message):
    chip = derive(registry, {file: {("chips", name, field): value}}).chip(name)
    with pytest.raises(IncomputableError) as err:
        backfill_derived(chip)
    assert str(err.value) == message


def test_a_residual_over_a_product_that_underflows_to_zero_is_rejected(registry):
    chip = registry.chip("TrueNorth")._replace(syn_throughput=10.0, energy_per_event=1e-314)  # power's product is 0
    with pytest.raises(IncomputableError) as err:
        backfill_derived(chip)
    assert str(err.value) == "chip TrueNorth: residual inf of power = throughput * event_energy is not finite"


# -- the back-fill cache -----------------------------------------------------------


def test_equal_chips_share_one_backfill_result(registry):
    chip = registry.chip("SpiNNaker")
    result = backfill_derived(chip)
    for equal in (derive(registry, {}).chip("SpiNNaker"), ChipRecord(*chip)):
        assert equal == chip
        assert backfill_derived(equal) is result


def test_a_backfill_result_is_read_only(registry):
    filled = backfill_derived(registry.chip("SpiNNaker")).filled
    residuals = backfill_derived(registry.chip("TrueNorth")).residuals
    assert filled and residuals
    with pytest.raises(TypeError):
        filled["power"] = "guessed"
    with pytest.raises(TypeError):
        residuals[next(iter(residuals))] = 0.0


def test_an_incomputable_chip_raises_on_every_call_and_is_not_cached(registry):
    chip = registry.chip("DYNAPSEL")
    before = backfill_derived.cache_info()
    for _ in range(3):
        with pytest.raises(IncomputableError, match="under-determined"):
            backfill_derived(chip)
    after = backfill_derived.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (0, 3)
    assert after.currsize == before.currsize


def test_a_derived_chip_gets_the_result_of_its_value(registry):
    chip = derive(registry, {"chips_neuromorphic.json": {("chips", "SpiNNaker", "power"): 1300}}).chip("SpiNNaker")
    assert chip != registry.chip("SpiNNaker")
    result = backfill_derived(chip)
    assert result == backfill_derived.__wrapped__(chip)
    assert result != backfill_derived(registry.chip("SpiNNaker"))


def test_the_backfill_cache_holds_every_chip_of_the_shipped_data(registry):
    chips = [chip for chip in registry.chips.values() if chip.name != "DYNAPSEL"]  # the one incomputable chip
    assert len(chips) == 26
    results = [backfill_derived(chip) for chip in chips]
    assert all(backfill_derived(chip) is result for chip, result in zip(chips, results))  # none evicted


# -- workloads on chips -----------------------------------------------------------


def test_loihi_speech_workload_runs(registry):
    bench = run_workload_on_chip(registry.chip("Loihi"), registry.workload("speech_mlp"), registry)
    assert bench.inferences_per_s > 0
    assert bench.energy > 0
    assert bench.schedule == "parallel"


def test_accelerator_runs_time_multiplexed(registry):
    bench = run_workload_on_chip(registry.chip("Myriad 2"), registry.workload("speech_mlp"), registry)
    assert bench.schedule == "time_multiplexed"
    # sequential: first stage pays one clock per synapse
    clock_ps = 1e12 / 800e6
    assert bench.delay == pytest.approx(((390 + 1) + (256 + 1) + (256 + 1)) * clock_ps)


def test_chip_without_area_cannot_run_workloads(registry):
    with pytest.raises(IncomputableError, match="area"):
        run_workload_on_chip(registry.chip("Q4MobilEye"), registry.workload("mnist_mlp"), registry)


# -- golden ------------------------------------------------------------------------

TOPSDOWN_GOLDEN = Path(__file__).parent / "golden" / "topsdown.json"


def test_topsdown_golden(registry):
    """Every chip's tops-down element (or why it is incomputable) and every
    workload on each computable chip, as scripts/make_golden.py wrote them."""
    golden = json.loads(TOPSDOWN_GOLDEN.read_text())
    assert set(golden) == set(registry.chips)
    for name, expected in golden.items():
        chip = registry.chip(name)
        if "error" in expected:
            with pytest.raises(IncomputableError) as err:
                topsdown_element(chip, registry)
            assert str(err.value) == expected["error"]
            continue
        element = topsdown_element(chip, registry)
        for field, value in expected["element"].items():
            assert getattr(element, field) == pytest.approx(value, rel=1e-9), (name, field)
        assert set(expected["workloads"]) == set(registry.workloads)
        for wname, figures in expected["workloads"].items():
            bench = run_workload_on_chip(chip, registry.workload(wname), registry)
            assert bench.schedule == figures["schedule"], (name, wname)
            for field in ("area", "delay", "energy"):
                assert getattr(bench, field) == pytest.approx(figures[field], rel=1e-9), (name, wname, field)
