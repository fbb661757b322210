"""Value carriers are NamedTuples: they keep every check and print as before."""

import copy
import json
import math
import pickle
import re

import pytest

from neurobench import FigureError, derive, load_datasets, report, topsdown
from neurobench.ade import ZERO, AdeTriple
from neurobench.chip import ChipBench, ChipConfig, chip_bench, firing_rate, nominal_config
from neurobench.circuits import AnalogReadBench, OtaCellBench, SenseAmpBench, VoltageSenseAmpBench
from neurobench.elements import raw_inputs
from neurobench.interconnect import ElementBench, chip_ic_delay, wiring
from neurobench.report import ScatterPoint
from neurobench.topsdown import BackfillResult, TopsDownElement
from neurobench.workload import StageBench, WorkloadBench, aggregate, cascade, run_workload


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", ["area", "delay", "energy"])
def test_triple_checks_every_route_in(name, bad):
    good = AdeTriple(1.0, 2.0, 3.0)
    message = f"AdeTriple.{name} must be finite and >= 0, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AdeTriple(**{**good._asdict(), name: bad})
    with pytest.raises(ValueError, match=f"AdeTriple.{name} must be"):
        good._replace(**{name: bad})
    with pytest.raises(ValueError, match=f"AdeTriple.{name} must be"):
        AdeTriple._make(bad if f == name else 1.0 for f in AdeTriple._fields)


@pytest.mark.parametrize("name", ["area", "delay", "energy"])
def test_triple_scaled_rejects_a_negative_ratio(name):
    triple = AdeTriple(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="^scaling ratios must be non-negative$"):
        triple.scaled(**{name: -0.5})
    assert triple.scaled(**{name: 0.0}) == triple._replace(**{name: 0.0})


def test_triple_rejects_a_sum_that_overflows():
    big = AdeTriple(1e308, 0.0, 0.0)
    with pytest.raises(ValueError, match="AdeTriple.area must be finite"):
        big + big


def test_triple_adds_component_wise_and_never_repeats():
    a, b = AdeTriple(1.0, 2.0, 3.0), AdeTriple(10.0, 20.0, 30.0)
    total = a + b
    assert type(total) is AdeTriple and total == AdeTriple(11.0, 22.0, 33.0)
    assert a + ZERO == a
    assert a._replace(delay=5.0) == AdeTriple(1.0, 5.0, 3.0) and type(a._replace()) is AdeTriple
    for product in (lambda: a * 2, lambda: 2 * a, lambda: a * a):
        with pytest.raises(TypeError, match="no scalar multiplication"):
            product()


@pytest.mark.parametrize(
    "value, text",
    [
        (AdeTriple(1.0, 2.5, 0.0), "AdeTriple(area=1.0, delay=2.5, energy=0.0)"),
        (
            SenseAmpBench(1.0, 2.0, 3.0, 4.0, 5.0),
            "SenseAmpBench(area=1.0, transconductance=2.0, load_cap=3.0, delay=4.0, energy=5.0)",
        ),
        (
            VoltageSenseAmpBench(1.0, 2.0, 3.0, 4.0, 5.0),
            "VoltageSenseAmpBench(area=1.0, sense_cap=2.0, bitline_cap=3.0, delay=4.0, energy=5.0)",
        ),
        (
            AnalogReadBench(1.0, 2.0, 3.0, 4.0, 5.0),
            "AnalogReadBench(area=1.0, column_voltage=2.0, delay=3.0, power=4.0, energy=5.0)",
        ),
        (
            OtaCellBench(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
            "OtaCellBench(cell_cap=1.0, subthreshold_swing=2.0, bias_current=3.0, output_conductance=4.0, "
            "effective_resistance=5.0, opamp_current=6.0, ota_current=7.0)",
        ),
        (
            ChipBench(8, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
            "ChipBench(total_synapses=8, area=1.0, firing_rate=2.0, time_step=3.0, energy_per_event=4.0, "
            "syn_throughput=5.0, power=6.0, energy_per_step=7.0)",
        ),
        (
            WorkloadBench(1.0, 2.0, 3.0, "parallel"),
            "WorkloadBench(area=1.0, delay=2.0, energy=3.0, schedule='parallel')",
        ),
        (
            TopsDownElement(1.0, 2.0, 3.0, 4.0, 5.0),
            "TopsDownElement(neuron_area=1.0, synapse_area=2.0, synapse_delay=3.0, synapse_energy=4.0, "
            "neuron_energy=5.0)",
        ),
        (
            BackfillResult(None, {"power": "p"}, {"t": 0.5}),
            "BackfillResult(chip=None, filled={'power': 'p'}, residuals={'t': 0.5})",
        ),
        (ScatterPoint("ME", 1.0, 2.0, "ANN"), "ScatterPoint(label='ME', x=1.0, y=2.0, series='ANN')"),
    ],
)
def test_carrier_repr_is_unchanged(value, text):
    # the text the same fields gave as a frozen dataclass
    assert repr(value) == text


def test_element_row_totals_are_computed_when_read():
    syn, neu, core, chip = AdeTriple(1.0, 2.0, 3.0), AdeTriple(4.0, 5.0, 6.0), AdeTriple(0.5, 0.5, 0.5), ZERO
    row = ElementBench(synapse=syn, neuron=neu, core_ic=core, chip_ic=chip)
    assert row.synapse_total == AdeTriple(1.5, 2.5, 3.5)
    assert row.neuron_total is neu  # a ZERO wire adds nothing
    assert repr(row) == f"ElementBench(synapse={syn!r}, neuron={neu!r}, core_ic={core!r}, chip_ic={chip!r})"
    assert row._replace(core_ic=ZERO).synapse_total is syn


def test_element_row_make_and_replace_build_both_totals_again():
    syn, neu, wire = AdeTriple(1.0, 2.0, 3.0), AdeTriple(4.0, 5.0, 6.0), AdeTriple(0.5, 0.5, 0.5)
    row = ElementBench(syn, neu)
    assert (row.synapse_total, row.neuron_total) == (syn, neu)
    wired = row._replace(core_ic=wire, chip_ic=wire)
    assert wired.synapse_total == AdeTriple(1.5, 2.5, 3.5)
    assert wired.neuron_total == AdeTriple(4.5, 5.5, 6.5)
    made = ElementBench._make((neu, syn, wire, ZERO))
    assert made.synapse_total == AdeTriple(4.5, 5.5, 6.5) and made.neuron_total is syn
    assert made._replace(chip_ic=wire).neuron_total == AdeTriple(1.5, 2.5, 3.5)
    assert ElementBench._fields == ("synapse", "neuron", "core_ic", "chip_ic")
    assert wired._asdict() == {"synapse": syn, "neuron": neu, "core_ic": wire, "chip_ic": wire}
    assert copy.copy(wired) == wired and pickle.loads(pickle.dumps(wired)) == wired
    with pytest.raises(ValueError, match="synapse_total"):
        row._replace(synapse_total=syn)


def test_element_rows_are_equal_exactly_when_their_four_triples_are():
    a, b, c, d = (AdeTriple(x, x + 1.0, x + 2.0) for x in (1.0, 2.0, 3.0, 4.0))
    row = ElementBench(a, b, c, d)
    assert row == ElementBench(synapse=a, neuron=b, core_ic=c, chip_ic=d)
    assert hash(row) == hash(ElementBench(a, b, c, d))
    assert ElementBench(a, b) == ElementBench(a, b, AdeTriple(0.0, 0.0, 0.0), AdeTriple(0.0, 0.0, 0.0))
    for changed in ({"synapse": d}, {"neuron": c}, {"core_ic": b}, {"chip_ic": a}):
        assert row != row._replace(**changed)


def test_element_rows_are_exactly_their_four_triples(registry):
    derived = derive(registry, {"constants.json": {("supply_voltage",): 0.83, ("wire_pitch_f",): 8.5}})
    for reg in (registry, derived):
        for tech in reg.enumerate_technologies():
            row = report.bench_technology(tech, reg)
            syn, neu, core, chip = row
            assert len(row) == 4 and tuple(row) == (syn, neu, core, chip)
            assert (syn, neu, core, chip) == (row.synapse, row.neuron, row.core_ic, row.chip_ic)
            assert ElementBench(*row) == row
            loaded = json.loads(json.dumps(row))
            assert len(loaded) == 4 and ElementBench(*(AdeTriple(*t) for t in loaded)) == row, tech.label


def test_chip_figures_that_overflow_raise():
    constants = load_datasets().constants
    elem = ElementBench(synapse=AdeTriple(1.0, 1.0, 1e303), neuron=AdeTriple(1.0, 1.0, 1.0))
    message = r"^chip figures must be finite: ChipBench\(total_synapses=4194304, .*power=inf"
    with pytest.raises(ValueError, match=message):
        chip_bench(nominal_config(constants), elem, constants)


def test_element_row_totals_that_overflow_raise_where_they_are_read(registry):
    constants = registry.constants
    big = AdeTriple(1.0, 1.0, 1e308)
    row = ElementBench(synapse=big, neuron=AdeTriple(1.0, 1.0, 1.0), core_ic=big)  # builds: no total is stored
    assert len(row) == 4
    with pytest.raises(ValueError, match=r"^AdeTriple\.energy must be finite and >= 0, got inf$"):
        row.synapse_total
    message = r"^chip figures must be finite: ChipBench\(total_synapses=4194304, .*power=inf"
    with pytest.raises(ValueError, match=message):
        chip_bench(nominal_config(constants), row, constants)
    with pytest.raises(ValueError, match=r"^workload figures must be finite: WorkloadBench\(.*energy=inf"):
        run_workload(registry.workload("lenet"), row, registry)
    slow = ElementBench(AdeTriple(1.0, 1e308, 1.0), AdeTriple(1.0, 1.0, 1.0), AdeTriple(1.0, 1e308, 1.0))
    with pytest.raises(ValueError, match=r"^firing rate undefined for synapse delay inf$"):
        chip_bench(nominal_config(constants), slow, constants)


@pytest.mark.parametrize(
    "file, edits, field",
    [
        ("constants.json", {("supply_voltage",): 1e200}, "energy"),
        # the digital neuron and its sense amps, each 8 adder delays (1.2e308 ps), sum to inf
        ("circuit_primitives.json", {("families", "digital_cmos", "add1", "delay"): 1.5e307}, "delay"),
    ],
    ids=["supply", "adder delay"],
)
def test_an_element_row_that_overflows_names_its_technology(registry, file, edits, field):
    derived = derive(registry, {file: edits})
    tech = derived.technology("ANNDCSRAM")
    message = rf"^technology ANNDCSRAM: AdeTriple\.{field} must be finite and >= 0, got inf$"
    for cfg in (None, None, nominal_config(derived.constants)):  # the nominal row twice, then an explicit config
        with pytest.raises(ValueError, match=message):
            report.bench_technology(tech, derived, cfg)
    assert ("row", "ANNDCSRAM") not in derived._memo  # the raw element raised, so neither key is stored
    assert ("raw element", *raw_inputs(tech)) not in derived._memo


def test_topsdown_figures_that_overflow_raise():
    edits = {("chips", "Loihi", "energy_per_event"): 1e301}  # pJ: 1e307 aJ
    registry = derive(load_datasets(), {"chips_neuromorphic.json": edits})
    chip = registry.chip("Loihi")
    message = r"^chip Loihi: tops-down neuron_energy inf is not finite$"
    with pytest.raises(ValueError, match=message):
        topsdown.topsdown_element(chip, registry)


def test_workload_figures_that_overflow_raise():
    stages = [StageBench(1e308, 1.0, 1.0, 2)]
    with pytest.raises(ValueError, match=r"^workload figures must be finite: WorkloadBench\(area=inf, delay=1.0"):
        aggregate(stages, "parallel")


def test_figure_checks_raise_figure_error_and_argument_checks_a_plain_value_error(registry):
    # a FigureError is a figure the model cannot form from loaded data; the
    # loader or argparse rules out every plain ValueError before the CLI runs
    constants, cfg = registry.constants, nominal_config(registry.constants)
    unfired = ElementBench(AdeTriple(1.0, 0.0, 1.0), AdeTriple(1.0, 1.0, 1.0))
    hot = ElementBench(synapse=AdeTriple(1.0, 1.0, 1e303), neuron=AdeTriple(1.0, 1.0, 1.0))
    loihi = derive(registry, {"chips_neuromorphic.json": {("chips", "Loihi", "energy_per_event"): 1e301}})
    figures = [
        lambda: AdeTriple(-1.0, 0.0, 0.0),
        lambda: firing_rate(cfg, unfired),
        lambda: chip_bench(cfg, hot, constants),
        lambda: chip_ic_delay(1e6, 0.0, 0.8, wiring(constants)),
        lambda: aggregate([StageBench(1e308, 1.0, 1.0, 2)], "parallel"),
        lambda: topsdown.topsdown_element(loihi.chip("Loihi"), loihi),
        lambda: report._point("ANNDCSRAM", math.inf, 1.0, "ANN"),
    ]
    no_onn = derive(registry, {"technologies.json": {("oscillators",): []}})
    arguments = [
        lambda: AdeTriple(1.0, 1.0, 1.0).scaled(area=-1.0),
        lambda: ChipConfig(0, 1, 1),
        lambda: ChipConfig(1, 1, 1, 2.0),
        lambda: cascade(0, 4),
        lambda: aggregate([], "both"),
        lambda: report.geometric_mean_neuron_delay(no_onn, "ONN"),
    ]
    for expected, calls in ((FigureError, figures), (ValueError, arguments)):
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is expected, str(exc.value)
