
import json

import pytest
from hypothesis import given, strategies as st

from neurobench import cli, derive, load_datasets, report
from neurobench.ade import AdeTriple
from neurobench.chip import ChipBench, ChipConfig, area_terms, chip_area, chip_bench, firing_rate, nominal_config
from neurobench.interconnect import ElementBench
from neurobench.registry import UnknownNameError

ZERO = AdeTriple(0.0, 0.0, 0.0)


def element(a_syn=100.0, t_syn=10.0, e_syn=5.0, a_neu=300.0, t_neu=20.0, e_neu=7.0):
    return ElementBench(
        synapse=AdeTriple(a_syn, t_syn, e_syn), core_ic=ZERO,
        neuron=AdeTriple(a_neu, t_neu, e_neu), chip_ic=ZERO,
    )


def test_power_unit_pinning():
    # 1 aJ / 1 ps = 1e-18 J / 1e-12 s = 1e-6 W
    from neurobench import units

    assert units.W_PER_AJ_PER_PS == 1e-6


def overheads(registry, value):
    """The constants of `registry` with all four layout overheads at `value`."""
    edits = {("overheads", k): value for k in ("synapse", "neuron", "core", "chip")}
    return derive(registry, {"constants.json": edits}).constants


def test_chip_area_unit_factors(registry):
    flat = overheads(registry, 1.0)
    cfg = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=1)
    assert chip_area(area_terms(cfg, flat), 300.0, 100.0) == pytest.approx(400.0)


def test_chip_area_overhead_nesting(registry):
    cfg = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=1)
    flat, doubled = overheads(registry, 1.0), overheads(registry, 2.0)
    # chip, core, and element overheads nest: 2 * 2 * 2 = 8x for fixed inner term
    flat_area = chip_area(area_terms(cfg, flat), 1.0, 1.0)
    assert chip_area(area_terms(cfg, doubled), 1.0, 1.0) == pytest.approx(8 * flat_area)


def test_firing_rate_nonspiking_reciprocal():
    cfg = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=256)
    elem = element(t_syn=897.31)
    assert firing_rate(cfg, elem) == pytest.approx(1.0 / 897.31)


def test_firing_rate_spiking_ratio():
    elem = element(t_syn=897.31)
    plain = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=256, activity=0.5)
    spiking = plain._replace(spiking=True)
    assert firing_rate(plain, elem) / firing_rate(spiking, elem) == pytest.approx(128.0)


def test_firing_rate_degenerate_spiking_equals_nonspiking():
    elem = element()
    cfg = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=1, activity=1.0)
    assert firing_rate(cfg, elem) == firing_rate(cfg._replace(spiking=True), elem)


def test_truenorth_shaped_throughput(constants):
    # 4096 cores x 256 neurons x 256 synapses at 20 Hz and half activity:
    # within 12% of the 3000 MSOPS the chip quotes
    cfg = ChipConfig(cores=4096, neurons_per_core=256, synapses_per_neuron=256, activity=0.5, spiking=True)
    tau_syn_ps = 1.0 / (20.0 * 0.5 * 256) * 1e12  # event period from 20 Hz firing
    bench = chip_bench(cfg, element(t_syn=tau_syn_ps), constants)
    assert bench.syn_throughput_per_s == pytest.approx(20 * 0.5 * 268_435_456)
    assert abs(bench.syn_throughput_per_s - 3.0e9) / 3.0e9 < 0.12


def test_truenorth_shaped_power(constants):
    cfg = ChipConfig(cores=4096, neurons_per_core=256, synapses_per_neuron=256, activity=0.5, spiking=True)
    tau_syn_ps = 1.0 / (20.0 * 0.5 * 256) * 1e12
    e_syn_aj = 26e6  # 26 pJ
    bench = chip_bench(cfg, element(t_syn=tau_syn_ps, e_syn=e_syn_aj, e_neu=0.0), constants)
    watts = bench.syn_throughput_per_s * 26e-12
    assert watts == pytest.approx(0.0698, rel=0.01)
    assert abs(watts - 0.072) / 0.072 < 0.10


def test_energy_per_event_degenerate():
    constants = load_datasets().constants
    cfg = ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=1, activity=1.0)
    bench = chip_bench(cfg, element(e_syn=5.0, e_neu=7.0), constants)
    assert bench.energy_per_event == pytest.approx(12.0)


@given(
    cores=st.integers(1, 4096),
    neurons=st.integers(1, 1024),
    synapses=st.integers(1, 1024),
    activity=st.floats(0.01, 1.0),
    spiking=st.booleans(),
)
def test_power_identity_holds(cores, neurons, synapses, activity, spiking):
    constants = load_datasets().constants
    cfg = ChipConfig(cores, neurons, synapses, activity=activity, spiking=spiking)
    bench = chip_bench(cfg, element(), constants)
    assert bench.power == pytest.approx(bench.syn_throughput * bench.energy_per_event, rel=1e-12)
    assert bench.time_step > element().neuron.delay
    assert bench.total_synapses == cores * neurons * synapses


def test_throughput_linear_in_counts_nonspiking(constants):
    base = ChipConfig(cores=2, neurons_per_core=4, synapses_per_neuron=8)
    b0 = chip_bench(base, element(), constants)
    for field in ("cores", "neurons_per_core", "synapses_per_neuron"):
        grown = base._replace(**{field: getattr(base, field) * 3})
        b1 = chip_bench(grown, element(), constants)
        assert b1.syn_throughput == pytest.approx(3 * b0.syn_throughput), field


def test_throughput_invariant_in_synapses_when_spiking(constants):
    base = ChipConfig(cores=2, neurons_per_core=4, synapses_per_neuron=8, spiking=True, activity=0.5)
    grown = base._replace(synapses_per_neuron=800)
    b0 = chip_bench(base, element(), constants)
    b1 = chip_bench(grown, element(), constants)
    # the synapse count cancels between the firing rate and the synapse total
    assert b1.syn_throughput == pytest.approx(b0.syn_throughput)


def test_nominal_config_values(constants):
    cfg = nominal_config(constants)
    assert (cfg.cores, cfg.neurons_per_core, cfg.synapses_per_neuron) == (64, 256, 256)
    assert cfg.activity == 1.0 and not cfg.spiking


def test_config_validation():
    with pytest.raises(ValueError):
        ChipConfig(cores=0, neurons_per_core=1, synapses_per_neuron=1)
    with pytest.raises(ValueError):
        ChipConfig(cores=1, neurons_per_core=1, synapses_per_neuron=1, activity=0.0)


@pytest.mark.parametrize(
    "changes",
    [{"cores": 0}, {"neurons_per_core": 0}, {"synapses_per_neuron": -1}, {"activity": 0.0}, {"activity": 1.5}],
)
def test_every_route_to_a_config_checks_it(changes):
    good = ChipConfig(cores=2, neurons_per_core=3, synapses_per_neuron=4, activity=0.5)
    bad = {**good._asdict(), **changes}
    for build in (lambda: ChipConfig(**bad), lambda: ChipConfig._make(bad.values()), lambda: good._replace(**changes)):
        with pytest.raises(ValueError):
            build()
    assert type(good._replace(cores=5)) is ChipConfig and good._replace(cores=5).total_synapses == 60
    assert ChipConfig._make(good) == good


# -- position reads against a by-name reference; the nominal chip ---------------


def chip_bench_by_name(cfg, elem, constants):
    syn = elem.synapse_total
    neu = elem.neuron_total
    tau_syn = syn.delay
    f_fire = 1.0 / (cfg.activity * cfg.synapses_per_neuron * tau_syn) if cfg.spiking else 1.0 / tau_syn
    tau_step = 1.0 / f_fire + neu.delay
    e_event = syn.energy + neu.energy / (cfg.activity * cfg.synapses_per_neuron)
    synapses = cfg.total_synapses
    throughput = f_fire * cfg.activity * synapses
    power = throughput * e_event
    area = chip_area(area_terms(cfg, constants), elem.neuron.area, elem.synapse.area)
    return ChipBench(synapses, area, f_fire, tau_step, e_event, throughput, power, power * tau_step)


def bit_equal(got, want):
    """`==`, and every float with the same bits."""
    hexed = lambda bench: [v.hex() if isinstance(v, float) else v for v in bench]  # noqa: E731
    return type(got) is type(want) and got == want and hexed(got) == hexed(want)


def config_files(tmp_path):
    """Two `--config` chips: a small plain one and a spiking one at 30% activity."""
    docs = [
        {"cores": 1, "neurons_per_core": 2, "synapses_per_neuron": 3},
        {"cores": 16, "neurons_per_core": 100, "synapses_per_neuron": 300, "activity": 0.3, "spiking": True},
    ]
    for i, doc in enumerate(docs):
        path = tmp_path / f"chip{i}.json"
        path.write_text(json.dumps(doc))
        yield cli._chip_config(path)


def test_chip_bench_read_by_position_equals_the_by_name_reference(registry, tmp_path):
    configs = list(config_files(tmp_path))
    assert [cfg.spiking for cfg in configs] == [False, True]
    c = registry.constants
    for tech in registry.enumerate_technologies():
        row = report.bench_technology(tech, registry)
        for spiking in (False, True):
            cfg = nominal_config(c, spiking=spiking)
            want = chip_bench_by_name(cfg, row, c)
            assert bit_equal(chip_bench(cfg, row, c), want), tech.label
        for cfg in configs:
            own = report.bench_technology(tech, registry, cfg)
            assert bit_equal(chip_bench(cfg, own, c), chip_bench_by_name(cfg, own, c)), tech.label


def test_bench_chip_is_the_nominal_chip_of_each_technology(registry):
    c = registry.constants
    for tech in registry.enumerate_technologies():
        cfg = nominal_config(c, spiking=tech.network_kind == "SNN")
        bench = report.bench_chip(tech, registry)
        assert bit_equal(bench, chip_bench_by_name(cfg, report.bench_technology(tech, registry), c)), tech.label
    tech = registry.technology("SpiMEME")
    assert report.bench_chip(tech._replace(), registry) == report.bench_chip(tech, registry)  # an equal record
    with pytest.raises(UnknownNameError, match="derive"):
        report.bench_chip(tech._replace(ic_voltage=0.5), registry)


def test_bench_chip_nominal_calls_bench_chip(monkeypatch, capsys):
    calls = []
    original = report.bench_chip
    monkeypatch.setattr(report, "bench_chip", lambda tech, registry: calls.append(tech.label) or original(tech, registry))
    assert cli.main(["bench", "chip", "--nominal", "--tech", "SpiDCSRAM"]) == 0
    assert calls == ["SpiDCSRAM"] and capsys.readouterr().out.startswith("total_synapses: ")
