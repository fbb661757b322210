import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import neurobench
from conftest import BACKFILL_BREAKS, json_leaves, load_new, rewrite_json
from neurobench import DatasetError, cli, derive, interconnect
from neurobench.cli import main
from neurobench.registry import default_data_dir

GOLDEN_CLI = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_devices_list(capsys):
    code, out, _ = run(capsys, "devices", "list")
    assert code == 0
    assert "ME," in out and "OxideR," in out


def test_devices_list_quotes_a_name_as_the_emitters_do(capsys, monkeypatch):
    # no technology references CMOSdig, so the rename loads
    name = 'CMOSdig,"x"'
    derived = derive(neurobench.load_datasets(), {"devices.json": {("devices", "CMOSdig", "name"): name}})
    monkeypatch.setattr(cli, "load_datasets", lambda directory: derived)
    code, out, _ = run(capsys, "devices", "list")
    header, *rows = csv.reader(io.StringIO(out))
    assert code == 0 and len(header) == 6 and all(len(row) == 6 for row in rows)
    assert [row[0] for row in rows] == sorted(derived.devices) and name in derived.devices


def test_bench_element(capsys):
    code, out, _ = run(capsys, "bench", "element", "--tech", "ANNDCSRAM")
    assert code == 0
    assert "delay_syn_ps: 897.31" in out
    assert "area_syn_um2: 2.7648" in out  # area columns convert to um^2


def test_bench_network_kind(capsys):
    code, out, _ = run(capsys, "bench", "network", "--kind", "ONN")
    assert code == 0
    assert out.count("\n") == 1 + 7


def test_bench_chip_nominal(capsys):
    code, out, _ = run(capsys, "bench", "chip", "--nominal", "--tech", "ANNDCSRAM")
    assert code == 0
    assert "total_synapses: 4194304" in out
    assert "power_W" in out


def test_bench_chip_config_file(capsys, tmp_path):
    cfg = tmp_path / "chip.json"
    cfg.write_text(json.dumps({"cores": 1, "neurons_per_core": 2, "synapses_per_neuron": 3}))
    code, out, _ = run(capsys, "bench", "chip", "--config", str(cfg), "--tech", "ANNDCSRAM")
    assert code == 0
    assert "total_synapses: 6" in out


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"cores": 4, "neurons_per_core": 2, "synapses_per_neuron": 3, "bogus": 1}, "'bogus'"),
        ({"cores": 4, "synapses_per_neuron": 3}, "'neurons_per_core'"),
        ({"cores": "x", "neurons_per_core": 2, "synapses_per_neuron": 3}, "cores"),
        ({"cores": 2.5, "neurons_per_core": 2, "synapses_per_neuron": 3}, "cores"),
        ({"cores": 4, "neurons_per_core": 2, "synapses_per_neuron": 3, "spiking": "yes"}, "spiking"),
        ({"cores": 4, "neurons_per_core": 2, "synapses_per_neuron": 3, "activity": True}, "activity"),
        ({"cores": 4, "neurons_per_core": 2, "synapses_per_neuron": 3, "activity": 1.5}, "activity"),
        (b"{not json", "parse failure"),  # raw bytes are written as they are
        (b'\xff{"cores": 4}', "parse failure"),
        (
            {"cores": 4, "neurons_per_core": 1e300, "synapses_per_neuron": 3},
            "neurons_per_core: must be an integer <= 2**53, got 1e+300",
        ),
        ([{"cores": 4, "neurons_per_core": 2, "synapses_per_neuron": 3}], "chip config must be a JSON object"),
    ],
)
def test_bench_chip_config_key_error_is_data_error(capsys, tmp_path, doc, key):
    cfg = tmp_path / "chip.json"
    cfg.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    code, out, err = run(capsys, "bench", "chip", "--config", str(cfg), "--tech", "ANNDCSRAM")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(cfg) in err and key in err


def test_bench_workload(capsys):
    code, out, _ = run(capsys, "bench", "workload", "--name", "mnist_mlp", "--tech", "ANNDCSRAM")
    assert code == 0
    for field in ("area_nm2", "delay_ps", "energy_aJ", "inference_throughput_per_nm2ps"):
        assert field in out


def test_bench_workload_tmux_schedule(capsys):
    code, out, _ = run(
        capsys, "bench", "workload", "--name", "mnist_mlp", "--tech", "ANNDCSRAM", "--schedule", "tmux"
    )
    assert code == 0
    assert "schedule: time_multiplexed" in out


def test_topsdown_chip(capsys):
    code, out, _ = run(capsys, "topsdown", "--chip", "TrueNorth")
    assert code == 0
    assert "synapse_area_nm2: 1.52178e+06" in out
    assert "neuron_energy_aJ: 3.328e+09" in out


def test_topsdown_with_workload(capsys):
    code, out, _ = run(capsys, "topsdown", "--chip", "Loihi", "--workload", "speech_mlp")
    assert code == 0
    assert "inferences_per_s" in out


def test_topsdown_backfill(capsys):
    code, out, _ = run(capsys, "topsdown", "--chip", "SpiNNaker", "--backfill")
    assert code == 0
    assert "filled activity" in out


def test_topsdown_data_error_leaves_stdout_empty(capsys):
    # the back-fill succeeds, then the element needs the unpublished area
    assert run(capsys, "topsdown", "--chip", "Q4MobilEye", "--backfill") == (
        1, "", "error: chip Q4MobilEye: area required but absent\n"
    )


def test_topsdown_backfilled_activity_above_one_is_data_error(capsys, data_copy):
    def inflate(doc):
        next(chip for chip in doc["chips"] if chip["name"] == "IFAT")["syn_throughput"] *= 20

    rewrite_json(data_copy / "chips_neuromorphic.json", inflate)
    argv = ("--data-dir", str(data_copy), "topsdown", "--chip", "IFAT", "--backfill", "--workload", "speech_mlp")
    assert run(capsys, *argv) == (1, "", "error: chip IFAT: back-filled activity 2.17557 lies outside (0, 1]\n")


@pytest.mark.parametrize("name, file, field, value, message", BACKFILL_BREAKS)
@pytest.mark.parametrize("workload", [(), ("--workload", "speech_mlp")])
def test_topsdown_backfill_not_finite_and_positive_is_data_error(
    capsys, data_copy, name, file, field, value, message, workload
):
    def set_value(doc):
        next(chip for chip in doc["chips"] if chip["name"] == name)[field] = value

    rewrite_json(data_copy / file, set_value)
    argv = ("--data-dir", str(data_copy), "topsdown", "--chip", name, "--backfill", *workload)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [("topsdown", "--chip", "HICANN"), ("export", "--what", "matrix", "--scope", "chips", "--out", "{out}")],
)
def test_topsdown_figure_that_overflows_names_chip_and_field(capsys, tmp_path, data_copy, argv):
    def set_value(doc):
        next(chip for chip in doc["chips"] if chip["name"] == "HICANN")["energy_per_event"] = 1e300  # pJ

    rewrite_json(data_copy / "chips_neuromorphic.json", set_value)
    out_path = tmp_path / "x.csv"
    argv = ("--data-dir", str(data_copy), *(str(out_path) if a == "{out}" else a for a in argv))
    assert run(capsys, *argv) == (1, "", "error: chip HICANN: tops-down neuron_energy inf is not finite\n")
    assert not out_path.exists()


def _lenet_feature_maps(count):
    def mutate(doc):
        next(w for w in doc["workloads"] if w["name"] == "lenet")["layers"][0]["feature_maps"] = count

    return mutate


def _chip_value(chip, field, value):
    def mutate(doc):
        next(row for row in doc["chips"] if row["name"] == chip)[field] = value

    return mutate


def _digital_cmos_reg(field, value):
    def mutate(doc):
        doc["families"]["digital_cmos"]["reg"][field] = value

    return mutate


@pytest.mark.parametrize(
    "file, mutate, argv, line",
    [
        pytest.param(
            "constants.json", lambda doc: doc.update(supply_voltage=1e200), ("bench", "element", "--tech", "ANNDCSRAM"),
            "technology ANNDCSRAM: AdeTriple.energy must be finite and >= 0, got inf",
            id="constants.json-<lambda>-argv0",
        ),
        # a count above 2**53 is rejected when loaded, before any product of counts
        pytest.param(
            "constants.json", lambda doc: doc["nominal_chip"].update(cores=1e300),
            ("bench", "chip", "--nominal", "--tech", "ANNDCSRAM"),
            "constants.json: nominal_chip.cores: must be an integer <= 2**53, got 1e+300",
            id="constants.json-<lambda>-argv1",
        ),
        pytest.param(
            "workloads.json", _lenet_feature_maps(1e300),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            "workloads.json: lenet.layers[0].feature_maps: must be an integer <= 2**53, got 1e+300",
            id="workloads.json-_lenet_feature_maps-argv2",
        ),
        pytest.param(
            "workloads.json", _lenet_feature_maps(1e296),
            ("export", "--what", "scatter", "--scatter-kind", "power", "--workload", "lenet"),
            "workloads.json: lenet.layers[0].feature_maps: must be an integer <= 2**53, got 1e+296",
            id="workloads.json-_lenet_feature_maps-export-scatter",
        ),
        # figures that overflow from large per-cell values
        pytest.param(
            "constants.json", lambda doc: doc["overheads"].update(chip=1e300),
            ("bench", "chip", "--nominal", "--tech", "ANNDCSRAM"),
            "technology ANNDCSRAM: AdeTriple.area must be finite and >= 0, got inf",
            id="constants.json:overheads.chip",
        ),
        pytest.param(  # the row is finite, the workload energy is not
            "circuit_primitives.json", _digital_cmos_reg("energy", 1e305),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            "technology ANNDCSRAM, workload lenet: workload figures must be finite: "
            "WorkloadBench(area=24762174931200.0, delay=367432.88488230633, energy=inf, schedule='parallel')",
            id="circuit_primitives.json:families.digital_cmos.reg.energy",
        ),
        pytest.param(
            # area and delay are finite, their product is not: the throughput is 0
            "circuit_primitives.json", _digital_cmos_reg("area", 1e290),
            ("export", "--what", "scatter", "--scatter-kind", "power", "--workload", "lenet"),
            "technology ANNDCSRAM, workload lenet: scatter point ANNDCSRAM: coordinates must be finite and positive",
            id="circuit_primitives.json:families.digital_cmos.reg.area",
        ),
        pytest.param(  # the tops-down element is finite, the workload energy is not
            "chips_neuromorphic.json", _chip_value("Loihi", "energy_per_event", 1e298),  # pJ
            ("topsdown", "--chip", "Loihi", "--workload", "lenet"),
            "chip Loihi, workload lenet: workload figures must be finite: "
            "WorkloadBench(area=8597642898559.57, delay=43402777.777777776, energy=inf, schedule='parallel')",
            id="chips_neuromorphic.json:chips.Loihi.energy_per_event",
        ),
    ],
)
def test_overflowing_figure_is_data_error(capsys, tmp_path, data_copy, file, mutate, argv, line):
    # every input is finite, but a product of them would overflow
    rewrite_json(data_copy / file, mutate)
    out_path = tmp_path / "out.csv"
    if argv[0] == "export":
        argv = (*argv, "--out", str(out_path))
    assert run(capsys, "--data-dir", str(data_copy), *argv) == (1, "", f"error: {line}\n")
    assert not out_path.exists()


def test_chip_figures_that_overflow_name_the_technology(capsys, tmp_path, data_copy):
    constants = neurobench.load_datasets().constants
    config = tmp_path / "nominal.json"
    counts = ("cores", "neurons_per_core", "synapses_per_neuron")
    config.write_text(json.dumps({k: getattr(constants, f"nominal_{k}") for k in counts}))
    rewrite_json(data_copy / "circuit_primitives.json", _digital_cmos_reg("energy", 1e302))
    line = (
        "technology ANNDCSRAM: chip figures must be finite: ChipBench(total_synapses=4194304, area=93783274291200.0, "
        "firing_rate=0.0009920248871133144, time_step=67236.73377137665, energy_per_event=2.4062500000000002e+303, "
        "syn_throughput=4160.853952118923, power=1.001205482228616e+307, energy_per_step=inf)"
    )
    for chip in (("--nominal",), ("--config", str(config))):
        argv = ("--data-dir", str(data_copy), "bench", "chip", *chip, "--tech", "ANNDCSRAM")
        assert run(capsys, *argv) == (1, "", f"error: {line}\n")


def test_export_matrix(capsys, tmp_path):
    out_path = tmp_path / "matrix.csv"
    code, out, _ = run(capsys, "export", "--what", "matrix", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("technology,")
    assert text.count("\n") == 57


def test_export_pareto(capsys, tmp_path):
    out_path = tmp_path / "front.csv"
    code, _, _ = run(capsys, "export", "--what", "pareto", "--out", str(out_path), "--scatter-kind", "neuron")
    assert code == 0
    assert out_path.read_text().startswith("label,")


@pytest.mark.parametrize(
    "argv",
    [
        ("--what", "matrix", "--scope", "workload"),
        ("--what", "scatter", "--scatter-kind", "power"),
        ("--what", "pareto", "--scatter-kind", "workload"),
        ("--what", "scatter", "--scope", "chips"),
        ("--what", "pareto", "--scope", "elements", "--scatter-kind", "neuron"),
        ("--what", "matrix", "--scatter-kind", "power", "--workload", "lenet"),
        ("--what", "matrix", "--scatter-kind", "neuron"),
        ("--what", "matrix", "--workload", "lenet"),
        ("--what", "matrix", "--scope", "elements", "--workload", "lenet"),
        ("--what", "matrix", "--scope", "chips", "--workload", "lenet"),
        ("--what", "scatter", "--workload", "lenet"),
        ("--what", "scatter", "--scatter-kind", "synapse", "--workload", "lenet"),
        ("--what", "pareto", "--scatter-kind", "neuron", "--workload", "lenet"),
    ],
)
def test_export_usage_error(capsys, tmp_path, argv):
    out_path = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["export", *argv, "--out", str(out_path)])
    assert exc.value.code == 2
    assert not out_path.exists()
    assert "export: --" in capsys.readouterr().err


def _subprocess_env():
    """The environment of a fresh interpreter that imports this package and reads the shipped data."""
    env = {k: v for k, v in os.environ.items() if k not in ("NEUROBENCH_DATA_DIR", "PYTHONUNBUFFERED")}
    src = str(Path(neurobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    env = _subprocess_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "neurobench.cli", "bench", "network", "--kind", "ANN"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# a success, a data error and a usage error, each with its exit status
WAYS_OUT = [(["devices", "list"], 0), (["bench", "element", "--tech", "NOLABEL"], 1), (["frobnicate"], 2)]


def _status(entry, *args):
    try:
        return entry(*args)
    except SystemExit as e:  # a usage error
        return e.code


@pytest.mark.parametrize("argv, status", WAYS_OUT)
def test_main_never_freezes_the_collector(capsys, argv, status):
    # tests and scripts call `main` in a process that goes on running and collecting
    before = gc.get_freeze_count()
    assert _status(main, argv) == status
    assert gc.get_freeze_count() == before


def test_the_process_entry_freezes_the_collector_on_every_way_out(capsys, monkeypatch):
    frozen = []
    monkeypatch.setattr(cli, "gc", types.SimpleNamespace(freeze=lambda: frozen.append(True)))
    for argv, status in WAYS_OUT:
        monkeypatch.setattr(sys, "argv", ["neurobench", *argv])
        assert (_status(cli.run), len(frozen)) == (status, 1)
        frozen.clear()

    def bug(args, registry):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "_cmd_devices", bug)
    monkeypatch.setattr(sys, "argv", ["neurobench", "devices", "list"])
    with pytest.raises(RuntimeError):
        cli.run()
    assert len(frozen) == 1


@pytest.mark.parametrize(
    "argv", [["bench", "element", "--tech", "ANNDCSRAM"], *(argv for argv, _ in WAYS_OUT), ["export", "--what", "matrix"]]
)
def test_the_process_entry_answers_as_main_does(capsys, tmp_path, argv):
    out = tmp_path / "matrix.csv"
    if argv[0] == "export":
        argv = [*argv, "--out", str(out)]

    def written():
        return out.read_bytes() if out.exists() else None

    in_process = (_status(main, argv), *capsys.readouterr(), written())
    out.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "neurobench.cli", *argv],
        capture_output=True, text=True, env=_subprocess_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr, written()) == in_process


@pytest.mark.parametrize("command", sorted(GOLDEN_CLI))
def test_cli_stdout_matches_golden(capsys, command):
    assert run(capsys, *command.split()) == (0, GOLDEN_CLI[command], "")


def test_unknown_technology_is_data_error(capsys):
    code, _, err = run(capsys, "bench", "element", "--tech", "NOLABEL")
    assert code == 1
    assert err.strip().startswith("error:")
    assert err.count("\n") == 1  # single-line diagnostic


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("precision", ["0", "-1", "x"])
@pytest.mark.parametrize("argv", [("devices", "list"), ("bench", "element", "--tech", "ANNDCSRAM")])
def test_precision_below_one_is_usage_error(capsys, precision, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--precision", precision, *argv])
    assert exc.value.code == 2
    assert "--precision" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["2147483648", "100000000000000000000"])
def test_precision_beyond_what_a_format_spec_takes_is_usage_error(capsys, precision):
    with pytest.raises(SystemExit) as exc:
        main(["--precision", precision, "bench", "element", "--tech", "ANNDCSRAM"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and [line for line in err.splitlines() if "error" in line] == [
        f"neurobench: error: argument --precision: must be an integer from 1 to 2147483647, got '{precision}'"
    ]


def test_the_largest_precision_is_accepted():
    from neurobench.cli import _build_parser

    # parsed only: formatting a figure at this precision allocates a buffer of that many bytes
    assert _build_parser().parse_args(["--precision", "2147483647", "devices", "list"]).precision == 2147483647


def _figures(doc):
    """Every float in a JSON document."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in _figures(item)]
    return [doc] if isinstance(doc, float) else []


@pytest.mark.parametrize("precision", [768, 1000, 4096])
def test_a_precision_above_767_prints_what_767_prints(capsys, precision):
    # a double's exact decimal expansion has at most 767 significant digits
    golden = json.loads((Path(__file__).parent / "golden" / "golden.json").read_text(encoding="utf-8"))
    for x in [0.1, sys.float_info.max, 5e-324, *_figures(golden)]:
        assert format(x, f".{precision}g") == format(x, ".767g") == f"%.{precision}g" % x, x
    for argv in (
        ("bench", "element", "--tech", "ANNDCSRAM"),
        ("bench", "network", "--kind", "ONN"),
        ("bench", "chip", "--nominal", "--tech", "SpiMEME"),
        ("topsdown", "--chip", "Loihi", "--workload", "speech_mlp"),
    ):
        assert run(capsys, "--precision", str(precision), *argv) == run(capsys, "--precision", "767", *argv)


def test_the_largest_precision_runs_in_a_1_gb_address_space():
    resource = pytest.importorskip("resource")
    env = _subprocess_env()

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    out = {}
    for precision in ("2147483647", "767"):
        argv = ["--precision", precision, "bench", "element", "--tech", "ANNDCSRAM"]
        proc = subprocess.run(
            [sys.executable, "-m", "neurobench.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=limit,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        out[precision] = proc.stdout
    assert out["2147483647"] == out["767"]


# subcommand -> a run that succeeds, (a run with an unknown name, its exit code), a run missing a required option
_EXIT_TABLE = {
    "devices": (("devices", "list"), (("devices", "frobnicate"), 2), ("devices",)),
    "bench element": (
        ("bench", "element", "--tech", "ANNDCSRAM"), (("bench", "element", "--tech", "NOLABEL"), 1), ("bench", "element"),
    ),
    "bench network": (
        ("bench", "network", "--kind", "ONN"), (("bench", "network", "--kind", "XNN"), 2), ("bench", "network"),
    ),
    "bench chip": (
        ("bench", "chip", "--nominal", "--tech", "SpiDCSRAM"),
        (("bench", "chip", "--nominal", "--tech", "NOLABEL"), 1),
        ("bench", "chip", "--tech", "SpiDCSRAM"),
    ),
    "bench workload": (
        ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
        (("bench", "workload", "--name", "nowork", "--tech", "ANNDCSRAM"), 1),
        ("bench", "workload", "--tech", "ANNDCSRAM"),
    ),
    "topsdown": (
        ("topsdown", "--chip", "Loihi", "--workload", "speech_mlp"),
        (("topsdown", "--chip", "Loihi", "--workload", "nowork"), 1),
        ("topsdown", "--workload", "speech_mlp"),
    ),
    "export": (
        ("export", "--what", "matrix", "--scope", "workload", "--workload", "lenet", "--out", "{out}"),
        (("export", "--what", "matrix", "--scope", "workload", "--workload", "nowork", "--out", "{out}"), 1),
        ("export", "--what", "matrix", "--scope", "workload", "--workload", "lenet"),
    ),
}
_CONDITIONS = ("ok", "unknown name", "missing option", "bad --data-dir", "bad dataset value")


@pytest.mark.parametrize("condition", _CONDITIONS)
@pytest.mark.parametrize("subcommand", sorted(_EXIT_TABLE))
def test_exit_code_contract(capsys, monkeypatch, tmp_path, data_copy, subcommand, condition):
    """Exit 0 and a quiet stderr on success, 1 and one stderr line on a data
    error, 2 and argparse's usage and error lines on a usage error; nothing
    on stdout and no export file unless the run succeeds."""
    monkeypatch.setenv("COLUMNS", "1000")  # argparse wraps its usage line to the terminal width
    ok, (unknown, unknown_code), missing = _EXIT_TABLE[subcommand]
    rewrite_json(data_copy / "constants.json", lambda doc: doc.update(synapse_bits=2.7))
    argv, expected = {
        "ok": (ok, 0),
        "unknown name": (unknown, unknown_code),
        "missing option": (missing, 2),
        "bad --data-dir": (("--data-dir", str(tmp_path / "nowhere"), *ok), 1),
        "bad dataset value": (("--data-dir", str(data_copy), *ok), 1),
    }[condition]
    out_path = tmp_path / "x.csv"
    try:
        code = main([str(out_path) if a == "{out}" else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, err.count("\n")) == (expected, expected), err
    if code:
        assert out == "" and not out_path.exists()


def test_data_dir_override(capsys, tmp_path):
    code, _, err = run(capsys, "--data-dir", str(tmp_path / "nowhere"), "devices", "list")
    assert code == 1
    assert "constants.json" in err


def test_env_var_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NEUROBENCH_DATA_DIR", str(tmp_path / "missing"))
    code, _, err = run(capsys, "devices", "list")
    assert code == 1
    assert "file not found" in err


# valid runs, usage errors and --help, interleaved; "{out}" is a path under tmp_path
_PARSER_RUNS = [
    ("devices", "list"),
    ("--help",),
    ("bench", "element"),
    ("--precision", "3", "bench", "element", "--tech", "ANNDCSRAM"),
    ("bench", "chip", "--help"),
    ("--precision", "0", "devices", "list"),
    ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM", "--schedule", "tmux"),
    ("export", "--what", "matrix", "--scope", "workload", "--out", "{out}"),
    ("export", "--help"),
    ("frobnicate",),
    ("topsdown", "--chip", "Loihi", "--backfill"),
    ("export", "--what", "scatter", "--out", "{out}"),
]


def _outcome(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_is_built_once_and_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path):
    cli._build_parser.cache_clear()
    codes, helps = set(), {}
    for columns in ("40", "1000", "40"):  # the first width is the one the cached parser was built under
        monkeypatch.setenv("COLUMNS", columns)
        for run_ in _PARSER_RUNS:
            argv = [str(tmp_path / "x.csv") if a == "{out}" else a for a in run_]
            cached = _outcome(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
                assert _outcome(capsys, argv) == cached, argv
            codes.add(cached[0])
            if run_ == ("--help",):
                helps[columns] = cached
    assert cli._build_parser.cache_info().misses == 1
    assert codes == {0, 2} and helps["40"] != helps["1000"]


_SCALED_RUNS = (
    ("export", "--what", "matrix", "--scope", "workload", "--workload", "alexnet"),
    ("export", "--what", "matrix", "--scope", "chips"),
    ("export", "--what", "scatter", "--scatter-kind", "power", "--workload", "lenet"),
    ("bench", "chip", "--nominal", "--tech", "SpiMEME"),
)


@pytest.mark.parametrize("file", sorted(p.name for p in default_data_dir().glob("*.json")))
def test_every_number_scaled_by_1e300_or_1e_minus_300_gives_finite_figures_or_one_error_line(
    capsys, monkeypatch, tmp_path, registry, file
):
    doc = json.loads(registry.files[file])
    out_path = tmp_path / "out.csv"
    numbers = [(path, value) for path, value in json_leaves(doc) if type(value) in (int, float)]  # no booleans
    for path, value in numbers:
        for factor in (1e300, 1e-300):
            try:
                derived = derive(registry, {file: {path: value * factor}})
            except DatasetError:
                continue
            monkeypatch.setattr(cli, "load_datasets", lambda directory: derived)
            for argv in _SCALED_RUNS:
                argv = (*argv, "--out", str(out_path)) if argv[0] == "export" else argv
                code, out, err = run(capsys, *argv)  # an exception that escapes fails the test
                case = (path, factor, argv)
                if code == 0:
                    text = out_path.read_text(encoding="utf-8") if argv[0] == "export" else out
                    cells = set(text.replace(",", " ").replace(":", " ").split())
                    assert err == "" and not cells & {"inf", "-inf", "nan"}, case
                else:
                    assert code == 1 and out == "" and err.startswith("error: ") and err.count("\n") == 1, case
                    assert not out_path.exists(), case
                out_path.unlink(missing_ok=True)


def _unpack_bug(synapse_block_area, chip_area):
    core, chip = synapse_block_area, chip_area, 0.0  # one value too many
    return core, chip


def _type_bug(synapse_block_area, chip_area):
    return synapse_block_area + None, chip_area


@pytest.mark.parametrize("bug, error", [(_unpack_bug, ValueError), (_type_bug, TypeError)])
def test_a_bug_in_the_model_raises_out_of_main(capsys, monkeypatch, tmp_path, bug, error):
    load_new(tmp_path)  # a memo of its own: the row is built, not read
    monkeypatch.setattr(interconnect, "ic_lengths", bug)
    with pytest.raises(error) as exc:
        main(["--data-dir", str(tmp_path), "bench", "element", "--tech", "ANNDCSRAM"])
    assert "technology ANNDCSRAM" not in str(exc.value)
    assert capsys.readouterr().err == ""


def test_a_bug_in_the_model_prints_its_traceback():
    code = (
        "import sys\n"
        "from neurobench import cli, interconnect\n"
        "def bug(synapse_block_area, chip_area):\n"
        "    core, chip = synapse_block_area, chip_area, 0.0\n"
        "    return core, chip\n"
        "interconnect.ic_lengths = bug\n"
        "sys.exit(cli.main(['bench', 'element', '--tech', 'ANNDCSRAM']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_subprocess_env(), timeout=60
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback (most recent call last):\n"), proc.stderr
    assert proc.stderr.endswith("ValueError: too many values to unpack (expected 2)\n"), proc.stderr
    assert "error:" not in proc.stderr


def test_a_name_stdout_cannot_encode_is_one_error_line(data_copy):
    rewrite_json(
        data_copy / "technologies.json",
        lambda doc: doc["oscillators"][[row["label"] for row in doc["oscillators"]].index("OscME")].update(label="OscMÉ"),
    )
    env = {**_subprocess_env(), "PYTHONIOENCODING": "ascii"}
    proc = subprocess.run(
        [sys.executable, "-m", "neurobench.cli", "--data-dir", str(data_copy), "bench", "network", "--kind", "ONN"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    line = "error: 'ascii' codec can't encode character '\\xc9' in position 781: ordinal not in range(128)\n"
    assert (proc.returncode, proc.stderr) == (1, line)


def test_an_integer_too_long_to_parse_names_its_file(capsys, tmp_path, data_copy):
    digits = "1" * 5000  # over the 4300 digits that int() parses by default
    path = data_copy / "constants.json"
    text, count = re.subn(r'"synapse_bits": \d+', f'"synapse_bits": {digits}', path.read_text(encoding="utf-8"))
    assert count == 1
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "--data-dir", str(data_copy), "devices", "list")
    assert (code, out) == (1, "")
    assert err.startswith("error: constants.json: parse failure: Exceeds the limit") and err.count("\n") == 1
    config = tmp_path / "chip.json"
    config.write_text(f'{{"cores": {digits}, "neurons_per_core": 2, "synapses_per_neuron": 3}}')
    code, out, err = run(capsys, "bench", "chip", "--config", str(config), "--tech", "ANNDCSRAM")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}: parse failure: Exceeds the limit") and err.count("\n") == 1


def test_json_nested_past_the_recursion_limit_names_its_file(capsys, tmp_path, data_copy):
    # json.loads raises RecursionError here, whose wording differs across Python versions
    deep = "[" * 100_000 + "]" * 100_000
    path = data_copy / "constants.json"
    path.write_text(path.read_text(encoding="utf-8").replace("{", f'{{"deep": {deep}, ', 1), encoding="utf-8")
    code, out, err = run(capsys, "--data-dir", str(data_copy), "devices", "list")
    assert (code, out) == (1, "")
    assert err.startswith("error: constants.json: parse failure: ") and err.count("\n") == 1
    config = tmp_path / "chip.json"
    config.write_text(f'{{"deep": {deep}, "cores": 2, "neurons_per_core": 2, "synapses_per_neuron": 3}}')
    code, out, err = run(capsys, "bench", "chip", "--config", str(config), "--tech", "ANNDCSRAM")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}: parse failure: ") and err.count("\n") == 1
