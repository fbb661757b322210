import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neurobench
from conftest import BACKFILL_BREAKS, rewrite_json
from neurobench.cli import main

GOLDEN_CLI = json.loads((Path(__file__).parent / "golden" / "cli.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_devices_list(capsys):
    code, out, _ = run(capsys, "devices", "list")
    assert code == 0
    assert "ME," in out and "OxideR," in out


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


def _digital_cmos_reg(field, value):
    def mutate(doc):
        doc["families"]["digital_cmos"]["reg"][field] = value

    return mutate


@pytest.mark.parametrize(
    "file, mutate, argv, line",
    [
        pytest.param(
            "constants.json", lambda doc: doc.update(supply_voltage=1e200), ("bench", "element", "--tech", "ANNDCSRAM"),
            "AdeTriple.energy must be finite and >= 0, got inf",
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
            "AdeTriple.area must be finite and >= 0, got inf",
            id="constants.json:overheads.chip",
        ),
        pytest.param(  # the row is finite, the workload energy is not
            "circuit_primitives.json", _digital_cmos_reg("energy", 1e305),
            ("bench", "workload", "--name", "lenet", "--tech", "ANNDCSRAM"),
            "workload figures must be finite: "
            "WorkloadBench(area=24762174931200.0, delay=367432.88488230633, energy=inf, schedule='parallel')",
            id="circuit_primitives.json:families.digital_cmos.reg.energy",
        ),
        pytest.param(
            # area and delay are finite, their product is not: the throughput is 0
            "circuit_primitives.json", _digital_cmos_reg("area", 1e290),
            ("export", "--what", "scatter", "--scatter-kind", "power", "--workload", "lenet"),
            "scatter point ANNDCSRAM: coordinates must be finite and positive",
            id="circuit_primitives.json:families.digital_cmos.reg.area",
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


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_exits_quietly(unbuffered):
    env = {k: v for k, v in os.environ.items() if k not in ("NEUROBENCH_DATA_DIR", "PYTHONUNBUFFERED")}
    src = str(Path(neurobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
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
    env = {k: v for k, v in os.environ.items() if k != "NEUROBENCH_DATA_DIR"}
    src = str(Path(neurobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

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
