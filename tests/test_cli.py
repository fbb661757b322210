import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import neurobench
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


def test_data_dir_override(capsys, tmp_path):
    code, _, err = run(capsys, "--data-dir", str(tmp_path / "nowhere"), "devices", "list")
    assert code == 1
    assert "constants.json" in err


def test_env_var_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("NEUROBENCH_DATA_DIR", str(tmp_path / "missing"))
    code, _, err = run(capsys, "devices", "list")
    assert code == 1
    assert "file not found" in err
