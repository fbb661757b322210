"""scripts/run_benchmarks.py writes the result set pinned in tests/golden/results.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import neurobench
import pytest

from conftest import rewrite_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "results.json").read_text(encoding="utf-8"))


def run_benchmarks(out: Path, data_dir=None, *, ascii_locale=False) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "NEUROBENCH_DATA_DIR"}
    if data_dir is not None:
        env["NEUROBENCH_DATA_DIR"] = str(data_dir)
    if ascii_locale:  # neither locale coercion nor UTF-8 mode: the locale encoding is ASCII
        env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    src = str(Path(neurobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ROOT / "scripts" / "run_benchmarks.py"
    command = [sys.executable, str(script), "--out", str(out)]
    return subprocess.run(command, env=env, check=True, capture_output=True, text=True, timeout=120)


def test_run_benchmarks_output_matches_golden(tmp_path):
    run_benchmarks(tmp_path)
    written = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
    assert sorted(written) == sorted(GOLDEN)
    for name, text in GOLDEN.items():
        assert written[name] == text, name


def test_run_benchmarks_writes_utf8_whatever_the_locale(tmp_path, data_copy):
    def rename_loihi(doc):
        next(row for row in doc["chips"] if row["name"] == "Loihi")["name"] = "Loïhi"

    rewrite_json(data_copy / "chips_neuromorphic.json", rename_loihi)
    out = tmp_path / "results"
    run_benchmarks(out, data_copy, ascii_locale=True)
    assert "\nLoïhi,neuromorphic," in (out / "chips_topsdown.csv").read_text(encoding="utf-8")


def test_run_benchmarks_orders_only_the_kinds_present(tmp_path, data_copy):
    rewrite_json(data_copy / "technologies.json", lambda doc: doc.update(oscillators=[]))
    out = tmp_path / "results"
    stdout = run_benchmarks(out, data_copy).stdout
    assert stdout.startswith("geometric-mean neuron delay (ps): {'ANN': ")
    assert "'CNN'" in stdout and "'SNN'" in stdout and "ONN" not in stdout
    assert sorted(path.name for path in out.iterdir()) == sorted(GOLDEN)


def _drop(key: str, name: str):
    return lambda doc: doc.update({key: [row for row in doc[key] if row["name"] != name]})


@pytest.mark.parametrize(
    "file, key, name, compared",
    [
        ("chips_neuromorphic.json", "chips", "Loihi", ["Myriad 2"]),
        ("chips_accelerators.json", "chips", "Myriad 2", ["Loihi"]),
        ("workloads.json", "workloads", "speech_mlp", []),
    ],
)
def test_run_benchmarks_compares_only_the_records_present(tmp_path, data_copy, file, key, name, compared):
    rewrite_json(data_copy / file, _drop(key, name))
    out = tmp_path / "results"
    run_benchmarks(out, data_copy)
    written = sorted(path.name for path in out.iterdir())
    assert written == sorted(f for f in GOLDEN if f != f"workload_{name}.csv")
    speech = json.loads((out / "speech_comparison.json").read_text(encoding="utf-8"))
    assert speech == {chip: json.loads(GOLDEN["speech_comparison.json"])[chip] for chip in compared}


def test_run_benchmarks_skips_an_incomputable_speech_chip(tmp_path, data_copy):
    def drop_loihi_area(doc):
        for row in doc["chips"]:
            if row["name"] == "Loihi":
                del row["area"]

    rewrite_json(data_copy / "chips_neuromorphic.json", drop_loihi_area)
    out = tmp_path / "results"
    run_benchmarks(out, data_copy)
    assert sorted(path.name for path in out.iterdir()) == sorted(GOLDEN)
    speech = json.loads((out / "speech_comparison.json").read_text(encoding="utf-8"))
    assert speech == {"Myriad 2": json.loads(GOLDEN["speech_comparison.json"])["Myriad 2"]}
