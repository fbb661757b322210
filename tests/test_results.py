"""scripts/run_benchmarks.py writes the result set pinned in tests/golden/results.json."""

import json
import os
import subprocess
import sys
from pathlib import Path

import neurobench

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "golden" / "results.json").read_text(encoding="utf-8"))


def test_run_benchmarks_output_matches_golden(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "NEUROBENCH_DATA_DIR"}
    src = str(Path(neurobench.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    script = ROOT / "scripts" / "run_benchmarks.py"
    subprocess.run(
        [sys.executable, str(script), "--out", str(tmp_path)], env=env, check=True, capture_output=True, timeout=120
    )
    written = {path.name: path.read_text(encoding="utf-8") for path in tmp_path.iterdir()}
    assert sorted(written) == sorted(GOLDEN)
    for name, text in GOLDEN.items():
        assert written[name] == text, name
