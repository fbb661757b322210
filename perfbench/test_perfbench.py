"""Tests of the benchmark itself: smoke runs, planted faults, trace clean-up.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from neurobench import report  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _golden() -> dict:
    return json.loads(run.GOLDEN.read_text(encoding="utf-8"))


def _ctx(run_dir: Path, golden=None) -> workloads.Context:
    return workloads.Context(
        root=ROOT,
        data_dir=ROOT / "src" / "neurobench" / "data",
        golden=golden or _golden(),
        seed=5,
        run_dir=run_dir,
        env=run.child_env(),
        python=sys.executable,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1"))
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def test_untraced_run_does_not_import_the_wrappers():
    code = (
        f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
        "rc = run.main(['--workload', 'perturbed_sweep', '--seed', '1', '--seconds', '0.5', '--trace', '0']); "
        "assert 'tracing' not in sys.modules, 'tracing imported'; sys.exit(rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr


def test_golden_entry_off_by_1e_6_fails_surface(tmp_path):
    golden = _golden()
    golden["elements"][sorted(golden["elements"])[0]][5] *= 1 + 1e-6
    loop = run.Loop(workloads.Surface(_ctx(tmp_path, golden)))
    loop.run(0.0, min_ops=1)
    assert loop.attempted == loop.failed == 1


def test_stale_row_for_a_perturbed_registry_fails_perturbed_sweep(tmp_path, monkeypatch):
    original = report.bench_technology
    cache = {}

    def bench_technology_keyed_without_constants(tech, registry, cfg=None):
        if (tech, cfg) not in cache:
            cache[tech, cfg] = original(tech, registry, cfg)
        return cache[tech, cfg]

    sweep = workloads.PerturbedSweep(_ctx(tmp_path))
    monkeypatch.setattr(report, "bench_technology", bench_technology_keyed_without_constants)
    loop = run.Loop(sweep)
    loop.run(0.0, min_ops=1)
    assert loop.attempted == loop.failed == 1
    # unit-rewritten copies have the default physical values, so only the
    # value-perturbed ones read stale rows
    failed_copies = {error.split(":")[0] for error in sweep.check(1, sweep.op(1))}
    assert failed_copies == {c.directory.name for c in sweep.copies if c.kind == "perturbed"}


def test_cli_check_rejects_a_truncated_output(tmp_path):
    cli = workloads.CliOneshot(_ctx(tmp_path))
    kinds = [kind for kind, _ in cli.commands[: len(cli.KINDS)]]
    assert sorted(kinds) == sorted(cli.KINDS)
    for i in range(len(cli.KINDS)):
        code, stdout, stderr = cli.op(i)
        assert cli.check(i, (code, stdout, stderr)) == []
        truncated = "".join(stdout.splitlines(keepends=True)[:-1])
        assert cli.check(i, (code, truncated, stderr)) != []
        assert cli.check(i, (1, stdout, stderr)) != []


def test_traced_run_restores_patched_names(tmp_path, monkeypatch):
    import neurobench.cli  # noqa: F401  (the tracer patches it too)

    def bindings():
        mods = [m for name, m in sys.modules.items() if name == "neurobench" or name.startswith("neurobench.")]
        return {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}

    before = bindings()
    monkeypatch.setattr(run, "RUN_ROOT", tmp_path)
    ctx = _ctx(tmp_path)
    loop = run.Loop(workloads.Surface(ctx))
    metrics = run.traced_metrics("surface", ctx, loop, 0.2)
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert metrics["report.bench_technology.calls"][0] > 0
    assert 0 < metrics["report.element_row_reuse"][0] <= 1
    assert (tmp_path / "trace-surface.json").is_file()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = _bench("--workload", "surface", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
