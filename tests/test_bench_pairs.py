"""scripts/bench_pairs.py: the rule that decides whether a claimed gain holds."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [20.0, 20.2, 19.8, 20.1, 19.9, 20.3, 19.7, 20.0, 20.1, 19.9]  # IQR 0.25
FASTER = [18.0, 18.3, 17.9, 18.1, 18.2, 17.8, 18.0, 18.1, 17.9, 18.2]


def test_claim_is_met_when_the_change_wins_nine_tenths_by_more_than_the_iqr():
    assert bench_pairs.claim_met(PARENT, FASTER, "lower")
    assert bench_pairs.claim_met([-v for v in PARENT], [-v for v in FASTER], "higher")
    one_tie = [PARENT[0], *FASTER[1:]]
    assert bench_pairs.change_wins(PARENT, one_tie, "lower") == 9
    assert bench_pairs.claim_met(PARENT, one_tie, "lower")


def test_claim_is_lost_on_wins():
    two_lost = [21.0, 21.0, *FASTER[2:]]
    assert bench_pairs.change_wins(PARENT, two_lost, "lower") == 8
    assert not bench_pairs.claim_met(PARENT, two_lost, "lower")
    two_ties = [*PARENT[:2], *FASTER[2:]]  # a tie counts for neither side
    assert bench_pairs.change_wins(PARENT, two_ties, "lower") == 8
    assert not bench_pairs.claim_met(PARENT, two_ties, "lower")


def test_claim_is_lost_on_iqr():
    parent = [10.0, 30.0, 12.0, 28.0, 14.0, 26.0, 16.0, 24.0, 18.0, 22.0]
    change = [v - 0.5 for v in parent]  # wins every pair by less than the spread
    assert bench_pairs.change_wins(parent, change, "lower") == 10
    assert not bench_pairs.claim_met(parent, change, "lower")


def test_a_wide_parent_iqr_adds_a_note_that_advises_a_re_run():
    assert bench_pairs.spread_note("surface", "op_p50_ms", PARENT) is None  # IQR 0.25 of 20
    bimodal = [8.25, 9.12, 8.3, 9.74, 8.35, 9.3, 8.28, 9.5, 9.2, 9.6]  # two modes, as one host gave
    note = bench_pairs.spread_note("perturbed_sweep", "op_p50_ms", bimodal)
    assert note.startswith("op_p50_ms on perturbed_sweep: the parent's IQR is 13% of its median, above 10%.")
    assert "bimodal" in note and "re-run the pairs" in note
    assert bench_pairs.claim_met(bimodal, [v - 2.0 for v in bimodal], "lower")  # the note leaves the claim alone
    assert bench_pairs.spread_note("perturbed_sweep", "ops_per_s", [1e3 / v for v in bimodal]) is not None


def test_sides_alternate_which_runs_first():
    assert [bench_pairs.run_order(seed) for seed in (1, 2, 3)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"),
    ]


def test_per_layer_figures_are_medians_of_the_traced_runs():
    runs = [
        {"report.emit_matrix.self_ms": {"value": 1.77}, "cli.main.calls": {"value": 1.0}},
        {"report.emit_matrix.self_ms": {"value": 1.45312}, "cli.main.calls": {"value": 1.0}},
        {"report.emit_matrix.self_ms": {"value": 1.62}, "cli.main.calls": {"value": 1.0}},
    ]
    assert bench_pairs.TRACED_PAIRS == len(runs)
    assert bench_pairs.median_figures(runs) == {"report.emit_matrix.self_ms": 1.62, "cli.main.calls": 1.0}
    assert bench_pairs.median_figures(runs[1:2]) == {"report.emit_matrix.self_ms": 1.4531, "cli.main.calls": 1.0}


def test_each_pair_runs_as_long_as_the_benchmark_says(monkeypatch, tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lengths = []

    def run(checkout, workload, seed, seconds, trace):
        lengths.append((seconds, trace))
        metrics = {m["name"]: {"value": 1.0} for m in bench["end_to_end"]}
        return {"metrics": metrics, "failed": 0, "attempted": 1, "correct": True}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, dest: rev)
    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD", "--out", str(out), "--workload", "surface:2", "--trace", "surface"]
    assert bench_pairs.main([*argv, "--trace-seconds", "3"]) == 0
    assert lengths == [(bench["run_seconds"], 0)] * 4 + [(3.0, 1)] * 2 * bench_pairs.TRACED_PAIRS
    assert f"--seconds {bench['run_seconds']:g} --trace 0" in json.loads(out.read_text(encoding="utf-8"))["method"]


def test_run_length_is_no_option(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", "HEAD", "--out", "x.json", "--workload", "surface", "--seconds", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seconds 10" in capsys.readouterr().err
