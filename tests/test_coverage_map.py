"""scripts/coverage_map.py: each reviewed entry finds its lines by the text of the first, and a
line that no script reaches is reported unless an entry reviews it with the reach it has."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("coverage_map", ROOT / "scripts" / "coverage_map.py")
coverage_map = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(coverage_map)


def _source(name):
    return (ROOT / "src" / "neurobench" / name).read_text(encoding="utf-8").splitlines()


def test_every_entry_names_the_lines_that_start_at_its_text():
    for name in sorted({entry[0] for entry in coverage_map.REVIEWED}):
        source = _source(name)
        reviewed, problems = coverage_map.reviewed_lines(name, source)
        entries = [entry for entry in coverage_map.REVIEWED if entry[0] == name]
        assert problems == [] and len(reviewed) == sum(count for _, _, count, _, _ in entries)
        for _, text, count, reach, why in entries:
            first = [line.strip() for line in source].index(text) + 1
            assert [reviewed.get(line) for line in range(first, first + count)] == [(reach, why)] * count


def test_every_entry_is_reviewed_as_tests_only_or_unreached():
    reaches = {reach for _, _, _, reach, _ in coverage_map.REVIEWED}
    assert reaches <= {coverage_map.TESTS_ONLY, coverage_map.UNREACHED}


def test_lines_added_above_an_entry_move_its_lines_with_it():
    source = _source("cli.py")
    reviewed, _ = coverage_map.reviewed_lines("cli.py", source)
    shifted, problems = coverage_map.reviewed_lines("cli.py", ["# added", "", *source])
    assert problems == [] and shifted == {line + 2: why for line, why in reviewed.items()}


def test_an_entry_whose_text_is_on_no_line_or_two_is_a_problem():
    source = _source("cli.py")
    anchor = "raise SystemExit(run())"
    for edited, count in (([line for line in source if line.strip() != anchor], 0), ([*source, anchor], 2)):
        reviewed, problems = coverage_map.reviewed_lines("cli.py", edited)
        assert problems == [f"review anchor: src/neurobench/cli.py: {anchor!r} is the text of {count} lines, not 1"]
        assert len(reviewed) == 5  # the other three entries of the file still hold


# a module of four executable lines, reviewed by `_ENTRIES`; in `_REACH` each has the reach its entry names
_NAME = "fake.py"
_SOURCE = ["def shown():", "    return 1", "def checked(x):", "    raise ValueError(x)"]
_ENTRIES = (
    (_NAME, "raise ValueError(x)", 1, coverage_map.TESTS_ONLY, "a library caller's argument check"),
    (_NAME, "return 1", 1, coverage_map.UNREACHED, "no run calls it"),
)
_REACH = {1: coverage_map.SCRIPTS, 2: coverage_map.UNREACHED, 3: coverage_map.SCRIPTS, 4: coverage_map.TESTS_ONLY}


def _problems(monkeypatch, line, reach):
    """`file_problems` of the fake module with `line` of `reach` instead (None: not executable)."""
    monkeypatch.setattr(coverage_map, "REVIEWED", _ENTRIES)
    lines = {n: got for n, got in {**_REACH, line: reach}.items() if got}
    return coverage_map.file_problems(_NAME, _SOURCE, lines)


def test_a_tests_only_entry_anchors_by_its_text(monkeypatch):
    monkeypatch.setattr(coverage_map, "REVIEWED", _ENTRIES)
    why = (coverage_map.TESTS_ONLY, "a library caller's argument check")
    assert coverage_map.reviewed_lines(_NAME, _SOURCE) == ({2: (coverage_map.UNREACHED, "no run calls it"), 4: why}, [])
    moved, problems = coverage_map.reviewed_lines(_NAME, ["# added", *_SOURCE])
    assert problems == [] and moved[5] == why


def test_each_line_with_the_reach_its_entry_names_passes_and_is_counted(monkeypatch):
    counts, problems = _problems(monkeypatch, 1, coverage_map.SCRIPTS)
    assert problems == [] and counts == {coverage_map.SCRIPTS: 2, coverage_map.TESTS_ONLY: 1, coverage_map.UNREACHED: 1}


@pytest.mark.parametrize("reach", [coverage_map.TESTS_ONLY, coverage_map.UNREACHED])
def test_an_unreviewed_line_that_no_script_reaches_is_reported(monkeypatch, reach):
    _, problems = _problems(monkeypatch, 1, reach)
    assert problems == [f"{reach}: src/neurobench/fake.py:1: def shown():"]


_TESTS_ONLY_WHY = "(a library caller's argument check)"


@pytest.mark.parametrize(
    "line, reach, stale",
    [
        (4, coverage_map.SCRIPTS, f"4 is reviewed as tests only but a script reaches it {_TESTS_ONLY_WHY}"),
        (4, coverage_map.UNREACHED, f"4 is reviewed as tests only but nothing reaches it {_TESTS_ONLY_WHY}"),
        (2, coverage_map.TESTS_ONLY, "2 is reviewed as unreached but only tests reach it (no run calls it)"),
        (2, coverage_map.SCRIPTS, "2 is reviewed as unreached but a script reaches it (no run calls it)"),
        (2, None, "2 is reviewed as unreached but it is not executable (no run calls it)"),
    ],
    ids=["tests only, a script", "tests only, nothing", "unreached, tests", "unreached, a script", "not executable"],
)
def test_an_entry_whose_line_has_another_reach_is_stale(monkeypatch, line, reach, stale):
    _, problems = _problems(monkeypatch, line, reach)
    assert problems == [f"stale review: src/neurobench/fake.py:{stale}"]
