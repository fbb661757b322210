"""scripts/coverage_map.py: each reviewed entry finds its lines by the text of the first."""

import importlib.util
from pathlib import Path

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
        assert problems == [] and len(reviewed) == sum(count for _, _, count, _ in entries)
        for _, text, count, why in entries:
            first = [line.strip() for line in source].index(text) + 1
            assert [reviewed.get(line) for line in range(first, first + count)] == [why] * count


def test_lines_added_above_an_entry_move_its_lines_with_it():
    source = _source("cli.py")
    reviewed, _ = coverage_map.reviewed_lines("cli.py", source)
    shifted, problems = coverage_map.reviewed_lines("cli.py", ["# added", "", *source])
    assert problems == [] and shifted == {line + 2: why for line, why in reviewed.items()}


def test_an_entry_whose_text_is_on_no_line_or_two_is_a_problem():
    source = _source("cli.py")
    anchor = "raise SystemExit(main())"
    for edited, count in (([line for line in source if line.strip() != anchor], 0), ([*source, anchor], 2)):
        reviewed, problems = coverage_map.reviewed_lines("cli.py", edited)
        assert problems == [f"review anchor: src/neurobench/cli.py: {anchor!r} is the text of {count} lines, not 1"]
        assert len(reviewed) == 2  # the other entry of the file still holds
