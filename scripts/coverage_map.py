#!/usr/bin/env python3
"""List every executable line of src/neurobench that the repository's own runs never reach.

    python3 scripts/coverage_map.py

Standard library only, no options; run it from any directory. Before
anything imports neurobench it installs a `sys.settrace` tracer that follows
only frames whose file lies under src/neurobench/. A module's executable
lines are the line numbers that `co_lines()` gives for its compiled code
objects. In this one process it then runs the Tier-1 suite (pytest on
tests/), `scripts/cli_sweep.py` and `scripts/run_benchmarks.py`, the two
scripts writing into a temporary directory. Tests that start a subprocess
run untraced there, so what only they reach counts as unreached.

It prints each unreached line that is not on `REVIEWED`, and each
`REVIEWED` line that is now reached or no longer executable, and exits 1
if there is any, or if a run fails. Each `REVIEWED` entry names the lines
no in-process run can reach and the reason. An entry finds its lines by the
text of the first, which must be the text of exactly one line of its file,
so lines added or removed above them do not move it. A new unreached line
gets a test (through `neurobench.derive` or `cli.main`), is deleted, or is
added to `REVIEWED` with its reason. Line tables differ between Python
versions; the list is made on Python 3.11.
"""

import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "neurobench"

REVIEWED = (  # (file under src/neurobench, its first line stripped, how many lines, why no in-process run reaches them)
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", 2,
     "the broken-pipe branch; a subprocess test (tests/test_cli.py) and CI's shell pipe reach it"),
    ("cli.py", "raise SystemExit(main())", 1, "the `__main__` line; only `python -m neurobench.cli` runs it"),
    ("interconnect.py", "from .registry import GlobalConstants", 1,
     "a `TYPE_CHECKING` import, which only a type checker reads"),
    ("workload.py", "from .interconnect import ElementBench", 2, "`TYPE_CHECKING` imports, which only a type checker reads"),
)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    lines, codes = set(), [compile(path.read_bytes(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def trace_runs() -> tuple[dict[str, set[int]], list[str]]:
    """Run the suite and both scripts under the tracer: the lines reached per file, and what failed."""
    prefix = str(SRC) + os.sep
    reached: dict[str, set[int]] = {}
    ours: dict = {}  # code object -> its file's reached set, or None for a file outside the package

    def local(frame, event, arg):
        if event == "line":
            ours[frame.f_code].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        lines = ours.get(code, 0)
        if lines == 0:
            name = code.co_filename
            lines = ours[code] = reached.setdefault(name, set()) if name.startswith(prefix) else None
        if lines is None:
            return None
        lines.add(frame.f_lineno)  # a function's first line, which raises no line event
        return local

    assert "neurobench" not in sys.modules, "the tracer must see the package's import"
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    failed = []
    sys.settrace(tracer)
    try:
        import pytest

        if pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]) != 0:
            failed.append("the Tier-1 suite")
        with tempfile.TemporaryDirectory(prefix="coverage_map-") as tmp:
            runs = (("cli_sweep.py", [f"{tmp}/sweep.json"]), ("run_benchmarks.py", ["--out", f"{tmp}/results"]))
            for script, argv in runs:
                sys.argv = [script, *argv]
                try:
                    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
                except SystemExit as e:
                    if e.code:
                        failed.append(f"scripts/{script} (exit {e.code})")
    finally:
        sys.settrace(None)
    return {Path(name).name: lines for name, lines in reached.items()}, failed


def reviewed_lines(name: str, source: list[str]) -> tuple[dict[int, str], list[str]]:
    """The `REVIEWED` lines of one file, each with its reason, and a problem
    for each of its entries whose first line is not the text of exactly one line."""
    reviewed, problems = {}, []
    for file, text, count, why in REVIEWED:
        if file == name:
            starts = [number for number, line in enumerate(source, 1) if line.strip() == text]
            if len(starts) == 1:
                reviewed.update(dict.fromkeys(range(starts[0], starts[0] + count), why))
            else:
                problems.append(f"review anchor: src/neurobench/{name}: {text!r} is the text of {len(starts)} lines, not 1")
    return reviewed, problems


def main() -> int:
    reached, failed = trace_runs()
    total = hit = reviewed_total = 0
    problems = []
    for path in sorted(SRC.glob("*.py")):
        executable = executable_lines(path)
        got = reached.get(path.name, set()) & executable
        total, hit = total + len(executable), hit + len(got)
        source = path.read_text(encoding="utf-8").splitlines()
        reviewed, anchors = reviewed_lines(path.name, source)
        reviewed_total += len(reviewed)
        problems += anchors
        for line in sorted(executable - got):
            if line not in reviewed:
                problems.append(f"unreached: src/neurobench/{path.name}:{line}: {source[line - 1].strip()}")
        for line, why in reviewed.items():
            if line in got or line not in executable:
                problems.append(f"stale review: src/neurobench/{path.name}:{line} is reached or not executable ({why})")
    print(f"\n{hit} of {total} executable lines of src/neurobench reached; {reviewed_total} reviewed as unreachable")
    for line in problems + [f"failed: {what}" for what in failed]:
        print(line)
    return 1 if problems or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
