#!/usr/bin/env python3
"""List every executable line of src/neurobench that the CLI and scripts never reach.

    python3 scripts/coverage_map.py

Standard library only, no options; run it from any directory. Before
anything imports neurobench it installs a `sys.settrace` tracer that follows
only frames whose file lies under src/neurobench/. A module's executable
lines are the line numbers that `co_lines()` gives for its compiled code
objects. In this one process it runs `scripts/cli_sweep.py` and
`scripts/run_benchmarks.py` first, writing into a temporary directory, and
the Tier-1 suite (pytest on tests/) second, so no cache a test warmed can
hide a line from the scripts. Each line then has one of three kinds of
reach: a script reaches it, only Tier-1 reaches it (`TESTS_ONLY`), or no
in-process run reaches it (`UNREACHED`). Tests that start a subprocess run
untraced, so what only they reach counts as unreached.

It prints the count of each kind, each line that no script reaches and that
is not on `REVIEWED` with its kind of reach, and each `REVIEWED` line whose
reach is now another or that is no longer executable, and exits 1 if there
is any, or if a run fails. Each `REVIEWED` entry names lines that no script
reaches, what reaches them and why they stay. An entry finds its lines by
the text of the first, which must be the text of exactly one line of its
file, so lines added or removed above them do not move it. A new line that
no script reaches gets a script command (a `cli_sweep.py` entry, so the
CLI parity step guards it), is deleted, or is added to `REVIEWED` with its
reason. Line tables differ between Python versions; the list is made on
Python 3.11.
"""

import os
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "neurobench"

SCRIPTS = "a script"  # the reach of every line that needs no review
TESTS_ONLY = "tests only"  # Tier-1 reaches the line, no script does
UNREACHED = "unreached"  # no in-process run reaches the line

REVIEWED = (  # (file under src/neurobench, its first line stripped, how many lines, what reaches them, why)
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())", 2, UNREACHED,
     "the broken-pipe branch; a subprocess test (tests/test_cli.py) and CI's shell pipe reach it"),
    ("cli.py", "raise SystemExit(run())", 1, UNREACHED, "the `__main__` line; only `python -m neurobench.cli` runs it"),
    ("cli.py", "try:  # every way out freezes: a return, a usage error's SystemExit, a bug's exception", 2, TESTS_ONLY,
     "`run`, the process entry; every script calls `main`, which must not freeze a process that goes on running"),
    ("cli.py", "gc.freeze()", 1, TESTS_ONLY,
     "`run`, the process entry; every script calls `main`, which must not freeze a process that goes on running"),
    ("interconnect.py", "from .registry import GlobalConstants", 1, UNREACHED,
     "a `TYPE_CHECKING` import, which only a type checker reads"),
    ("workload.py", "from .interconnect import ElementBench", 2, UNREACHED,
     "`TYPE_CHECKING` imports, which only a type checker reads"),
    ("report.py", "from .workload import WorkloadBench", 1, UNREACHED,
     "a `TYPE_CHECKING` import, which only a type checker reads"),
    # library API: what a caller of the package, not of the CLI, can reach
    ("__init__.py", "return sorted(globals().keys() | _EXPORTS.keys())", 1, TESTS_ONLY,
     "`dir(neurobench)`, the PEP 562 partner of `__getattr__`: it lists the names imported on first access"),
    ("interconnect.py", "return self.synapse if self.core_ic is ZERO else self.synapse + self.core_ic", 1, TESTS_ONLY,
     "`ElementBench.synapse_total`, the synapse plus its wire for a caller; the model adds the components inline"),
    ("interconnect.py", "return self.neuron if self.chip_ic is ZERO else self.neuron + self.chip_ic", 1, TESTS_ONLY,
     "`ElementBench.neuron_total`, the neuron plus its wire for a caller; the model adds the components inline"),
    ("workload.py", "return list(map(StageBench._make, _stage_figures(plan, elem, registry)))", 1, TESTS_ONLY,
     "`stage_benches`, the per-stage view of a workload that the planned explain output (ROADMAP item 1) prints"),
    ("registry.py", 'raise AttributeError("a Registry cannot be changed; derive a new one with neurobench.derive")', 1,
     TESTS_ONLY, "a caller's assignment to a read-only registry"),
    ("registry.py", "except (KeyError, IndexError, TypeError, ValueError, StopIteration):", 2, TESTS_ONLY,
     "`derive` at a path the file lacks; the CLI never derives"),
    ("registry.py", "except (ValueError, RecursionError) as e:  # an integer of too many digits, or a value nested too deep",
     2, TESTS_ONLY, "`derive` of a value that JSON cannot write; the CLI never derives"),
    # guards that keep the value objects sound
    ("ade.py", "return cls(*iterable)", 1, TESTS_ONLY,
     "a guard: without it `AdeTriple._make` would skip the finiteness check; no run makes a triple from an iterable"),
    ("ade.py", 'raise TypeError("AdeTriple has no scalar multiplication; use scaled()")', 1, TESTS_ONLY,
     "a guard: without it `triple * 2` would repeat the tuple; the model never scales a whole triple"),
    ("chip.py", 'raise FigureError(f"firing rate undefined for synapse delay {tau_syn:g}")', 1, TESTS_ONLY,
     "a synapse delay and its core-wire delay, each finite, whose sum overflows; no dataset edit found reaches it"),
    ("topsdown.py", "except IncomputableError:  # a record that cannot be back-filled has no back-filled chip", 2,
     TESTS_ONLY, "a chip other than the registry's record, whose record cannot be back-filled: only a caller's"),
    # argument checks that a library caller can reach and the CLI rules out first (argparse choices, the loader)
    ("ade.py", 'raise ValueError("scaling ratios must be non-negative")', 1, TESTS_ONLY,
     "a negative ratio; the model scales by positive ones"),
    ("chip.py", 'raise ValueError("chip config counts must be >= 1")', 1, TESTS_ONLY,
     "a count below 1; the CLI's `--config` reader rejects it first"),
    ("chip.py", 'raise ValueError(f"activity must be in (0, 1], got {activity}")', 1, TESTS_ONLY,
     "an activity outside (0, 1]; the CLI's `--config` reader rejects it first"),
    ("workload.py", 'raise ValueError(f"fan-in must be >= 1, got {fan_in}")', 1, TESTS_ONLY,
     "a fan-in below 1; the loader admits counts >= 1 and `unlimited`"),
    ("workload.py", 'raise ValueError(f"unknown schedule {schedule!r}")', 1, TESTS_ONLY,
     "an unknown schedule; the CLI maps its `--schedule` choices onto the two"),
    ("registry.py", "raise UnknownNameError(", 2, TESTS_ONLY,
     "a record that is not the registry's of its name; the CLI looks every name up"),
    ("registry.py", 'raise UnknownNameError(f"unknown network kind {network_kind!r}")', 1, TESTS_ONLY,
     "an unknown network kind; argparse admits the four"),
    ("report.py", 'raise UnknownNameError("workload scope requires a workload name")', 1, TESTS_ONLY,
     "no workload name; the CLI's export check requires `--workload` first"),
    ("report.py", 'raise UnknownNameError(f"unknown matrix scope {scope!r}")', 1, TESTS_ONLY,
     "an unknown scope; argparse admits the three"),
    ("report.py", 'raise UnknownNameError(f"unknown export format {fmt!r}")', 1, TESTS_ONLY,
     "an unknown format; the CLI picks csv or json from the file suffix"),
    ("report.py", 'raise UnknownNameError(f"{what} scatter requires a workload name")', 1, TESTS_ONLY,
     "no workload name; the CLI's export check requires `--workload` first"),
    ("report.py", 'raise UnknownNameError(f"unknown scatter kind {what!r}")', 1, TESTS_ONLY,
     "an unknown scatter kind; argparse admits the four"),
    ("report.py", 'raise ValueError(f"no {network_kind} technologies: their geometric-mean neuron delay is undefined")',
     1, TESTS_ONLY, "a kind without technologies; `run_benchmarks.py` asks only for the kinds its registry has"),
    ("report.py", "except UnknownNameError:  # a name the registry lacks, or an `IncomputableError`", 2, TESTS_ONLY,
     "`run_benchmarks.py` on a dataset that lacks a compared chip or `speech_mlp`, or whose chip is incomputable"),
)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every code object compiled from `path`."""
    lines, codes = set(), [compile(path.read_bytes(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return lines


def trace_runs() -> tuple[dict[str, set[int]], dict[str, set[int]], list[str]]:
    """Run both scripts, then the suite, under the tracer: the lines the scripts
    reached per file, the lines any run reached per file, and what failed."""
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
        with tempfile.TemporaryDirectory(prefix="coverage_map-") as tmp:
            runs = (("cli_sweep.py", [f"{tmp}/sweep.json"]), ("run_benchmarks.py", ["--out", f"{tmp}/results"]))
            for script, argv in runs:
                sys.argv = [script, *argv]
                try:
                    runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
                except SystemExit as e:
                    if e.code:
                        failed.append(f"scripts/{script} (exit {e.code})")
        by_scripts = {Path(name).name: set(lines) for name, lines in reached.items()}
        import pytest

        if pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "tests"]) != 0:
            failed.append("the Tier-1 suite")
    finally:
        sys.settrace(None)
    return by_scripts, {Path(name).name: lines for name, lines in reached.items()}, failed


def reviewed_lines(name: str, source: list[str]) -> tuple[dict[int, tuple[str, str]], list[str]]:
    """The `REVIEWED` lines of one file, each with what reaches it and why, and a
    problem for each of its entries whose first line is not the text of exactly one line."""
    reviewed, problems = {}, []
    for file, text, count, reach, why in REVIEWED:
        if file == name:
            starts = [number for number, line in enumerate(source, 1) if line.strip() == text]
            if len(starts) == 1:
                reviewed.update(dict.fromkeys(range(starts[0], starts[0] + count), (reach, why)))
            else:
                problems.append(f"review anchor: src/neurobench/{name}: {text!r} is the text of {len(starts)} lines, not 1")
    return reviewed, problems


_FOUND = {SCRIPTS: "a script reaches it", TESTS_ONLY: "only tests reach it", UNREACHED: "nothing reaches it"}


def file_problems(name: str, source: list[str], reach: dict[int, str]) -> tuple[dict[str, int], list[str]]:
    """For one file whose executable lines map to their reach: how many lines have
    each reach, and each line no script reaches that is not reviewed as such and
    each reviewed line whose reach is another or that is not executable."""
    reviewed, problems = reviewed_lines(name, source)
    for line, got in sorted(reach.items()):
        if got != SCRIPTS and line not in reviewed:
            problems.append(f"{got}: src/neurobench/{name}:{line}: {source[line - 1].strip()}")
    for line, (kind, why) in reviewed.items():
        got = reach.get(line)
        if got != kind:
            found = _FOUND.get(got, "it is not executable")
            problems.append(f"stale review: src/neurobench/{name}:{line} is reviewed as {kind} but {found} ({why})")
    return Counter(reach.values()), problems


def main() -> int:
    by_scripts, reached, failed = trace_runs()
    totals, problems = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        scripts, tests = by_scripts.get(path.name, set()), reached.get(path.name, set())
        reach = {
            line: SCRIPTS if line in scripts else TESTS_ONLY if line in tests else UNREACHED
            for line in executable_lines(path)
        }
        counts, found = file_problems(path.name, path.read_text(encoding="utf-8").splitlines(), reach)
        totals.update(counts)
        problems += found
    print(
        f"\n{totals.total()} executable lines of src/neurobench: {totals[SCRIPTS]} reached by a script, "
        f"{totals[TESTS_ONLY]} by tests only, {totals[UNREACHED]} by no run"
    )
    for line in problems + [f"failed: {what}" for what in failed]:
        print(line)
    return 1 if problems or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
