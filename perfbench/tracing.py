"""Layer spans for the traced benchmark run.

`Tracer.install` replaces each layer-boundary function of neurobench with a
wrapper at every module namespace that holds it, so calls are caught at
their call sites (`report.run_workload`, `topsdown.run_workload`, ...) and
booked under the defining module's name (`workload.run_workload`). Spans
stay in memory; `restore` puts the original functions back. Only the traced
run imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# Layer boundaries: module -> public functions wrapped at every call site.
LAYERS = {
    "registry": ("load_datasets",),
    "elements": ("build_raw_element",),
    "networks": ("network_transform",),
    "interconnect": ("assemble_row",),
    "chip": ("chip_bench",),
    "workload": ("run_workload",),
    "report": (
        "bench_technology",
        "bench_workload",
        "emit_matrix",
        "scatter_dataset",
        "pareto_front",
        "emit_scatter",
        "speech_comparison",
    ),
    "topsdown": ("topsdown_element", "backfill_derived", "run_workload_on_chip"),
    "cli": ("main",),
}

ROW_LAYER = "report.bench_technology"


COLUMNS = ("name", "parent", "start", "end", "op")


class Tracer:
    """Keeps one span per wrapped call in columns: name index, parent span
    (-1 for none), start and end in ns, and the benchmark operation."""

    def __init__(self):
        self.op = 0
        self.names: list[str] = []
        self.columns = {c: array("q") for c in COLUMNS}
        self._stack: list[int] = []
        self._row_keys: set = set()  # (op, registry id, technology, chip config)
        self._foreign_rows = 0  # distinct rows reported by traced child processes
        self._patched: list = []  # (module, attribute, original)

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        name_index = self._name_index(name)
        names, parents, starts, ends, ops = (self.columns[c] for c in COLUMNS)
        stack = self._stack
        row_keys = self._row_keys if name == ROW_LAYER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if row_keys is not None:
                cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
                row_keys.add((self.op, id(args[1]), args[0], cfg))
            sid = len(names)
            names.append(name_index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(sid)
            starts.append(time.perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for short, fn_names in LAYERS.items():
            module = importlib.import_module(f"neurobench.{short}")
            for fn_name in fn_names:
                original = getattr(module, fn_name)
                wrapper = self._wrap(f"{short}.{fn_name}", original)
                for holder in [m for k, m in sys.modules.items() if k == "neurobench" or k.startswith("neurobench.")]:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def distinct_rows(self) -> int:
        return len(self._row_keys) + self._foreign_rows

    def dump(self, path) -> None:
        doc = {c: self.columns[c].tolist() for c in COLUMNS}
        doc.update(names=self.names, distinct_rows=self.distinct_rows())
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))

    def merge_child(self, path) -> None:
        """Adds the spans a traced child process dumped, booked to the current operation."""
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        base = len(self.columns["name"])
        self.columns["name"].extend(self._name_index(doc["names"][k]) for k in doc["name"])
        self.columns["parent"].extend(p + base if p >= 0 else -1 for p in doc["parent"])
        self.columns["start"].extend(doc["start"])
        self.columns["end"].extend(doc["end"])
        self.columns["op"].extend(self.op for _ in doc["op"])
        self._foreign_rows += doc["distinct_rows"]

    def layer_totals(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns); self time is a span's duration minus its children's."""
        names, parents, starts, ends = (self.columns[c] for c in COLUMNS[:4])
        child_ns = [0] * len(names)
        for parent, t0, t1 in zip(parents, starts, ends):
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for k, t0, t1, child in zip(names, starts, ends, child_ns):
            calls[k] += 1
            self_ns[k] += t1 - t0 - child
        return {name: (calls[k], self_ns[k]) for k, name in enumerate(self.names)}
