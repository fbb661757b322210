"""Import on demand: each entry point loads only the layers it runs.

Every case starts a fresh interpreter, does one thing and lists the
neurobench modules it then holds, and which of the standard modules that
no entry point needs it holds too.
"""

import dataclasses
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import neurobench

SRC = str(Path(neurobench.__file__).resolve().parent.parent)

PROBE = """
import contextlib, io, json, sys
import neurobench
argv = json.loads(sys.argv[1])
if argv == ["load_datasets"]:
    neurobench.load_datasets()
elif argv:
    from neurobench import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "neurobench" or m.startswith("neurobench."))))
print(json.dumps(sorted(m for m in sys.argv[2:] if m in sys.modules)))
"""

DATASET = {"ade", "registry", "units"}
# dataclasses alone imports inspect, ast, dis, tokenize, linecache and copy
UNNEEDED = ["dataclasses", "inspect"]
MODEL = {"chip", "circuits", "elements", "interconnect", "networks", "report", "workload"}


def _loaded(argv: list[str]) -> tuple[set[str], list[str]]:
    env = {k: v for k, v in os.environ.items() if k != "NEUROBENCH_DATA_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv), *UNNEEDED], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    ours, unneeded = map(json.loads, proc.stdout.splitlines())
    return {m.partition(".")[2] or m for m in ours}, unneeded


@pytest.mark.parametrize(
    "argv, expected",
    [
        ([], set()),
        (["load_datasets"], DATASET),
        (["devices", "list"], DATASET | {"cli"}),
        (
            ["topsdown", "--chip", "Loihi", "--workload", "speech_mlp"],
            DATASET | {"cli", "interconnect", "topsdown", "workload"},
        ),
        (["bench", "element", "--tech", "ANNDCSRAM"], DATASET | MODEL | {"cli"}),
        (["bench", "network", "--kind", "ONN"], DATASET | MODEL | {"cli"}),
        (["bench", "chip", "--nominal", "--tech", "ANNDCSRAM"], DATASET | MODEL | {"cli"}),
        (["bench", "workload", "--name", "mnist_mlp", "--tech", "ANNDCSRAM"], DATASET | MODEL | {"cli"}),
    ],
    ids=[
        "import", "load_datasets", "devices", "topsdown",
        "bench-element", "bench-network", "bench-chip", "bench-workload",
    ],
)
def test_entry_point_loads_only_its_layers(argv, expected):
    ours, unneeded = _loaded(argv)
    assert ours == {"neurobench"} | expected
    assert unneeded == []


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from neurobench import *", namespace)
    for name in neurobench.__all__:
        value = namespace[name]
        assert value is getattr(sys.modules[value.__module__], name)
    assert set(neurobench.__all__) <= set(dir(neurobench))
    with pytest.raises(AttributeError):
        neurobench.no_such_name


def test_dataclasses_are_the_chosen_ones():
    # every value type is a NamedTuple: the package defines no dataclass
    found = set()
    for info in pkgutil.iter_modules(neurobench.__path__):
        module = importlib.import_module(f"neurobench.{info.name}")
        found |= {
            f"{info.name}.{name}"
            for name, value in vars(module).items()
            if isinstance(value, type) and dataclasses.is_dataclass(value) and value.__module__ == module.__name__
        }
    assert found == set()
