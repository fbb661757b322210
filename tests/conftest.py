import itertools
import json
import shutil
from pathlib import Path

import pytest

from neurobench import derive, load_datasets
from neurobench.registry import default_data_dir


@pytest.fixture(scope="session")
def registry():
    return load_datasets()


@pytest.fixture(scope="session")
def constants(registry):
    return registry.constants


@pytest.fixture()
def data_copy(tmp_path):
    """Writable copy of the default dataset for corruption tests."""
    dst = tmp_path / "data"
    shutil.copytree(default_data_dir(), dst)
    return dst


def rewrite_json(path: Path, mutate):
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))


def json_leaves(node, path=()):
    """(path, value) of every leaf of a JSON document, a path being its keys and list indices."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_leaves(child, (*path, key))
    else:
        yield path, node


def derived_constants(registry, **values):
    """The constants of `registry` with top-level constants.json values set,
    through every loader check."""
    return derive(registry, {"constants.json": {(key,): value for key, value in values.items()}}).constants


# chip, chips file, the field set off its shipped value, that value, and the one line the back-fill raises
BACKFILL_BREAKS = [
    ("Diannao", "chips_accelerators.json", "power", 1e-320,
     "chip Diannao: back-filled energy_per_event 0 is not finite and positive"),
    ("HICANN", "chips_neuromorphic.json", "energy_per_event", 1e300,
     "chip HICANN: back-filled power inf is not finite and positive"),
    ("HICANN", "chips_neuromorphic.json", "fire_rate", 1e305,
     "chip HICANN: residual nan of throughput = fire_rate * activity * total_synapses is not finite"),
]


_tails = itertools.count(1)


def load_new(directory: Path, files=None):
    """A new registry, and so a new memo, of the values of `files` (default:
    the shipped dataset). `files` is written to `directory`, one file with a
    whitespace tail that no earlier call gave, so the bytes differ from every
    other load's in this process and make a content of their own. The tails
    rotate over the seven files, so no builder's cache fills with them."""
    if files is None:
        files = {path.name: path.read_bytes() for path in default_data_dir().glob("*.json")}
    n = next(_tails)
    padded = sorted(files)[n % len(files)]
    for name, data in files.items():
        (directory / name).write_bytes(data + b" " * n if name == padded else data)
    registry = load_datasets(directory)
    assert registry._memo == {}
    return registry
