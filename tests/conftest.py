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


def derived_constants(registry, **values):
    """The constants of `registry` with top-level constants.json values set,
    through every loader check."""
    return derive(registry, {"constants.json": {(key,): value for key, value in values.items()}}).constants
