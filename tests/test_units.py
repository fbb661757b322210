"""The rule of the `units` docstring: every unit factor is a named number or
table there, and a conversion is that expression times the named constant."""

import io
import tokenize
from pathlib import Path

import neurobench
from neurobench import units

SRC = Path(neurobench.__file__).resolve().parent


def test_units_holds_numbers_and_tables_only():
    public = {name: value for name, value in vars(units).items() if not name.startswith("_")}
    public.pop("annotations")  # the `from __future__` feature
    assert public
    assert [name for name, value in public.items() if callable(value) or not isinstance(value, (float, dict))] == []


def test_no_other_module_writes_a_factor_in_exponent_form():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "units.py":
            continue
        for token in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
            text = token.string.lower()
            if token.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                found.append(f"{path.name}:{token.start[0]}: {token.string}")
    assert found == []
