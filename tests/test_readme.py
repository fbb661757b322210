"""The README's library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert namespace["low"].constants.supply_voltage == 0.7 and namespace["registry"].constants.supply_voltage == 0.8
    assert float(lines[-1]) < namespace["mlp"].energy  # a lower supply costs less energy
