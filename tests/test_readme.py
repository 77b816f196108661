"""The README's library example runs as written, so the documented API cannot rot."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "kmatrix.solve_s_recursion" in code
    exec(compile(code, str(README), "exec"), {})
