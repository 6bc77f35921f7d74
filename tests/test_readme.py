"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README}:quick start", "exec"), namespace)
    assert namespace["sol"].converged
    assert capsys.readouterr().out.startswith("True ")
