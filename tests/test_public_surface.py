"""The public surface: the README's Quick start runs, and ``bkc.__all__`` is exact."""
import re
from pathlib import Path

import bkc

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Quick start)", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(float(value) > 0.0 for value in printed)


def test_every_public_name_resolves_once():
    assert len(bkc.__all__) == len(set(bkc.__all__))
    missing = [name for name in bkc.__all__ if not hasattr(bkc, name)]
    assert missing == []
