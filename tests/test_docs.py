"""The README's library example and the package's export list stay true."""

import re
from pathlib import Path

import linas_moo

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "250 measurements"
    assert len(lines) >= 3


def test_every_exported_name_resolves():
    missing = [name for name in linas_moo.__all__ if not hasattr(linas_moo, name)]
    assert missing == []
    assert len(set(linas_moo.__all__)) == len(linas_moo.__all__)
