"""The README's example, the API names it mentions and the export list stay true."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import linas_moo
from linas_moo import cli

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


# A backticked `Name`, `Name.attr`, either optionally called with arguments.
API_NAME = re.compile(r"([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?")


def test_every_readme_api_name_resolves():
    modules = {m.name for m in pkgutil.iter_modules(linas_moo.__path__)}
    checked, missing = set(), []
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        match = API_NAME.fullmatch(span)
        if not match or match.group(1) not in {*linas_moo.__all__, *modules}:
            continue
        name, attr = match.groups()
        checked.add((name, attr))
        if name in modules:
            owner = importlib.import_module(f"linas_moo.{name}")
        else:
            owner = getattr(linas_moo, name)
        if attr is not None and not hasattr(owner, attr):
            missing.append(span)
    assert missing == []
    assert len(checked) >= 20


def accepted_parameters(kind: str) -> set[str]:
    """The ``parameters`` the search config takes for ``kind``, as the refusal of an
    unknown one lists them."""
    with pytest.raises(cli.ConfigError) as refused:
        cli._validate_algorithm({"kind": kind, "parameters": {"?": 0}}, 250, 0)
    known = re.search(r"unknown field \(known: (.*)\)", str(refused.value)).group(1)
    return set(known.split(", ")) - {""}


def test_readme_lists_the_parameters_each_kind_accepts():
    text = README.read_text(encoding="utf-8")
    section = text.split("Each kind accepts", 1)[1].split("The names are the fields", 1)[0]
    listed = {
        kind: set(re.findall(r"`(\w+)`", names))
        for kind, names in re.findall(r"- `(\w+)`: (.*?)\.\n", section, re.S)
    }
    assert listed == {kind: accepted_parameters(kind) for kind in ("random", "nsga2", "linas")}
