"""The in-process A/B timer on its tiny case: A/A equal, a changed tree differs."""

import importlib.util
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_inprocess", _ROOT / "tools" / "ab_inprocess.py")
ab_inprocess = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_inprocess)


def tiny_row(parent, change, capsys) -> str:
    argv = ["--parent", str(parent), "--change", str(change), "--case", "linas_tiny", "--pairs", "2"]
    assert ab_inprocess.main(argv) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("case") and row.startswith("linas_tiny")
    return row


def test_same_tree_on_both_sides_has_equal_outputs(capsys):
    row = tiny_row(_ROOT, _ROOT, capsys)
    assert row.endswith(" equal") and "/2 " in row


def test_each_side_runs_its_own_checkout(tmp_path, capsys):
    changed = tmp_path / "changed"
    shutil.copytree(_ROOT / "src", changed / "src", ignore=shutil.ignore_patterns("__pycache__"))
    moea = changed / "src" / "linas_moo" / "moea.py"
    text = moea.read_text()
    assert "_SEARCH_SEED_TAG = 0x5EED\n" in text
    moea.write_text(text.replace("_SEARCH_SEED_TAG = 0x5EED\n", "_SEARCH_SEED_TAG = 0x5EEE\n"))
    assert tiny_row(_ROOT, changed, capsys).endswith(" DIFFER")
    # The copy alone, on both sides, agrees with itself.
    assert tiny_row(changed, changed, capsys).endswith(" equal")
