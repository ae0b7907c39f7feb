"""The pair runner's summary, on canned result lines (no subprocess)."""

import importlib.util
import statistics
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def run(workload, pair, side, run_s, rss, sha):
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": workload, "seed": 630 + pair, "pair": pair, "side": side, "trace": 0,
            "result": {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics},
            "sha256": sha}


PARENT_RUN_S = [2.0, 2.2, 1.9, 2.1, 2.4]
CHANGE_RUN_S = [1.8, 2.0, 2.0, 1.7, 2.1]


def canned_runs():
    runs = []
    for i, (a, c) in enumerate(zip(PARENT_RUN_S, CHANGE_RUN_S)):
        sha_change = ["sha256 w seed=1 x.csv ab", "sha256 w seed=1 y.csv cd" if i != 3 else "zz"]
        if i == 4:  # a run that prints fewer lines differs on the missing one
            sha_change = sha_change[:1]
        order = [("parent", a, 60.0, ["sha256 w seed=1 x.csv ab", "sha256 w seed=1 y.csv cd"]),
                 ("change", c, 59.0 + i, sha_change)]
        for side, run_s, rss, sha in order if i % 2 == 0 else order[::-1]:
            runs.append(run("search_paper", i, side, run_s, rss, sha))
    # An unfinished pair of a second workload counts nowhere.
    runs.append(run("baselines_large", 0, "parent", 0.2, 50.0, []))
    return runs


def test_summary_counts_pairs_wins_and_digests():
    summary = bench_pairs.summarize(canned_runs())
    s = summary["search_paper"]
    assert s["pairs"] == 5
    assert s["seeds"] == [630, 631, 632, 633, 634]
    assert s["run_s_change_faster_pairs"] == 4
    assert s["sha256_lines_equal"] == 8
    assert s["sha256_lines_differ"] == 2
    ratios = [c / a for a, c in zip(PARENT_RUN_S, CHANGE_RUN_S)]
    assert s["run_s_median_pair_ratio"] == pytest.approx(statistics.median(ratios))
    assert summary["baselines_large"]["pairs"] == 0


def test_summary_stats_are_quartiles_per_side():
    s = bench_pairs.summarize(canned_runs())["search_paper"]["metrics"]
    q1, median, q3 = statistics.quantiles(PARENT_RUN_S, n=4)
    assert s["run_s"]["parent"] == {
        "median": median, "q1": q1, "q3": q3, "min": 1.9, "max": 2.4,
    }
    assert s["run_s"]["parent"]["median"] == 2.1
    assert s["run_s"]["change"]["median"] == 2.0
    assert s["peak_rss_mb"]["change"]["min"] == 59.0
    assert s["peak_rss_mb"]["change"]["max"] == 63.0
    assert s["peak_rss_mb"]["parent"]["q1"] == s["peak_rss_mb"]["parent"]["q3"] == 60.0


def test_refuses_a_parent_that_is_not_a_git_work_tree(tmp_path, capsys):
    parent = tmp_path / "parent"
    parent.mkdir()
    change = Path(__file__).resolve().parents[1]
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--pr", "0"]) != 0
    assert str(parent) in capsys.readouterr().err
    assert not (change / "BENCH_0.json").exists()
