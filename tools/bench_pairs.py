"""Run alternating parent/change benchmark pairs and write ``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pr N [--pairs 10] [--resume]

``DIR`` is the root of a source checkout (it holds ``src/``, ``perfbench/``
and ``BENCHMARK.json``). The parent must be a git work tree, so that the file
can name the commit it measured: make it with ``git worktree add DIR HEAD~1``
(or ``git clone``), not by unpacking ``git archive``; the runner refuses a
parent that is not one. The workloads and the run length come from the
change checkout's ``BENCHMARK.json`` (``workloads``, ``run_seconds``). Pair
``i`` of each workload runs

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

with seed ``S = 630 + i`` in each checkout, one after the other: the parent
first when ``i`` is even, the change first when it is odd, so slow drift of
the host does not favour one side. The file, written to ``BENCH_<pr>.json``
in the change checkout after every pair, holds every result line (``runs``),
the SHA-256 lines each run printed, and per workload and metric the median,
quartiles, min and max of each side (``summary``). With ``--resume``, the
complete pairs already in that file are kept and not run again, so an
interrupted session can be finished.

Host speed drifts between sessions, so compare medians only within one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from itertools import zip_longest
from pathlib import Path

SIDES = ("parent", "change")
FIRST_SEED = 630


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--resume", action="store_true")
    return parser.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    """One benchmark run: its JSON result line and its ``sha256`` lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1]), [line for line in lines if line.startswith("sha256 ")]


def stats(values: list[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``), min and max."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(runs: list[dict]) -> dict:
    """Per workload: pair count, seeds, per-metric stats of each side, how
    many SHA-256 lines matched or differed across pairs (a line one side
    did not print differs), and how many pairs the
    change ran faster (``run_s``) and by what median ratio."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = {i: p for i, p in sorted(pairs.items()) if len(p) == 2}
        sides = {s: [p[s] for p in pairs.values()] for s in SIDES}
        names = dict.fromkeys(n for r in sides["parent"] for n in r["result"]["metrics"])
        metrics = {
            name: {s: stats([r["result"]["metrics"][name]["value"] for r in sides[s]])
                   for s in SIDES}
            for name in names
        }
        run_s = [(p["parent"]["result"]["metrics"]["run_s"]["value"],
                  p["change"]["result"]["metrics"]["run_s"]["value"]) for p in pairs.values()]
        sha_lines = [line for p in pairs.values()
                     for line in zip_longest(p["parent"]["sha256"], p["change"]["sha256"])]
        out[workload] = {
            "pairs": len(pairs),
            "seeds": [p["parent"]["seed"] for p in pairs.values()],
            "metrics": metrics,
            "sha256_lines_equal": sum(a == b for a, b in sha_lines),
            "sha256_lines_differ": sum(a != b for a, b in sha_lines),
            "run_s_change_faster_pairs": sum(c < a for a, c in run_s),
            "run_s_median_pair_ratio": statistics.median(c / a for a, c in run_s) if run_s else None,
        }
    return out


def git_rev(checkout: Path) -> str | None:
    """The checkout's short commit hash, or ``None`` if it is not a git work tree."""
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    parent = git_rev(roots["parent"])
    if parent is None:
        print(f"bench_pairs: parent checkout {roots['parent']} is not a git work tree, so "
              "its commit cannot be named; make it with `git worktree add`", file=sys.stderr)
        return 2
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    out_path = roots["change"] / f"BENCH_{args.pr}.json"
    doc = {
        "what": "linas-moo benchmark pairs: parent commit vs this change, "
                "run one after the other on the same host",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0, each side in its own checkout (tools/bench_pairs.py)",
        "parent": parent,
        "order": "pairs alternate which side runs first (even pair index: parent first)",
        "host": f"{os.cpu_count()} vCPU {platform.machine()}, Python {platform.python_version()}, "
                f"numpy {metadata.version('numpy')}; times are host-normalized by "
                "perfbench/hostspeed.py",
        "summary": {},
        "runs": [],
    }
    if args.resume and out_path.exists():
        runs = json.loads(out_path.read_text())["runs"]
        sides: dict[tuple, int] = {}
        for r in runs:
            sides[r["workload"], r["pair"]] = sides.get((r["workload"], r["pair"]), 0) + 1
        doc["runs"] = [r for r in runs if sides[r["workload"], r["pair"]] == 2]
    done = {(r["workload"], r["pair"]) for r in doc["runs"]}
    for workload in workloads:
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            if (workload, i) in done:
                continue
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result, sha = run_once(roots[side], workload, seed, seconds)
                doc["runs"].append({"workload": workload, "seed": seed, "pair": i, "side": side,
                                    "trace": 0, "result": result, "sha256": sha})
            doc["summary"] = summarize(doc["runs"])
            out_path.write_text(json.dumps(doc, indent=1) + "\n")
            s = doc["summary"][workload]["metrics"]["run_s"]
            print(f"{workload} pair {i} seed {seed}: run_s median parent "
                  f"{s['parent']['median']:.4f} change {s['change']['median']:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
