"""linas-moo benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload search_paper --seed 0 --seconds 35 --trace 0

With ``--trace 0`` the timed body repeats, untraced, until ``--seconds`` are
used (at least twice, so byte identity across repeats is checked) and the
end-to-end metrics are reported. With ``--trace 1`` untraced and traced
repetitions alternate; the per-layer metrics come from the last traced one
and its spans are written to ``.bench_run/<workload>-s<seed>/spans.csv``.
The last stdout line is the JSON result; the lines before it are a readable
report, including the SHA-256 of every output file.

Every time is normalized for the host's speed at the moment it was taken
(see ``hostspeed.py``): the VM this benchmark targets slows down by up to
40 % for minutes at a time. BLAS runs one thread, like the package's own
``--threads 1``, so the program uses one vCPU of the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
SETUP_REPEATS = 9

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("search_hv", "1"),
    ("mape_final", "%"),
    ("tau_final", "1"),
    ("ok_frac", "ratio"),
]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def time_setup(workload, host) -> float:
    """Median over repeats of a fresh-interpreter import plus input
    preparation, each normalized by the host factor probed just before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_REPEATS):
        factor = host.factor()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import linas_moo.cli"],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        workload.prepare()
        samples.append((time.perf_counter() - t0) / factor)
    return statistics.median(samples)


class Runner:
    """Timed repetitions of one workload with their checks and digests."""

    def __init__(self, workload, tracer_class, checks, host) -> None:
        self.workload = workload
        self.tracer_class = tracer_class
        self.checks = checks
        self.host = host
        self.times = {False: [], True: []}  # normalized seconds
        self.walls = {False: [], True: []}  # raw wall seconds
        self.factors: list[float] = []
        self.digests: list[dict[str, str]] = []
        self.tracer = None
        self.arm_seconds: dict[str, float] = {}

    def rep(self, traced: bool) -> None:
        w = self.workload
        shutil.rmtree(w.out, ignore_errors=True)
        if traced:
            with self.tracer_class() as tracer:
                calls, elapsed, wall, factor = self.host.timed(w.body)
            self.tracer = tracer
            self.arm_seconds = w.arm_seconds()
        else:
            calls, elapsed, wall, factor = self.host.timed(w.body)
        self.times[traced].append(elapsed)
        self.walls[traced].append(wall)
        self.factors.append(factor)
        for call in calls:
            if call.code != 0:
                print(f"{call.argv[0]} exited {call.code}: {call.stderr.strip()}", file=sys.stderr)
        self.digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
            for p in w.outputs()
        })
        try:
            w.check(calls, self.checks)
        except Exception as exc:  # a crash while checking is a failed check
            traceback.print_exc()
            self.checks.add(f"check_error:{type(exc).__name__}", False)

    def check_repeats(self) -> None:
        for name in self.digests[0]:
            values = {d.get(name) for d in self.digests}
            self.checks.add(f"repeat_identical:{name}", len(values) == 1 and "missing" not in values)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "linas_moo" / "__init__.py").is_file():
        print(f"error: no linas_moo sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from hostspeed import HostSpeed
    from tracing import Tracer
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-s{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)

    host = HostSpeed()
    setup_s = time_setup(workload, host)
    workload.warmup()
    runner = Runner(workload, Tracer, Checks(), host)
    start = time.perf_counter()
    with host:
        if args.trace:
            # Untraced and traced repetitions alternate; one pair at least.
            while not runner.walls[True] or (
                time.perf_counter() - start + runner.walls[False][-1] + runner.walls[True][-1]
                <= args.seconds
            ):
                runner.rep(False)
                runner.rep(True)
        else:
            while len(runner.walls[False]) < 2 or (
                time.perf_counter() - start + runner.walls[False][-1] <= args.seconds
            ):
                runner.rep(False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.check_repeats()

    run_s = statistics.median(runner.times[False])
    if args.trace:
        metrics = layers.layer_metrics(runner.tracer, runner.arm_seconds)
        # Span times are raw wall times of the last (traced) repetition; put
        # them on run_s's host-normalized scale.
        for name, unit, _ in layers.metric_spec():
            if unit == "s" and name in metrics:
                metrics[name] /= runner.factors[-1]
        traced_s = statistics.median(runner.times[True])
        metrics["trace.run_s_untraced"] = run_s
        metrics["trace.run_s_traced"] = traced_s
        metrics["trace.overhead_s"] = traced_s - run_s
        metrics["trace.wall_s_untraced"] = statistics.median(runner.walls[False])
        metrics["trace.host_factor"] = statistics.median(runner.factors)
        runner.checks.add(
            "real_evals",
            metrics["objective.real_evals"] == workload.real_evals,
        )
        runner.tracer.write(workdir / "spans.csv")
        units = {name: unit for name, unit, _ in layers.metric_spec()}
    else:
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb}
        metrics.update(workload.quality())
        units = dict(END_TO_END)

    checks = runner.checks
    attempted = len(checks.results)
    failed = len(checks.failed)
    if not args.trace:
        metrics["ok_frac"] = (attempted - failed) / attempted

    for key, traced in (("untraced", False), ("traced", True)):
        samples = runner.times[traced]
        if samples:
            print(f"run_s {key}: median {statistics.median(samples):.4f} s, "
                  f"max {max(samples):.4f} s, n={len(samples)}, "
                  f"samples {[round(t, 4) for t in samples]}, "
                  f"wall {[round(t, 4) for t in runner.walls[traced]]}")
    print(f"host factors {[round(f, 3) for f in runner.factors]}, "
          f"{len(host.samples)} probes")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4f}")
    for name in checks.failed:
        print(f"FAILED check {name}")
    digest_file = workdir / "digests.json"
    digest_file.write_text(json.dumps(runner.digests[-1], indent=2, sort_keys=True) + "\n")
    for name, digest in sorted(runner.digests[-1].items()):
        print(f"sha256 {args.workload} seed={args.seed} {name} {digest}")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
