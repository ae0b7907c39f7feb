"""The three benchmark workloads: configs, timed CLI calls, output checks, quality.

Every workload drives the package from outside: it writes a JSON config,
calls ``linas_moo.cli.main`` in-process and reads the files the CLI wrote.
The landscape is always ``SyntheticLandscape`` with seed 0, rho 0.8 and
sigma 0; the benchmark's ``--seed`` becomes the search or analysis seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import linas_moo
from linas_moo import cli

LANDSCAPE = {"kind": "synthetic", "seed": 0, "rho": 0.8, "sigma": 0.0}
OBJECTIVES = [
    {"name": "accuracy", "direction": "maximize"},
    {"name": "latency", "direction": "minimize"},
]
TRAIN_SIZES = list(range(100, 1001, 100))
PREDICTOR_KINDS = ["ridge", "svr_rbf", "stacked"]
PREDICTOR_TRIALS = 1
PREDICTOR_TEST_SIZE = 500


@dataclass
class Call:
    """One CLI command of a repetition and what it returned."""

    argv: list[str]
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> Call:
    """``cli.main`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return Call(argv, code, out.getvalue(), err.getvalue())


class Checks:
    """Named pass/fail output checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []

    def add(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    @property
    def failed(self) -> list[str]:
        return [name for name, ok in self.results if not ok]


class Workload:
    """Base: ``prepare`` is set-up, ``body`` is timed, the rest is checking."""

    name = ""
    space = ""
    real_evals = 0  # real evaluator rows one repetition must request

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.small = small  # a tiny config of the same commands, for warm-up
        self.workdir = workdir
        self.out = workdir / "out"
        self.config = workdir / "config.json"

    def config_obj(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Build the inputs through the public API and write the config."""
        space = linas_moo.builtin_space(self.space)
        linas_moo.SyntheticLandscape.from_seed(
            space, seed=LANDSCAPE["seed"], rho=LANDSCAPE["rho"], noise_sd=LANDSCAPE["sigma"]
        )
        space.cardinality()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config.write_text(json.dumps(self.config_obj(), indent=2) + "\n")

    def body(self) -> list[Call]:
        raise NotImplementedError

    def warmup(self) -> None:
        """Run the same CLI commands once, untimed, on a tiny config, so lazy
        imports and first calls are paid before timing."""
        tiny = type(self)(self.seed, self.workdir / "warmup", small=True)
        tiny.workdir.mkdir(parents=True, exist_ok=True)
        tiny.config.write_text(json.dumps(tiny.config_obj(), indent=2) + "\n")
        tiny.body()

    def outputs(self) -> list[Path]:
        """Files whose bytes must repeat for a repeated seed."""
        raise NotImplementedError

    def check(self, calls: list[Call], checks: Checks) -> None:
        for call in calls:
            checks.add(f"exit0:{call.argv[0]}", call.code == 0)

    def quality(self) -> dict[str, float]:
        """search_hv, mape_final and tau_final of the last repetition's outputs."""
        raise NotImplementedError


class SearchWorkload(Workload):
    """Shared parts of the two ``search`` workloads."""

    budget = 0
    headline = ""

    @property
    def real_evals(self) -> int:
        return self.budget * len(self.algorithms())

    def algorithms(self) -> list[dict]:
        raise NotImplementedError

    def config_obj(self) -> dict:
        return {
            "space": self.space,
            "evaluator": LANDSCAPE,
            "objectives": OBJECTIVES,
            "algorithms": self.algorithms(),
            "budget": 20 if self.small else self.budget,
            "seeds": [self.seed],
            "trace_stride": 10,
            "output_dir": str(self.out),
        }

    def kinds(self) -> list[str]:
        return [a["kind"] for a in self.algorithms()]

    def store(self, kind: str) -> Path:
        return self.out / f"{kind}_seed{self.seed}.jsonl"

    def trace(self, kind: str) -> Path:
        return self.out / f"{kind}_seed{self.seed}_trace.csv"

    def body(self) -> list[Call]:
        return [run_cli(["search", "-c", str(self.config), "--threads", "1"])]

    def outputs(self) -> list[Path]:
        files = [self.out / "summary.csv"]
        for kind in self.kinds():
            files += [self.store(kind), self.trace(kind)]
        return files

    def manifest(self) -> dict:
        return json.loads((self.out / "manifest.json").read_text())

    def arm_seconds(self) -> dict[str, float]:
        return {a["algorithm"]: a["wall_seconds"] for a in self.manifest()["arms"]}

    def final_hv(self, kind: str) -> float:
        with open(self.trace(kind), newline="") as fh:
            rows = list(csv.reader(fh))
        return float(rows[-1][1])

    def check(self, calls: list[Call], checks: Checks) -> None:
        super().check(calls, checks)
        manifest = self.manifest()
        space = linas_moo.builtin_space(self.space)
        bounds = tuple(np.array(manifest["objective_bounds"][k]) for k in ("lo", "hi"))
        specs = [linas_moo.ObjectiveSpec(o["name"], o["direction"]) for o in OBJECTIVES]
        for arm in manifest["arms"]:
            kind = arm["algorithm"]
            checks.add(f"arm_ok:{kind}", arm.get("status") == "ok")
            records = linas_moo.read_measurements_jsonl(self.store(kind))
            genotypes = {r.genotype for r in records}
            checks.add(
                f"store_budget:{kind}",
                len(records) == self.budget
                and len(genotypes) == self.budget
                and [r.eval_index for r in records] == list(range(1, self.budget + 1))
                and all(space.is_canonical(g) for g in genotypes),
            )
            F = linas_moo.oriented_values([r.values for r in records], specs)
            checks.add(
                f"trace_final_hv:{kind}",
                math.isclose(
                    self.final_hv(kind),
                    linas_moo.normalized_hypervolume(F, bounds),
                    rel_tol=1e-9,
                ),
            )

    def probe(self, train_kind: str, test_kind: str) -> tuple[float, float]:
        """MAPE and Kendall tau of a stacked accuracy predictor fitted on one
        arm's measurements and scored on another arm's unseen genotypes."""
        space = linas_moo.builtin_space(self.space)
        train = linas_moo.read_measurements_jsonl(self.store(train_kind))
        seen = {r.genotype for r in train}
        test = [r for r in linas_moo.read_measurements_jsonl(self.store(test_kind))
                if r.genotype not in seen]
        model = linas_moo.make_predictor("stacked", seed=self.seed)
        model.fit(
            linas_moo.featurize_batch(space, [r.genotype for r in train]),
            [r.values[0] for r in train],
        )
        pred = model.predict(linas_moo.featurize_batch(space, [r.genotype for r in test]))
        actual = np.array([r.values[0] for r in test])
        return linas_moo.mape(pred, actual), linas_moo.kendall_tau(pred, actual)

    def quality(self) -> dict[str, float]:
        mape, tau = self.probe(self.headline, "random")
        return {"search_hv": self.final_hv(self.headline), "mape_final": mape, "tau_final": tau}


class SearchPaper(SearchWorkload):
    name = "search_paper"
    space = "mobilenetv3"
    budget = 250
    headline = "linas"

    def algorithms(self) -> list[dict]:
        pop, iterations, inner = (10, 2, 500) if self.small else (50, 5, 20_000)
        return [
            {"kind": "linas", "parameters": {
                "population_size": pop, "iterations": iterations, "inner_evaluations": inner,
                "predictor_kinds": ["stacked", "ridge"]}},
            {"kind": "nsga2", "parameters": {"population_size": pop}},
            {"kind": "random"},
        ]

    def check(self, calls: list[Call], checks: Checks) -> None:
        super().check(calls, checks)
        records = linas_moo.read_measurements_jsonl(self.store("linas"))
        per_iteration = [sum(r.iteration == it for r in records) for it in range(1, 6)]
        checks.add("linas_50_per_iteration", per_iteration == [50] * 5)


class BaselinesLarge(SearchWorkload):
    name = "baselines_large"
    space = "mobilenetv3"
    budget = 1000
    headline = "nsga2"

    def algorithms(self) -> list[dict]:
        return [
            {"kind": "nsga2", "parameters": {"population_size": 10 if self.small else 50}},
            {"kind": "random"},
        ]

    def front(self, kind: str) -> Path:
        return self.out / f"{kind}_front.csv"

    def body(self) -> list[Call]:
        calls = super().body()
        for kind in self.kinds():
            store = str(self.store(kind))
            calls.append(run_cli(["pareto", "-i", store, "-o", str(self.front(kind)),
                                  "--directions", "max,min"]))
            calls.append(run_cli(["hypervolume", "-i", store, "--normalized",
                                  "--directions", "max,min"]))
        return calls

    def outputs(self) -> list[Path]:
        return super().outputs() + [self.front(kind) for kind in self.kinds()]

    def check(self, calls: list[Call], checks: Checks) -> None:
        super().check(calls, checks)
        specs = [linas_moo.ObjectiveSpec(o["name"], o["direction"]) for o in OBJECTIVES]
        hv_calls = [c for c in calls if c.argv[0] == "hypervolume"]
        for kind, hv_call in zip(self.kinds(), hv_calls):
            records = linas_moo.read_measurements_jsonl(self.store(kind))
            F = linas_moo.oriented_values([r.values for r in records], specs)
            with open(self.front(kind), newline="") as fh:
                front_rows = len(list(csv.reader(fh))) - 1
            checks.add(f"pareto_rows:{kind}",
                       front_rows == int(linas_moo.nondominated_mask(F).sum()))
            expected = linas_moo.normalized_hypervolume(F, linas_moo.union_bounds([F]))
            checks.add(f"hypervolume_value:{kind}",
                       hv_call.code == 0
                       and math.isclose(float(hv_call.stdout.strip()), expected, rel_tol=1e-12))


class PredictorCurves(Workload):
    name = "predictor_curves"
    space = "ncf"
    real_evals = max(TRAIN_SIZES) + PREDICTOR_TEST_SIZE

    def config_obj(self) -> dict:
        return {
            "space": self.space,
            "evaluator": LANDSCAPE,
            "target_index": 0,
            "kinds": PREDICTOR_KINDS,
            "train_sizes": [50, 100] if self.small else TRAIN_SIZES,
            "trials": PREDICTOR_TRIALS,
            "test_size": 50 if self.small else PREDICTOR_TEST_SIZE,
            "seed": self.seed,
            "output_dir": str(self.out),
        }

    def report(self) -> Path:
        return self.out / "predictor_report.csv"

    def body(self) -> list[Call]:
        return [run_cli(["predictor-analysis", "-c", str(self.config)])]

    def outputs(self) -> list[Path]:
        return [self.report()]

    def rows(self) -> list[dict]:
        with open(self.report(), newline="") as fh:
            return list(csv.DictReader(fh))

    def arm_seconds(self) -> dict[str, float]:
        return {}

    def check(self, calls: list[Call], checks: Checks) -> None:
        super().check(calls, checks)
        keys = [(int(r["train_size"]), r["kind"]) for r in self.rows()]
        expected = [(s, k) for s in TRAIN_SIZES for k in PREDICTOR_KINDS]
        checks.add("report_rows", sorted(keys) == sorted(expected) and len(set(keys)) == len(keys))

    def quality(self) -> dict[str, float]:
        stacked = [r for r in self.rows() if r["kind"] == "stacked"]
        final = next(r for r in stacked if int(r["train_size"]) == max(TRAIN_SIZES))
        # Learning-curve hypervolume: how much of the (train size, MAPE) box the
        # stacked curve dominates; higher means the error falls at smaller sizes.
        curve = np.array([[float(r["train_size"]), float(r["mape_mean"])] for r in stacked])
        return {
            "search_hv": linas_moo.normalized_hypervolume(curve, linas_moo.union_bounds([curve])),
            "mape_final": float(final["mape_mean"]),
            "tau_final": float(final["tau_mean"]),
        }


WORKLOADS = {w.name: w for w in (SearchPaper, BaselinesLarge, PredictorCurves)}

