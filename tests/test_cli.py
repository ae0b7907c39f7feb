"""Command-line contract: exit codes, file outputs, determinism."""

import csv
import json
import math

import numpy as np
import pytest

from linas_moo.cli import main
from linas_moo.metrics import hv_trace
from linas_moo.objective import (
    MAXIMIZE,
    MINIMIZE,
    EvaluationStore,
    ObjectiveSpec,
    TabularEvaluator,
    read_measurement_columns,
)
from linas_moo.space import builtin_space

ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


def write_config(tmp_path, cfg, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def base_config(tmp_path, **overrides):
    cfg = {
        "space": "ncf",
        "evaluator": {"kind": "synthetic", "seed": 0, "rho": 0.8, "sigma": 0.0},
        "objectives": [
            {"name": "accuracy", "direction": "maximize"},
            {"name": "latency", "direction": "minimize"},
        ],
        "algorithms": [{"kind": "random"}],
        "budget": 10,
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
        "trace_stride": 10,
    }
    cfg.update(overrides)
    return cfg


def write_toy_space(tmp_path, space):
    p = tmp_path / "toy_space.json"
    p.write_text(space.to_json(), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class TestSpacesCommand:
    def test_builtin_prints_cardinality_and_magnitude(self, capsys):
        assert main(["spaces", "ncf"]) == 0
        out = capsys.readouterr().out
        assert "cardinality: 7489800" in out
        assert "magnitude: 7" in out
        assert '"variables"' in out

    def test_unknown_kind_exits_2(self, capsys):
        assert main(["spaces", "not-a-space"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_space_file_path(self, tmp_path, capsys, free_space):
        path = write_toy_space(tmp_path, free_space)
        assert main(["spaces", path]) == 0
        assert "cardinality: 24" in capsys.readouterr().out

    def test_single_option_space_has_cardinality_one(self, tmp_path, capsys):
        obj = {
            "name": "point",
            "variables": [{"name": "only", "options": [3], "group": ""}],
            "rules": [],
        }
        p = tmp_path / "point.json"
        p.write_text(json.dumps(obj), encoding="utf-8")
        assert main(["spaces", str(p)]) == 0
        assert "cardinality: 1" in capsys.readouterr().out


class TestSearchCommand:
    def test_minimal_run_counts(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["search", "-c", write_config(tmp_path, base_config(tmp_path))]) == 0
        lines = (out_dir / "random_seed0.jsonl").read_text().splitlines()
        assert len(lines) == 10
        trace = read_csv(out_dir / "random_seed0_trace.csv")
        assert trace[0] == ["eval_count", "hypervolume"]
        assert len(trace) == 2 and trace[1][0] == "10"
        assert (out_dir / "summary.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["arms"][0]["status"] == "ok"
        assert manifest["arms"][0]["evaluations"] == 10
        assert len(manifest["config_sha256"]) == 64

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_a = base_config(
            tmp_path,
            output_dir=str(tmp_path / "a"),
            algorithms=[
                {"kind": "linas", "parameters": {"population_size": 5, "inner_evaluations": 50}},
                {"kind": "nsga2", "parameters": {"population_size": 5}},
                {"kind": "random"},
            ],
            budget=20,
            seeds=[0, 1],
        )
        cfg_b = dict(cfg_a, output_dir=str(tmp_path / "b"))
        assert main(["search", "-c", write_config(tmp_path, cfg_a, "a.json")]) == 0
        assert main(["search", "-c", write_config(tmp_path, cfg_b, "b.json")]) == 0
        names = [
            f"{kind}_seed{seed}{suffix}"
            for kind in ("linas", "nsga2", "random")
            for seed in (0, 1)
            for suffix in (".jsonl", "_trace.csv")
        ] + ["summary.csv"]
        for name in names:
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_threads_flag_accepts_only_one(self, tmp_path, capsys):
        cfg_a = base_config(
            tmp_path,
            output_dir=str(tmp_path / "plain"),
            algorithms=[
                {"kind": "linas", "parameters": {"population_size": 5, "inner_evaluations": 50}},
                {"kind": "random"},
            ],
            budget=15,
            seeds=[0, 1, 2],
        )
        cfg_b = dict(cfg_a, output_dir=str(tmp_path / "one"))
        assert main(["search", "-c", write_config(tmp_path, cfg_a, "plain.json")]) == 0
        assert main(
            ["search", "-c", write_config(tmp_path, cfg_b, "one.json"), "--threads", "1"]
        ) == 0
        for kind in ("linas", "random"):
            for seed in (0, 1, 2):
                for suffix in (".jsonl", "_trace.csv"):
                    name = f"{kind}_seed{seed}{suffix}"
                    assert (tmp_path / "plain" / name).read_bytes() == (
                        tmp_path / "one" / name
                    ).read_bytes()
        assert (tmp_path / "plain" / "summary.csv").read_bytes() == (
            tmp_path / "one" / "summary.csv"
        ).read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "-c", write_config(tmp_path, cfg_b, "one.json"), "--threads", "3"])
        assert excinfo.value.code == 2
        assert "--threads: invalid choice: 3" in capsys.readouterr().err

    def test_summary_round_trips_from_emitted_files(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = base_config(tmp_path, budget=30, seeds=[0, 1], trace_stride=10)
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        lo = np.array(manifest["objective_bounds"]["lo"])
        hi = np.array(manifest["objective_bounds"]["hi"])
        area = float(np.prod(hi - lo))
        per_seed = {}
        for seed in (0, 1):
            cols = read_measurement_columns(out_dir / f"random_seed{seed}.jsonl")
            store = EvaluationStore(builtin_space("ncf"), ACC_LAT)
            assert store.insert_batch(cols.genotypes, cols.values, source="random") == len(cols)
            trace = hv_trace(store, reference=hi, stride=10)
            per_seed[seed] = [v / area for v in trace.hypervolumes]
            csv_rows = read_csv(out_dir / f"random_seed{seed}_trace.csv")[1:]
            for row, expected in zip(csv_rows, per_seed[seed]):
                assert float(row[1]) == expected
        summary = read_csv(out_dir / "summary.csv")[1:]
        for i, row in enumerate(summary):
            vals = [per_seed[0][i], per_seed[1][i]]
            assert float(row[2]) == pytest.approx(np.mean(vals), abs=1e-15)
            assert float(row[3]) == pytest.approx(
                np.std(vals, ddof=1) / math.sqrt(2), abs=1e-15
            )

    def test_latency_normalized_field(self, tmp_path):
        out_dir = tmp_path / "out"
        assert main(["search", "-c", write_config(tmp_path, base_config(tmp_path))]) == 0
        lines = [
            json.loads(line)
            for line in (out_dir / "random_seed0.jsonl").read_text().splitlines()
        ]
        lats = [rec["values"][1] for rec in lines]
        lo, hi = min(lats), max(lats)
        for rec in lines:
            assert rec["latency_normalized"] == pytest.approx(
                (rec["values"][1] - lo) / hi
            )

    def test_no_latency_name_no_extra_field(self, tmp_path):
        cfg = base_config(
            tmp_path,
            objectives=[
                {"name": "score", "direction": "maximize"},
                {"name": "cost", "direction": "minimize"},
            ],
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 0
        line = json.loads(
            (tmp_path / "out" / "random_seed0.jsonl").read_text().splitlines()[0]
        )
        assert "latency_normalized" not in line
        assert set(line) == {"eval_index", "genotype", "values", "source", "iteration"}

    def test_linas_iterations_derived_from_budget(self, tmp_path):
        cfg = base_config(
            tmp_path,
            algorithms=[{"kind": "linas", "parameters": {"population_size": 5, "inner_evaluations": 50}}],
            budget=15,
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 0
        cols = read_measurement_columns(tmp_path / "out" / "linas_seed0.jsonl")
        assert cols.iteration == [1] * 5 + [2] * 5 + [3] * 5

    def test_failed_arm_marks_manifest_and_exits_3(self, tmp_path, free_space, capsys):
        table = {
            (a, b, c): (float(a + b + c), float(a))
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if a >= 2
        }
        csv_path = tmp_path / "table.csv"
        TabularEvaluator(free_space, table, 2).write_csv(csv_path)
        cfg = base_config(
            tmp_path,
            space=write_toy_space(tmp_path, free_space),
            evaluator={"kind": "tabular", "path": str(csv_path), "missing_policy": "error"},
            budget=5,
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 3
        assert "failed" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["arms"][0]["status"] == "failed"
        assert "UnknownConfigurationError" in manifest["arms"][0]["error"]

    def test_failed_and_completed_arms_keep_config_order(self, tmp_path, free_space, capsys):
        table = {
            (a, b, c): (float(a + b + c), float(b + 2 * c))
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if a >= 2
        }
        csv_path = tmp_path / "table.csv"
        TabularEvaluator(free_space, table, 2).write_csv(csv_path)
        cfg = base_config(
            tmp_path,
            space=write_toy_space(tmp_path, free_space),
            evaluator={"kind": "tabular", "path": str(csv_path), "missing_policy": "error"},
            budget=2,
            seeds=[0, 1],
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and err_lines[0].startswith("arm random_seed0 failed: ")
        out_dir = tmp_path / "out"
        arms = json.loads((out_dir / "manifest.json").read_text())["arms"]
        assert [(a["seed"], a["status"]) for a in arms] == [(0, "failed"), (1, "ok")]
        assert "store" not in arms[0] and "trace" not in arms[0]
        assert arms[1]["store"] == "random_seed1.jsonl"
        assert arms[1]["trace"] == "random_seed1_trace.csv"
        assert not (out_dir / "random_seed0.jsonl").exists()
        trace = read_csv(out_dir / "random_seed1_trace.csv")[1:]
        assert read_csv(out_dir / "summary.csv")[1:] == [
            ["random", count, hv, "0.0"] for count, hv in trace
        ]

    def test_failed_arm_does_not_hide_a_degenerate_scale(self, tmp_path, free_space, capsys):
        # Seed 0 misses the table; seed 1's two rows share the second objective.
        table = {
            (a, b, c): (float(a + b + c), 1.0)
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if a >= 2
        }
        csv_path = tmp_path / "table.csv"
        TabularEvaluator(free_space, table, 2).write_csv(csv_path)
        cfg = base_config(
            tmp_path,
            space=write_toy_space(tmp_path, free_space),
            evaluator={"kind": "tabular", "path": str(csv_path), "missing_policy": "error"},
            budget=2,
            seeds=[0, 1],
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 3
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 2
        assert err_lines[0].startswith("arm random_seed0 failed: ")
        assert err_lines[1].startswith("error: degenerate objective scale: ")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"] == err_lines[1][len("error: "):]

    def test_tabular_nearest_reject_completes(self, tmp_path, free_space):
        table = {
            (a, b, c): (float(a + b + c), float(a))
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if a >= 2
        }
        csv_path = tmp_path / "table.csv"
        TabularEvaluator(free_space, table, 2).write_csv(csv_path)
        cfg = base_config(
            tmp_path,
            space=write_toy_space(tmp_path, free_space),
            evaluator={
                "kind": "tabular",
                "path": str(csv_path),
                "missing_policy": "nearest-reject",
            },
            budget=8,
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 0
        cols = read_measurement_columns(tmp_path / "out" / "random_seed0.jsonl")
        assert len(cols) == 8
        assert set(map(tuple, cols.genotypes.tolist())) <= table.keys()

    def test_capacity_exit_4(self, tmp_path, free_space, capsys):
        cfg = base_config(
            tmp_path, space=write_toy_space(tmp_path, free_space), budget=50
        )
        assert main(["search", "-c", write_config(tmp_path, cfg)]) == 4
        assert "capacity error" in capsys.readouterr().err


class TestSearchConfigErrors:
    def run(self, tmp_path, cfg, capsys):
        code = main(["search", "-c", write_config(tmp_path, cfg)])
        return code, capsys.readouterr().err

    def test_missing_budget(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        del cfg["budget"]
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "budget: missing required field" in err

    def test_bad_direction_has_field_path(self, tmp_path, capsys):
        cfg = base_config(tmp_path)
        cfg["objectives"][1]["direction"] = "down"
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "objectives[1].direction" in err

    def test_unknown_algorithm_kind(self, tmp_path, capsys):
        cfg = base_config(tmp_path, algorithms=[{"kind": "anneal"}])
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "algorithms[0].kind" in err

    def test_unknown_parameter_name(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            algorithms=[{"kind": "nsga2", "parameters": {"popsize": 5}}],
        )
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "algorithms[0].parameters.popsize" in err

    def test_linas_budget_not_multiple(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            algorithms=[{"kind": "linas", "parameters": {"population_size": 7}}],
            budget=20,
        )
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "not a multiple" in err

    def test_duplicate_seeds(self, tmp_path, capsys):
        cfg = base_config(tmp_path, seeds=[1, 1])
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "seeds" in err

    def test_duplicate_algorithm_kinds(self, tmp_path, capsys):
        cfg = base_config(tmp_path, algorithms=[{"kind": "random"}, {"kind": "random"}])
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "unique" in err

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg = base_config(tmp_path, extra_knob=1)
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "extra_knob" in err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["search", "-c", str(p)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["search", "-c", str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_synthetic_needs_two_objectives(self, tmp_path, capsys):
        cfg = base_config(
            tmp_path,
            objectives=[{"name": "accuracy", "direction": "maximize"}],
        )
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and "objectives" in err

    @pytest.mark.parametrize("key", ["accuracy_range", "latency_range"])
    def test_synthetic_range_rejects_bool(self, tmp_path, capsys, key):
        cfg = base_config(tmp_path)
        cfg["evaluator"][key] = [True, 5]
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and f"evaluator.{key}: expected [low, high]" in err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["search"])
        assert excinfo.value.code == 2

    def algorithm(self, tmp_path, kind, parameters, budget=10):
        algo = {"kind": kind, "parameters": parameters}
        return base_config(tmp_path, algorithms=[algo], budget=budget)

    @pytest.mark.parametrize("kind", ["nsga2", "linas"])
    @pytest.mark.parametrize(
        "value, got", [("5", "str"), (True, "bool"), (5.0, "float")]
    )
    def test_population_size_must_be_int(self, tmp_path, capsys, kind, value, got):
        cfg = self.algorithm(tmp_path, kind, {"population_size": value})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert f"algorithms[0].parameters.population_size: expected int, got {got}" in err

    @pytest.mark.parametrize("kind", ["nsga2", "linas"])
    def test_int_probability_is_accepted_as_float(self, tmp_path, capsys, kind):
        params = {"population_size": 5, "crossover_prob": 1}
        if kind == "linas":
            params["inner_evaluations"] = 50
        code, err = self.run(tmp_path, self.algorithm(tmp_path, kind, params), capsys)
        assert code == 0, err

    @pytest.mark.parametrize("kind", ["nsga2", "linas"])
    def test_population_size_below_two(self, tmp_path, capsys, kind):
        cfg = self.algorithm(tmp_path, kind, {"population_size": 1})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert "algorithms[0].parameters: population_size must be at least 2" in err

    def test_stacked_linas_population_below_fold_count(self, tmp_path, capsys):
        params = {"population_size": 2, "inner_evaluations": 50, "predictor_kinds": ["stacked"]}
        code, err = self.run(tmp_path, self.algorithm(tmp_path, "linas", params), capsys)
        assert code == 2
        assert "algorithms[0].parameters: population_size must be at least 5 with a stacked" in err
        assert not (tmp_path / "out").exists()

    def test_linas_iterations_must_match_budget(self, tmp_path, capsys):
        cfg = self.algorithm(tmp_path, "linas", {"population_size": 5, "iterations": 3})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert (
            "algorithms[0].parameters.iterations: population_size * iterations = 15 "
            "but the budget is 10"
        ) in err

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("ridge", ".predictor_kinds: expected a list of kind names"),
            ([1], ".predictor_kinds: expected a list of kind names"),
            ([], ": need at least one predictor kind"),
            (["gp"], ": unknown predictor kind 'gp'"),
        ],
    )
    def test_predictor_kinds_form(self, tmp_path, capsys, kinds, message):
        cfg = self.algorithm(
            tmp_path, "linas", {"population_size": 5, "predictor_kinds": kinds}
        )
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2 and f"algorithms[0].parameters{message}" in err

    def test_random_takes_no_parameters(self, tmp_path, capsys):
        cfg = self.algorithm(tmp_path, "random", {"population_size": 5})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert "algorithms[0].parameters.population_size: unknown field" in err

    @pytest.mark.parametrize(
        "kind, known",
        [
            ("nsga2", "crossover_prob, mutation_prob, population_size"),
            (
                "linas",
                "crossover_prob, inner_evaluations, iterations, mutation_prob, "
                "population_size, predictor_kinds",
            ),
        ],
    )
    @pytest.mark.parametrize(
        "key", ["seed", "source", "max_evaluations", "max_generations"]
    )
    def test_search_owned_fields_are_not_parameters(
        self, tmp_path, capsys, kind, known, key
    ):
        cfg = self.algorithm(tmp_path, kind, {key: 1})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert f"algorithms[0].parameters.{key}: unknown field (known: {known})" in err

    def test_stall_generations_is_not_a_parameter(self, tmp_path, capsys):
        # The stall stop is a constant of the NSGA-II loop, not an option.
        cfg = self.algorithm(tmp_path, "nsga2", {"stall_generations": 10})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert "algorithms[0].parameters.stall_generations: unknown field" in err

    @pytest.mark.parametrize("key", ["crossover_prob", "mutation_prob"])
    def test_linas_probability_out_of_range(self, tmp_path, capsys, key):
        cfg = self.algorithm(tmp_path, "linas", {"population_size": 5, key: -1})
        code, err = self.run(tmp_path, cfg, capsys)
        assert code == 2
        assert f"algorithms[0].parameters: {key} must lie in [0, 1]" in err
        assert not list((tmp_path / "out").glob("*.jsonl"))


class TestPredictorAnalysisCommand:
    def test_report_row_counts(self, tmp_path):
        cfg = {
            "space": "ncf",
            "evaluator": {"kind": "synthetic", "seed": 0},
            "kinds": ["ridge", "svr_rbf"],
            "train_sizes": [40, 80],
            "trials": 2,
            "test_size": 60,
            "seed": 0,
            "output_dir": str(tmp_path / "rep"),
        }
        assert main(["predictor-analysis", "-c", write_config(tmp_path, cfg)]) == 0
        rows = read_csv(tmp_path / "rep" / "predictor_report.csv")
        assert rows[0] == [
            "train_size", "kind", "mape_mean", "mape_stderr", "tau_mean", "tau_stderr"
        ]
        assert len(rows) == 1 + 2 * 2
        assert {r[1] for r in rows[1:]} == {"ridge", "svr_rbf"}

    def test_capacity_exit_4(self, tmp_path, free_space, capsys):
        cfg = {
            "space": write_toy_space(tmp_path, free_space),
            "evaluator": {"kind": "synthetic", "seed": 0},
            "train_sizes": [50],
            "trials": 1,
            "test_size": 100,
            "output_dir": str(tmp_path / "rep"),
        }
        assert main(["predictor-analysis", "-c", write_config(tmp_path, cfg)]) == 4
        assert "capacity error" in capsys.readouterr().err

    def test_rejected_samples_exit_3(self, tmp_path, free_space, capsys):
        table = {(a, b, c): (float(a + b + c), float(a))
                 for a in range(2, 4) for b in range(3) for c in range(2)}
        csv_path = tmp_path / "table.csv"
        TabularEvaluator(free_space, table, 2).write_csv(csv_path)
        cfg = {
            "space": write_toy_space(tmp_path, free_space),
            "evaluator": {"kind": "tabular", "path": str(csv_path),
                          "missing_policy": "nearest-reject"},
            "train_sizes": [5],
            "trials": 1,
            "test_size": 10,
            "output_dir": str(tmp_path / "rep"),
        }
        assert main(["predictor-analysis", "-c", write_config(tmp_path, cfg)]) == 3
        assert "rejected" in capsys.readouterr().err

    def test_bad_kind_exit_2(self, tmp_path, capsys):
        cfg = {
            "space": "ncf",
            "evaluator": {"kind": "synthetic"},
            "kinds": ["linear"],
            "output_dir": str(tmp_path / "rep"),
        }
        assert main(["predictor-analysis", "-c", write_config(tmp_path, cfg)]) == 2
        assert "kinds" in capsys.readouterr().err

    def rejected_before_sampling(self, tmp_path, capsys, monkeypatch, **overrides):
        """Run a config that must fail validation; sampling would raise."""

        def no_sampling(seed):
            raise AssertionError("the dataset was sampled before validation")

        monkeypatch.setattr("linas_moo.cli.search_rng", no_sampling)
        cfg = {
            "space": "ncf",
            "evaluator": {"kind": "synthetic", "seed": 0},
            "kinds": ["stacked"],
            "train_sizes": [20],
            "trials": 1,
            "test_size": 5,
            "output_dir": str(tmp_path / "rep"),
            **overrides,
        }
        code = main(["predictor-analysis", "-c", write_config(tmp_path, cfg)])
        assert not (tmp_path / "rep").exists()
        return code, capsys.readouterr().err

    def test_bool_train_size_exit_2(self, tmp_path, capsys, monkeypatch):
        code, err = self.rejected_before_sampling(
            tmp_path, capsys, monkeypatch, train_sizes=[True]
        )
        assert code == 2 and "train_sizes: expected a non-empty list" in err

    def test_train_size_below_stack_folds_exit_2(self, tmp_path, capsys, monkeypatch):
        code, err = self.rejected_before_sampling(
            tmp_path, capsys, monkeypatch, train_sizes=[3, 20]
        )
        assert code == 2 and "train_sizes: stacked needs at least 5" in err

    def test_single_row_train_size_exit_2(self, tmp_path, capsys, monkeypatch):
        code, err = self.rejected_before_sampling(
            tmp_path, capsys, monkeypatch, kinds=["ridge"], train_sizes=[1]
        )
        assert code == 2 and "train_sizes: a fit on 1 row predicts a constant" in err

    def test_small_train_size_without_stacked_is_accepted(self, tmp_path):
        cfg = {
            "space": "ncf",
            "evaluator": {"kind": "synthetic", "seed": 0},
            "kinds": ["ridge"],
            "train_sizes": [3],
            "trials": 1,
            "test_size": 20,
            "output_dir": str(tmp_path / "rep"),
        }
        assert main(["predictor-analysis", "-c", write_config(tmp_path, cfg)]) == 0

    def test_zero_trials_exit_2(self, tmp_path, capsys, monkeypatch):
        code, err = self.rejected_before_sampling(tmp_path, capsys, monkeypatch, trials=0)
        assert code == 2 and "trials: must be positive" in err

    @pytest.mark.parametrize("test_size", [0, 1])
    def test_test_size_below_two_exit_2(self, tmp_path, capsys, monkeypatch, test_size):
        code, err = self.rejected_before_sampling(
            tmp_path, capsys, monkeypatch, test_size=test_size
        )
        assert code == 2 and "test_size: must be at least 2" in err


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for i, values in enumerate(rows, start=1):
            fh.write(
                json.dumps(
                    {
                        "eval_index": i,
                        "genotype": "0-0",
                        "values": list(values),
                        "source": "random",
                        "iteration": 0,
                    }
                )
                + "\n"
            )


class TestParetoCommand:
    def test_single_record_is_its_own_front(self, tmp_path, capsys):
        p = tmp_path / "one.jsonl"
        write_jsonl(p, [(1.0, 2.0)])
        assert main(["pareto", "-i", str(p)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2
        assert out[0] == "eval_index,genotype,value_1,value_2,source,iteration"

    def test_dominated_pair_keeps_one_row(self, tmp_path, capsys):
        p = tmp_path / "two.jsonl"
        write_jsonl(p, [(1.0, 1.0), (2.0, 2.0)])
        assert main(["pareto", "-i", str(p)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("1,")

    def test_directions_flip_the_front(self, tmp_path, capsys):
        p = tmp_path / "two.jsonl"
        write_jsonl(p, [(1.0, 1.0), (2.0, 2.0)])
        assert main(["pareto", "-i", str(p), "--directions", "max,max"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("2,")

    def test_output_file_and_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 6, size=(30, 2)).astype(float)
        p = tmp_path / "store.jsonl"
        write_jsonl(p, [tuple(v) for v in values])
        out = tmp_path / "front.csv"
        assert main(["pareto", "-i", str(p), "-o", str(out)]) == 0
        got = {int(r[0]) for r in read_csv(out)[1:]}
        want = set()
        for i in range(30):
            dominated = any(
                all(values[j] <= values[i]) and any(values[j] < values[i])
                for j in range(30)
                if j != i
            )
            if not dominated:
                want.add(i + 1)
        assert got == want

    def test_parse_error_reports_line_number(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"eval_index": 1}\nnot json\n', encoding="utf-8")
        assert main(["pareto", "-i", str(p)]) == 2
        assert f"{p}:1" in capsys.readouterr().err

    def test_nan_value_exit_2(self, tmp_path, capsys):
        p = tmp_path / "nan.jsonl"
        write_jsonl(p, [(1.0, 1.0), (math.nan, 0.5)])
        assert main(["pareto", "-i", str(p)]) == 2
        assert f"input: {p}:2: non-finite objective values" in capsys.readouterr().err

    def test_bad_directions_exit_2(self, tmp_path, capsys):
        p = tmp_path / "one.jsonl"
        write_jsonl(p, [(1.0, 2.0)])
        assert main(["pareto", "-i", str(p), "--directions", "up,down"]) == 2
        assert "--directions" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["pareto", "-i", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestHypervolumeCommand:
    def fixture(self, tmp_path):
        p = tmp_path / "front.jsonl"
        write_jsonl(p, [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0)])
        return str(p)

    def test_explicit_reference(self, tmp_path, capsys):
        assert main(["hypervolume", "-i", self.fixture(tmp_path), "--ref", "4,4"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(6.0)

    def test_default_reference(self, tmp_path, capsys):
        assert main(["hypervolume", "-i", self.fixture(tmp_path)]) == 0
        # Worst (3, 3) plus 1% of the range 2 gives reference (3.02, 3.02).
        expected = (
            (3.02 - 1) * (3.02 - 3)
            + (3.02 - 2) * (3 - 2)
            + (3.02 - 3) * (2 - 1)
        )
        assert float(capsys.readouterr().out) == pytest.approx(expected)

    def test_normalized(self, tmp_path, capsys):
        assert main(["hypervolume", "-i", self.fixture(tmp_path), "--normalized"]) == 0
        # Scaled points (0,1), (.5,.5), (1,0); only the middle one lies
        # strictly inside the unit reference box.
        assert float(capsys.readouterr().out) == pytest.approx(0.25)

    def test_ref_and_normalized_conflict(self, tmp_path, capsys):
        code = main(
            ["hypervolume", "-i", self.fixture(tmp_path), "--ref", "4,4", "--normalized"]
        )
        assert code == 2
        assert "--ref" in capsys.readouterr().err

    def test_bad_ref_exit_2(self, tmp_path, capsys):
        for ref in ("a,b", "nan,5", "4,inf"):
            assert main(["hypervolume", "-i", self.fixture(tmp_path), "--ref", ref]) == 2
            assert "--ref: expected two finite numbers" in capsys.readouterr().err

    def test_infinite_value_exit_2(self, tmp_path, capsys):
        p = tmp_path / "inf.jsonl"
        write_jsonl(p, [(1.0, 3.0), (2.0, math.inf)])
        assert main(["hypervolume", "-i", str(p)]) == 2
        assert f"input: {p}:2: non-finite objective values" in capsys.readouterr().err

    def test_three_objectives_rejected(self, tmp_path, capsys):
        p = tmp_path / "three.jsonl"
        write_jsonl(p, [(1.0, 2.0, 3.0)])
        assert main(["hypervolume", "-i", str(p)]) == 2
        assert "2 objectives" in capsys.readouterr().err

    def test_directions_change_result(self, tmp_path, capsys):
        p = tmp_path / "mix.jsonl"
        write_jsonl(p, [(10.0, 5.0), (20.0, 9.0)])
        assert main(["hypervolume", "-i", str(p), "--directions", "max,min", "--ref=-5,10"]) == 0
        # Oriented points (-10, 5), (-20, 9); both beat the reference.
        expected = (-5 - -20) * (10 - 9) + (-5 - -10) * (9 - 5)
        assert float(capsys.readouterr().out) == pytest.approx(expected)
