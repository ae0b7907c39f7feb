"""Batch front end: configured multi-seed searches, predictor analysis,
front extraction, hypervolume queries, and space inspection.

Exit codes: 0 success, 2 configuration problem (with a field-path
diagnostic), 3 evaluation or runtime failure, 4 capacity (a space or
dataset too small for the request).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .linas import LinasConfig, run_linas
from .metrics import (
    default_reference, hv_trace, hypervolume_2d, normalized_hypervolume, pareto_front,
    union_bounds,
)
from .moea import (
    EaConfig, SpaceExhaustedError, draw_unseen, run_nsga2, run_random, search_rng,
)
from .objective import (
    MAXIMIZE,
    MINIMIZE,
    DegenerateScaleError,
    EvaluationStore,
    Measurement,
    ObjectiveSpec,
    SyntheticLandscape,
    TabularEvaluator,
    normalize_latency,
    oriented_values,
    read_measurements_jsonl,
)
from .predictor import (
    DEFAULT_ANALYSIS_SEED,
    DEFAULT_TEST_SIZE,
    DEFAULT_TRAIN_SIZES,
    DEFAULT_TRIALS,
    PREDICTOR_KINDS,
    _standard_error,
    analyze_predictors,
    check_protocol,
    featurize_batch,
)
from .space import BUILTIN_SPACES, SearchSpace, builtin_space, format_genotype


class ConfigError(Exception):
    """A configuration problem, carrying the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _get(cfg: dict, key: str, path: str, types, required: bool = True, default=None):
    """Typed field access with path-aware diagnostics."""
    here = f"{path}.{key}" if path else key
    if key not in cfg:
        if required:
            raise ConfigError(here, "missing required field")
        return default
    value = cfg[key]
    if types is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, types) or isinstance(value, bool) and types is not bool:
        expected = types.__name__ if isinstance(types, type) else "/".join(
            t.__name__ for t in types
        )
        raise ConfigError(here, f"expected {expected}, got {type(value).__name__}")
    return value


def _present(cfg: dict, path: str, spec) -> dict:
    """Typed keyword arguments for the ``(key, argument, type)`` entries whose
    key is present; absent keys keep the callee's defaults."""
    return {arg: _get(cfg, key, path, typ) for key, arg, typ in spec if key in cfg}


def _reject_unknown(cfg: dict, known: Sequence[str], path: str) -> None:
    for key in cfg:
        if key not in known:
            raise ConfigError(
                f"{path}.{key}" if path else key,
                f"unknown field (known: {', '.join(sorted(known))})",
            )


def _load_config(path: str) -> tuple[dict, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}")
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(obj, dict):
        raise ConfigError("config", "top level must be a JSON object")
    return obj, raw


def _build_space(name: str, path: str = "space") -> SearchSpace:
    if name in BUILTIN_SPACES:
        return builtin_space(name)
    p = Path(name)
    if p.exists():
        try:
            return SearchSpace.from_json(p.read_text(encoding="utf-8"))
        except Exception as exc:
            raise ConfigError(path, f"failed to load space file {name}: {exc}")
    raise ConfigError(
        path,
        f"unknown space {name!r}; built-ins: {', '.join(sorted(BUILTIN_SPACES))}, "
        "or give a JSON file path",
    )


def _build_objectives(entries, path: str = "objectives") -> tuple[ObjectiveSpec, ...]:
    if not isinstance(entries, list) or not entries:
        raise ConfigError(path, "expected a non-empty list of {name, direction}")
    specs = []
    names = set()
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(here, "expected an object with name and direction")
        _reject_unknown(entry, ("name", "direction"), here)
        name = _get(entry, "name", here, str)
        direction = _get(entry, "direction", here, str)
        if direction not in (MAXIMIZE, MINIMIZE):
            raise ConfigError(
                f"{here}.direction", f"expected {MAXIMIZE!r} or {MINIMIZE!r}"
            )
        if name in names:
            raise ConfigError(f"{here}.name", f"duplicate objective name {name!r}")
        names.add(name)
        specs.append(ObjectiveSpec(name, direction))
    return tuple(specs)


def _build_evaluator(cfg, space, objectives, path: str = "evaluator"):
    if not isinstance(cfg, dict):
        raise ConfigError(path, "expected an object")
    kind = _get(cfg, "kind", path, str)
    if kind == "synthetic":
        _reject_unknown(
            cfg,
            ("kind", "seed", "rho", "sigma", "accuracy_range", "latency_range"),
            path,
        )
        if len(objectives) != 2:
            raise ConfigError(
                "objectives",
                "the synthetic evaluator measures exactly 2 objectives",
            )
        kwargs = _present(
            cfg, path, (("seed", "seed", int), ("rho", "rho", float), ("sigma", "noise_sd", float))
        )
        for key in ("accuracy_range", "latency_range"):
            rng = _get(cfg, key, path, list, required=False)
            if rng is not None:
                if len(rng) != 2 or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool) for v in rng
                ):
                    raise ConfigError(f"{path}.{key}", "expected [low, high]")
                kwargs[key] = (float(rng[0]), float(rng[1]))
        try:
            return SyntheticLandscape.from_seed(space, **kwargs)
        except ValueError as exc:
            raise ConfigError(path, str(exc))
    if kind == "tabular":
        _reject_unknown(cfg, ("kind", "path", "missing_policy"), path)
        table_path = _get(cfg, "path", path, str)
        kwargs = _present(cfg, path, (("missing_policy", "missing_policy", str),))
        try:
            table = TabularEvaluator.from_csv(table_path, space, **kwargs)
        except OSError as exc:
            raise ConfigError(f"{path}.path", f"cannot read {table_path}: {exc}")
        except ValueError as exc:
            raise ConfigError(f"{path}.path", str(exc))
        if table.n_objectives != len(objectives):
            raise ConfigError(
                "objectives",
                f"table provides {table.n_objectives} objectives, "
                f"config lists {len(objectives)}",
            )
        return table
    raise ConfigError(f"{path}.kind", "expected 'synthetic' or 'tabular'")


# Config fields the search config sets itself, not the algorithm entry.
_SEARCH_OWNED = ("max_evaluations", "seed", "max_generations")


@dataclass(frozen=True)
class Arm:
    """One (algorithm, seed) search job; ``config`` is None for random search."""

    kind: str
    config: EaConfig | LinasConfig | None
    seed: int

    @property
    def label(self) -> str:
        return f"{self.kind}_seed{self.seed}"


@dataclass(frozen=True)
class SearchPlan:
    space: SearchSpace
    objectives: tuple[ObjectiveSpec, ...]
    evaluator: object
    algorithms: tuple[tuple[str, EaConfig | LinasConfig | None], ...]
    budget: int
    seeds: tuple[int, ...]
    output_dir: Path
    stride: int
    config_bytes: bytes


def _validate_algorithm(entry, budget: int, i: int) -> tuple[str, EaConfig | LinasConfig | None]:
    """An algorithm entry's kind and config; parameters are the config's own fields."""
    here = f"algorithms[{i}]"
    if not isinstance(entry, dict):
        raise ConfigError(here, "expected an object with kind and parameters")
    _reject_unknown(entry, ("kind", "parameters"), here)
    kind = _get(entry, "kind", here, str)
    params = _get(entry, "parameters", here, dict, required=False, default={})
    ppath = f"{here}.parameters"
    if kind == "random":
        _reject_unknown(params, (), ppath)
        return kind, None
    if kind not in ("nsga2", "linas"):
        raise ConfigError(f"{here}.kind", "expected 'linas', 'nsga2', or 'random'")

    cls = EaConfig if kind == "nsga2" else LinasConfig
    known = {f.name: f.default for f in fields(cls) if f.name not in _SEARCH_OWNED}
    _reject_unknown(params, known, ppath)
    kwargs = _present(
        params,
        ppath,
        ((key, key, type(default)) for key, default in known.items() if key != "predictor_kinds"),
    )
    if kind == "nsga2":
        kwargs["max_evaluations"] = budget
    else:
        pop = kwargs.get("population_size", known["population_size"])
        if "iterations" not in kwargs:
            if pop < 1 or budget % pop != 0:
                raise ConfigError(
                    "budget",
                    f"{budget} is not a multiple of {ppath}.population_size ({pop})",
                )
            kwargs["iterations"] = budget // pop
        elif kwargs["iterations"] * pop != budget:
            raise ConfigError(
                f"{ppath}.iterations",
                f"population_size * iterations = {pop * kwargs['iterations']} "
                f"but the budget is {budget}",
            )
        if "predictor_kinds" in params:
            kinds = params["predictor_kinds"]
            if not isinstance(kinds, list) or not all(isinstance(k, str) for k in kinds):
                raise ConfigError(f"{ppath}.predictor_kinds", "expected a list of kind names")
            kwargs["predictor_kinds"] = tuple(kinds)
    try:
        return kind, cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(ppath, str(exc))


def _search_plan(cfg: dict, raw: bytes) -> SearchPlan:
    _reject_unknown(
        cfg,
        ("space", "evaluator", "objectives", "algorithms", "budget", "seeds",
         "output_dir", "trace_stride"),
        "",
    )
    space = _build_space(_get(cfg, "space", "", str))
    objectives = _build_objectives(cfg.get("objectives"))
    evaluator = _build_evaluator(cfg.get("evaluator"), space, objectives)
    budget = _get(cfg, "budget", "", int)
    if budget < 1:
        raise ConfigError("budget", "must be positive")
    algos = cfg.get("algorithms")
    if not isinstance(algos, list) or not algos:
        raise ConfigError("algorithms", "expected a non-empty list")
    algorithms = tuple(
        _validate_algorithm(entry, budget, i) for i, entry in enumerate(algos)
    )
    kinds = [k for k, _ in algorithms]
    if len(set(kinds)) != len(kinds):
        raise ConfigError("algorithms", "algorithm kinds must be unique")
    seeds = cfg.get("seeds")
    if (
        not isinstance(seeds, list)
        or not seeds
        or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds)
    ):
        raise ConfigError("seeds", "expected a non-empty list of non-negative integers")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds", "seeds must be distinct")
    stride = _get(cfg, "trace_stride", "", int, required=False, default=10)
    if stride < 1:
        raise ConfigError("trace_stride", "must be positive")
    output_dir = Path(_get(cfg, "output_dir", "", str))
    return SearchPlan(
        space=space,
        objectives=objectives,
        evaluator=evaluator,
        algorithms=algorithms,
        budget=budget,
        seeds=tuple(seeds),
        output_dir=output_dir,
        stride=stride,
        config_bytes=raw,
    )


def _run_arm(plan: SearchPlan, arm: Arm) -> EvaluationStore:
    if arm.config is None:
        return run_random(
            plan.space, plan.evaluator, plan.objectives, plan.budget, seed=arm.seed
        ).store
    run = run_nsga2 if arm.kind == "nsga2" else run_linas
    return run(plan.space, plan.evaluator, plan.objectives, replace(arm.config, seed=arm.seed)).store


def _latency_index(objectives: Sequence[ObjectiveSpec]) -> int | None:
    for j, spec in enumerate(objectives):
        if spec.name.lower() == "latency":
            return j
    return None


def _write_store_jsonl(path: Path, store: EvaluationStore) -> None:
    """Measurement JSONL; a latency objective also gets its run-normalized value."""
    lat = _latency_index(store.objectives)
    extra = None
    if lat is not None and len(store) > 0:
        try:
            normalized = normalize_latency(store.values_matrix()[:, lat])
            extra = {"latency_normalized": normalized.tolist()}
        except DegenerateScaleError:
            pass
    store.to_jsonl(path, extra)


def _normalized_trace(
    store: EvaluationStore, bounds: tuple[np.ndarray, np.ndarray], stride: int
):
    """Unit-box hypervolume trace under shared cross-arm bounds."""
    lo, hi = bounds
    area = float(np.prod(hi - lo))
    trace = hv_trace(store, reference=hi, stride=stride)
    return trace.counts, tuple(v / area for v in trace.hypervolumes)


def _write_trace_csv(path: Path, counts, hvs) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eval_count", "hypervolume"])
        for k, v in zip(counts, hvs):
            writer.writerow([k, repr(v)])


def _cmd_search(args) -> int:
    cfg, raw = _load_config(args.config)
    plan = _search_plan(cfg, raw)
    if plan.space.cardinality() < plan.budget:
        raise SpaceExhaustedError(
            f"space {plan.space.name!r} holds {plan.space.cardinality()} "
            f"distinct configs, budget is {plan.budget}"
        )
    threads = max(1, args.threads)
    plan.output_dir.mkdir(parents=True, exist_ok=True)

    arms = [
        Arm(kind=kind, config=config, seed=seed)
        for kind, config in plan.algorithms
        for seed in plan.seeds
    ]
    results: dict[str, EvaluationStore] = {}
    failures: dict[str, str] = {}
    walls: dict[str, float] = {}

    def job(arm: Arm):
        t0 = time.perf_counter()
        store = _run_arm(plan, arm)
        return store, time.perf_counter() - t0

    if threads == 1:
        outcomes = []
        for arm in arms:
            try:
                outcomes.append((arm, job(arm), None))
            except Exception as exc:
                outcomes.append((arm, None, exc))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [(arm, pool.submit(job, arm)) for arm in arms]
            outcomes = []
            for arm, fut in futures:
                try:
                    outcomes.append((arm, fut.result(), None))
                except Exception as exc:
                    outcomes.append((arm, None, exc))
    for arm, ok, exc in outcomes:
        if exc is None:
            results[arm.label], walls[arm.label] = ok
        else:
            failures[arm.label] = f"{type(exc).__name__}: {exc}"

    # Shared scale across every completed arm, then traces and summary.
    bounds = None
    traces: dict[str, tuple] = {}
    scale_error = None
    if results:
        try:
            bounds = union_bounds(
                [oriented_values(s.values_matrix(), plan.objectives) for s in results.values()]
            )
            for label, store in results.items():
                traces[label] = _normalized_trace(store, bounds, plan.stride)
        except DegenerateScaleError as exc:
            scale_error = str(exc)

    manifest_arms = []
    for arm in arms:
        entry = {"algorithm": arm.kind, "seed": arm.seed}
        if arm.label in results:
            store_file = f"{arm.label}.jsonl"
            _write_store_jsonl(plan.output_dir / store_file, results[arm.label])
            entry.update(
                status="ok",
                store=store_file,
                wall_seconds=round(walls[arm.label], 3),
                evaluations=len(results[arm.label]),
            )
            if arm.label in traces:
                trace_file = f"{arm.label}_trace.csv"
                counts, hvs = traces[arm.label]
                _write_trace_csv(plan.output_dir / trace_file, counts, hvs)
                entry["trace"] = trace_file
        else:
            entry.update(status="failed", error=failures[arm.label])
        manifest_arms.append(entry)

    if traces:
        by_algorithm: dict[str, dict[int, list[float]]] = {}
        for kind, _ in plan.algorithms:
            per_count: dict[int, list[float]] = {}
            for seed in plan.seeds:
                label = f"{kind}_seed{seed}"
                if label in traces:
                    counts, hvs = traces[label]
                    for k, v in zip(counts, hvs):
                        per_count.setdefault(k, []).append(v)
            if per_count:
                by_algorithm[kind] = per_count
        with open(plan.output_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "eval_count", "hv_mean", "hv_stderr"])
            for kind, _ in plan.algorithms:
                for k in sorted(by_algorithm.get(kind, ())):
                    vals = by_algorithm[kind][k]
                    writer.writerow(
                        [kind, k, repr(float(np.mean(vals))), repr(_standard_error(vals))]
                    )

    manifest = {
        "tool": "linas-moo",
        "version": __version__,
        "config_sha256": hashlib.sha256(plan.config_bytes).hexdigest(),
        "trace_stride": plan.stride,
        "arms": manifest_arms,
    }
    if bounds is not None:
        manifest["objective_bounds"] = {
            "lo": [float(v) for v in bounds[0]],
            "hi": [float(v) for v in bounds[1]],
            "convention": "minimization (maximized objectives negated)",
        }
    if traces:
        manifest["summary"] = "summary.csv"
    if scale_error is not None:
        manifest["error"] = f"degenerate objective scale: {scale_error}"
    with open(plan.output_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if failures:
        for label, msg in sorted(failures.items()):
            print(f"arm {label} failed: {msg}", file=sys.stderr)
        return 3
    if scale_error is not None:
        print(f"error: degenerate objective scale: {scale_error}", file=sys.stderr)
        return 3
    print(f"wrote {len(results)} runs to {plan.output_dir}")
    return 0


def _cmd_predictor_analysis(args) -> int:
    cfg, _ = _load_config(args.config)
    _reject_unknown(
        cfg,
        ("space", "evaluator", "objectives", "target_index", "kinds", "train_sizes",
         "trials", "test_size", "seed", "output_dir"),
        "",
    )
    space = _build_space(_get(cfg, "space", "", str))
    objectives = _build_objectives(
        cfg.get(
            "objectives",
            [
                {"name": "accuracy", "direction": MAXIMIZE},
                {"name": "latency", "direction": MINIMIZE},
            ],
        )
    )
    evaluator = _build_evaluator(cfg.get("evaluator"), space, objectives)
    target = _get(cfg, "target_index", "", int, required=False, default=0)
    if not 0 <= target < len(objectives):
        raise ConfigError(
            "target_index", f"must index one of {len(objectives)} objectives"
        )
    protocol = {
        key: _get(cfg, key, "", type(default), required=False, default=default)
        for key, default in (
            ("kinds", list(PREDICTOR_KINDS)), ("train_sizes", list(DEFAULT_TRAIN_SIZES)),
            ("trials", DEFAULT_TRIALS), ("test_size", DEFAULT_TEST_SIZE),
        )
    }
    try:
        check_protocol(**protocol)
    except ValueError as exc:
        field, _, message = str(exc).partition(": ")
        raise ConfigError(field, message)
    seed = _get(cfg, "seed", "", int, required=False, default=DEFAULT_ANALYSIS_SEED)
    output_dir = Path(_get(cfg, "output_dir", "", str))

    needed = max(protocol["train_sizes"]) + protocol["test_size"]
    if space.cardinality() < needed:
        raise SpaceExhaustedError(
            f"space {space.name!r} holds {space.cardinality()} distinct configs; "
            f"the protocol needs {needed}"
        )
    genotypes, _ = draw_unseen(space, search_rng(seed), needed, ())
    X = featurize_batch(space, genotypes)
    Y = np.asarray(evaluator.evaluate_batch(genotypes), dtype=np.float64)
    rejected = int(np.isnan(Y).all(axis=1).sum())
    if rejected:
        raise ValueError(f"the evaluator rejected {rejected} of {needed} sampled configurations")
    report = analyze_predictors(X, Y[:, target], seed=seed, **protocol)
    output_dir.mkdir(parents=True, exist_ok=True)
    out = output_dir / "predictor_report.csv"
    fields = ["train_size", "kind", "mape_mean", "mape_stderr", "tau_mean", "tau_stderr"]
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in report.rows():
            writer.writerow(
                [row["train_size"], row["kind"]]
                + [repr(float(row[f])) for f in fields[2:]]
            )
    print(f"wrote {out}")
    return 0


def _read_measurements(path: str) -> list[Measurement]:
    try:
        records = read_measurements_jsonl(path)
    except OSError as exc:
        raise ConfigError("input", f"cannot read {path}: {exc}")
    except ValueError as exc:
        raise ConfigError("input", str(exc))
    if not records:
        raise ConfigError("input", f"{path}: no measurements")
    arity = {len(m.values) for m in records}
    if len(arity) != 1:
        raise ConfigError("input", f"{path}: mixed objective counts {sorted(arity)}")
    return records


def _parse_directions(text: str | None, m: int) -> tuple[ObjectiveSpec, ...]:
    """Directions flag like 'max,min'; defaults to minimizing every column."""
    if text is None:
        return tuple(ObjectiveSpec(f"objective_{j + 1}", MINIMIZE) for j in range(m))
    alias = {"max": MAXIMIZE, "maximize": MAXIMIZE, "min": MINIMIZE, "minimize": MINIMIZE}
    parts = [p.strip().lower() for p in text.split(",")]
    if len(parts) != m or not all(p in alias for p in parts):
        raise ConfigError(
            "--directions",
            f"expected {m} comma-separated values from max/min, got {text!r}",
        )
    return tuple(
        ObjectiveSpec(f"objective_{j + 1}", alias[p]) for j, p in enumerate(parts)
    )


def _cmd_pareto(args) -> int:
    records = _read_measurements(args.input)
    m = len(records[0].values)
    objectives = _parse_directions(args.directions, m)
    front = pareto_front(np.array([r.values for r in records]), objectives)
    header = (
        ["eval_index", "genotype"]
        + [f"value_{j + 1}" for j in range(m)]
        + ["source", "iteration"]
    )
    rows = [
        [r.eval_index, format_genotype(r.genotype)]
        + [repr(v) for v in r.values]
        + [r.source, r.iteration]
        for r in (records[i] for i in front)
    ]
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {len(rows)} front rows to {args.output}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    return 0


def _cmd_hypervolume(args) -> int:
    records = _read_measurements(args.input)
    m = len(records[0].values)
    if m != 2:
        raise ConfigError("input", f"hypervolume needs 2 objectives, file has {m}")
    objectives = _parse_directions(args.directions, m)
    F = oriented_values(np.array([r.values for r in records]), objectives)
    if args.normalized:
        if args.ref is not None:
            raise ConfigError("--ref", "cannot combine with --normalized")
        value = normalized_hypervolume(F, union_bounds([F]))
    else:
        if args.ref is not None:
            try:
                ref = np.array([float(p) for p in args.ref.split(",")])
            except ValueError:
                ref = np.array([])
            if ref.shape != (2,) or not np.all(np.isfinite(ref)):
                raise ConfigError("--ref", f"expected two finite numbers, got {args.ref!r}")
        else:
            ref = default_reference(F)
        value = hypervolume_2d(F, ref)
    print(repr(value))
    return 0


def _cmd_spaces(args) -> int:
    space = _build_space(args.kind, path="kind")
    sys.stdout.write(space.to_json())
    print(f"variables: {space.n_variables}")
    print(f"cardinality: {space.cardinality()}")
    print(f"magnitude: {space.cardinality_magnitude()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linas-moo",
        description="Multi-objective, predictor-guided architecture search.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="run configured search arms")
    p.add_argument("-c", "--config", required=True, help="JSON experiment config")
    p.add_argument(
        "--threads", type=int, default=1,
        help="arms run concurrently; outputs stay deterministic (default 1)",
    )

    p = sub.add_parser("predictor-analysis", help="predictor quality vs training size")
    p.add_argument("-c", "--config", required=True, help="JSON analysis config")

    p = sub.add_parser("pareto", help="extract the non-dominated front of a store")
    p.add_argument("-i", "--input", required=True, help="measurement JSONL")
    p.add_argument("-o", "--output", help="front CSV (default: stdout)")
    p.add_argument(
        "--directions",
        help="comma-separated max/min per objective (default: all min)",
    )

    p = sub.add_parser("hypervolume", help="hypervolume of a measurement store")
    p.add_argument("-i", "--input", required=True, help="measurement JSONL")
    p.add_argument("--ref", help="reference point 'a,b' (default: worst + 1%% range)")
    p.add_argument(
        "--normalized", action="store_true",
        help="min-max scale to the unit box and use reference (1, 1)",
    )
    p.add_argument(
        "--directions",
        help="comma-separated max/min per objective (default: all min)",
    )

    p = sub.add_parser("spaces", help="print a space definition and its cardinality")
    p.add_argument("kind", help="built-in space name or a space JSON file path")
    return parser


_HANDLERS = {
    "search": _cmd_search,
    "predictor-analysis": _cmd_predictor_analysis,
    "pareto": _cmd_pareto,
    "hypervolume": _cmd_hypervolume,
    "spaces": _cmd_spaces,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpaceExhaustedError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
