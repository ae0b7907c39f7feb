"""Per-layer metrics computed from the spans of one traced repetition.

Every name listed in :func:`metric_spec` is reported on every workload; a
layer that a workload bypasses reports zeros. Times are seconds summed over
spans. Where a function can call itself through another public entry point
(predictor fits inside ``StackedModel.fit``, evaluator calls inside
``SyntheticLandscape.evaluate``) "outermost" spans are used, so no time is
counted twice.
"""

from __future__ import annotations

# Outer train sizes at which the workloads fit predictors: 50..250 in the
# LINAS loop of search_paper, 100..1000 in predictor_curves.
SVR_SIZES = (50, 100, 150, 200, 250, 300, 400, 500, 600, 700, 800, 900, 1000)
KINDS = {"RidgeModel": "ridge", "SvrRbfModel": "svr_rbf", "StackedModel": "stacked"}
ALGORITHMS = ("linas", "nsga2", "random")

_SPEC = [
    ("space.validate_calls", "count", "lower"),
    ("space.validate_s", "s", "lower"),
    ("space.canonicalize_calls", "count", "lower"),
    ("space.canonicalize_s", "s", "lower"),
    ("space.canonicalize_batch_calls", "count", "lower"),
    ("space.canonicalize_batch_s", "s", "lower"),
    ("space.sample_uniform_calls", "count", "lower"),
    ("objective.insert_calls", "count", "lower"),
    ("objective.insert_s", "s", "lower"),
    ("objective.insert_new_frac", "ratio", "higher"),
    ("objective.lookup_calls", "count", "lower"),
    ("objective.real_evals", "count", "lower"),
    ("objective.evaluate_s", "s", "lower"),
    ("objective.values_matrix_s", "s", "lower"),
    *[(f"predictor.fit_calls.{k}", "count", "lower") for k in KINDS.values()],
    *[(f"predictor.fit_s.{k}", "s", "lower") for k in KINDS.values()],
    *[(f"predictor.svr.fit_s.n{n}", "s", "lower") for n in SVR_SIZES],
    *[(f"predictor.svr.iterations.n{n}", "count", "lower") for n in SVR_SIZES],
    *[(f"predictor.svr.unconverged.n{n}", "count", "lower") for n in SVR_SIZES],
    ("predictor.svr.iterations", "count", "lower"),
    ("predictor.svr.unconverged", "count", "lower"),
    ("predictor.svr.unconverged_frac", "ratio", "lower"),
    ("predictor.svr.kkt_gap_max", "1", "lower"),
    ("predictor.predict_calls", "count", "lower"),
    ("predictor.predict_rows", "count", "lower"),
    ("predictor.predict_s", "s", "lower"),
    ("moea.nsga2_calls", "count", "lower"),
    ("moea.nsga2_self_s", "s", "lower"),
    ("moea.generations", "count", "lower"),
    ("moea.sort_calls", "count", "lower"),
    ("moea.sort_rows", "count", "lower"),
    ("moea.sort_s", "s", "lower"),
    ("moea.selection_s", "s", "lower"),
    ("moea.random_s", "s", "lower"),
    ("linas.iterations", "count", "lower"),
    ("linas.self_s", "s", "lower"),
    ("linas.inner_search_s", "s", "lower"),
    ("linas.fit_s", "s", "lower"),
    ("linas.inner_queries", "count", "lower"),
    ("linas.promoted", "count", "higher"),
    ("linas.promotion_yield", "ratio", "higher"),
    ("linas.topped_up", "count", "lower"),
    ("metrics.hv_trace_calls", "count", "lower"),
    ("metrics.hv_trace_s", "s", "lower"),
    ("metrics.hypervolume_calls", "count", "lower"),
    ("metrics.hypervolume_s", "s", "lower"),
    ("metrics.nondominated_calls", "count", "lower"),
    ("metrics.nondominated_s", "s", "lower"),
    ("metrics.nondominated_pairs", "count", "lower"),
    ("metrics.nondominated_bytes", "B", "lower"),
    *[(f"cli.arm_s.{a}", "s", "lower") for a in ALGORITHMS],
    ("cli.self_s", "s", "lower"),
    ("cli.pareto_s", "s", "lower"),
    ("cli.hypervolume_s", "s", "lower"),
    ("trace.run_s_untraced", "s", "lower"),
    ("trace.run_s_traced", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.wall_s_untraced", "s", "lower"),
    ("trace.host_factor", "1", "lower"),
]


def metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    return list(_SPEC)


def _outermost(tracer, names: set[str]) -> list[int]:
    """Per span: id of the outermost span named in ``names`` at or above it, else -1."""
    top = [-1] * len(tracer)
    for sid, lid in enumerate(tracer.label):
        p = tracer.parent[sid]
        if p >= 0 and top[p] >= 0:
            top[sid] = top[p]
        elif tracer.labels[lid][0] in names:
            top[sid] = sid
    return top


def layer_metrics(tracer, arm_seconds: dict[str, float]) -> dict[str, float]:
    """Aggregate one traced repetition into the per-layer metrics.

    ``arm_seconds`` holds the summed manifest ``wall_seconds`` per algorithm
    of the traced repetition.
    """
    n = len(tracer)
    name_of = [tracer.labels[lid][0] for lid in tracer.label]
    site_of = [tracer.labels[lid][1] for lid in tracer.label]
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    info = tracer.info
    out = {name: 0.0 for name, _, _ in _SPEC}

    def add(key, value):
        out[key] += value

    fit_names = {f"predictor.{cls}.fit" for cls in KINDS}
    predict_names = {f"predictor.{cls}.predict" for cls in KINDS}
    real_eval_names = {
        "objective.SyntheticLandscape.evaluate",
        "objective.SyntheticLandscape.evaluate_batch",
    }
    top_fit = _outermost(tracer, fit_names)
    top_predict = _outermost(tracer, predict_names)
    top_eval = _outermost(tracer, real_eval_names)
    top_linas = _outermost(tracer, {"linas.run_linas"})

    svr_fits = 0
    promoted_new = 0  # promoted candidates stored new by run_linas itself
    linas_runs = []
    for i, name in enumerate(name_of):
        rest = name.partition(".")[2]
        if name == "space.SearchSpace.validate":
            add("space.validate_calls", 1)
            add("space.validate_s", dur[i])
        elif name == "space.SearchSpace.canonicalize":
            add("space.canonicalize_calls", 1)
            add("space.canonicalize_s", dur[i])
        elif name == "space.SearchSpace.canonicalize_batch":
            add("space.canonicalize_batch_calls", 1)
            add("space.canonicalize_batch_s", dur[i])
        elif name == "space.SearchSpace.sample_uniform":
            add("space.sample_uniform_calls", 1)
        elif name == "objective.EvaluationStore.insert":
            add("objective.insert_calls", 1)
            add("objective.insert_s", dur[i])
            add("objective.insert_new_frac", bool(info[i]))
            p = tracer.parent[i]
            if info[i] and p >= 0 and name_of[p] == "linas.run_linas":
                promoted_new += 1
        elif name in ("objective.EvaluationStore.get", "objective.EvaluationStore.__contains__"):
            add("objective.lookup_calls", 1)
        elif name == "objective.EvaluationStore.values_matrix":
            add("objective.values_matrix_s", dur[i])
        elif name in fit_names:
            kind = KINDS[rest.partition(".")[0]]
            add(f"predictor.fit_calls.{kind}", 1)
            add(f"predictor.fit_s.{kind}", dur[i])
            if top_fit[i] == i and top_linas[i] >= 0:
                add("linas.fit_s", dur[i])
            if kind == "svr_rbf":
                _, n_iter, converged, gap = info[i]
                size = info[top_fit[i]][0]
                svr_fits += 1
                add("predictor.svr.iterations", n_iter)
                add("predictor.svr.unconverged", not converged)
                out["predictor.svr.kkt_gap_max"] = max(out["predictor.svr.kkt_gap_max"], gap)
                if size in SVR_SIZES:
                    add(f"predictor.svr.fit_s.n{size}", dur[i])
                    add(f"predictor.svr.iterations.n{size}", n_iter)
                    add(f"predictor.svr.unconverged.n{size}", not converged)
        elif name in predict_names:
            if top_predict[i] == i:
                add("predictor.predict_calls", 1)
                add("predictor.predict_rows", info[i])
                add("predictor.predict_s", dur[i])
        elif name == "moea.run_nsga2":
            add("moea.nsga2_calls", 1)
            add("moea.nsga2_self_s", dur[i] - child[i])
            add("moea.generations", info[i])
            if site_of[i] == "linas":
                add("linas.iterations", 1)
                add("linas.inner_search_s", dur[i])
        elif name == "moea.fast_nondominated_sort":
            add("moea.sort_calls", 1)
            add("moea.sort_rows", info[i])
            add("moea.sort_s", dur[i])
        elif name in ("moea.environmental_selection", "moea.tournament_winners"):
            add("moea.selection_s", dur[i])
        elif name == "moea.run_random":
            add("moea.random_s", dur[i])
        elif name == "linas.run_linas":
            add("linas.self_s", dur[i] - child[i])
            linas_runs.append(info[i])
        elif name in ("linas.PredictorEvaluator.evaluate", "linas.PredictorEvaluator.evaluate_batch"):
            add("linas.inner_queries", info[i])
        elif name == "linas.select_best_unique":
            add("linas.promoted", info[i])
        elif name == "moea.sample_fresh_into_store" and site_of[i] == "linas":
            iteration, count = info[i]
            if iteration >= 2:
                add("linas.topped_up", count)
        elif name == "metrics.hv_trace":
            add("metrics.hv_trace_calls", 1)
            add("metrics.hv_trace_s", dur[i])
        elif name == "metrics.hypervolume_2d":
            add("metrics.hypervolume_calls", 1)
            add("metrics.hypervolume_s", dur[i])
        elif name == "metrics.nondominated_mask":
            rows, m = info[i]
            add("metrics.nondominated_calls", 1)
            add("metrics.nondominated_s", dur[i])
            add("metrics.nondominated_pairs", rows * rows)
            add("metrics.nondominated_bytes", rows * rows * m)
        elif name == "cli.main":
            command, _ = info[i]
            add("cli.self_s", dur[i] - child[i])
            if command == "pareto":
                add("cli.pareto_s", dur[i])
            elif command == "hypervolume":
                add("cli.hypervolume_s", dur[i])
        if top_eval[i] == i:
            add("objective.real_evals", info[i])
            add("objective.evaluate_s", dur[i])

    if out["objective.insert_calls"]:
        out["objective.insert_new_frac"] /= out["objective.insert_calls"]
    if svr_fits:
        out["predictor.svr.unconverged_frac"] = out["predictor.svr.unconverged"] / svr_fits
    promotions = sum(pop * (iters - 1) for pop, iters in linas_runs)
    if promotions:
        out["linas.promotion_yield"] = promoted_new / promotions
    for algorithm in ALGORITHMS:
        out[f"cli.arm_s.{algorithm}"] = arm_seconds.get(algorithm, 0.0)
    out["trace.spans"] = n
    return out
