"""End-to-end acceptance checks, one verdict line per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line each criterion prints. Every check codes its own oracle inline so a
bug in the library cannot hide inside the test.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from linas_moo.cli import main
from linas_moo.linas import LinasConfig, run_linas
from linas_moo.metrics import (
    default_reference,
    hypervolume_2d,
    normalized_hypervolume,
    pareto_front,
    store_objective_matrix,
    union_bounds,
)
from linas_moo.moea import (
    EaConfig,
    fast_nondominated_sort,
    run_nsga2,
    run_random,
    search_rng,
)
from linas_moo.objective import (
    MAXIMIZE,
    MINIMIZE,
    ObjectiveSpec,
    SyntheticLandscape,
    oriented_values,
)
from linas_moo.predictor import (
    PREDICTOR_KINDS,
    RidgeModel,
    analyze_predictors,
    featurize_batch,
    kendall_tau,
)
from linas_moo.space import builtin_space

ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


class CountingEvaluator:
    """Wraps an evaluator and counts how many measurements it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate_batch(self, genotypes):
        self.calls += len(genotypes)
        return self.inner.evaluate_batch(genotypes)


class NegatingEvaluator:
    """Emits the first objective negated so it can be minimized directly."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate_batch(self, genotypes):
        out = np.array(self.inner.evaluate_batch(genotypes), dtype=np.float64)
        out[:, 0] = -out[:, 0]
        return out


def test_criterion_1_space_cardinalities():
    t0 = time.perf_counter()
    mobile = builtin_space("mobilenetv3")
    # Five stages, each depth 2, 3, or 4, every active layer picking one of
    # 3 kernel sizes x 3 widths = 9 settings.
    closed_form = (9**2 + 9**3 + 9**4) ** 5
    ncf = builtin_space("ncf")
    checks = {
        "mobilenetv3 count": mobile.cardinality() == closed_form,
        "mobilenetv3 magnitude": mobile.cardinality_magnitude() == 19,
        "ncf count": ncf.cardinality() == 7_489_800,
        "ncf magnitude": ncf.cardinality_magnitude() == 7,
    }
    elapsed = time.perf_counter() - t0
    checks["runtime < 1s"] = elapsed < 1.0
    _verdict(
        "criterion 1 (search-space cardinalities)",
        all(checks.values()),
        f"mobilenetv3={mobile.cardinality()} (10^{mobile.cardinality_magnitude()}), "
        f"ncf={ncf.cardinality()} (10^{ncf.cardinality_magnitude()}), "
        f"{elapsed:.3f}s; failed: {[k for k, v in checks.items() if not v] or 'none'}",
    )


def _front_peel_oracle(F: np.ndarray) -> list[set]:
    """Repeatedly strip the dominated-by-nobody rows; quadratic and obvious."""
    remaining = set(range(len(F)))
    fronts = []
    while remaining:
        level = {
            i
            for i in remaining
            if not any(
                np.all(F[j] <= F[i]) and np.any(F[j] < F[i])
                for j in remaining
                if j != i
            )
        }
        fronts.append(level)
        remaining -= level
    return fronts


def _tau_pair_count_oracle(x: np.ndarray, y: np.ndarray) -> float:
    conc = disc = tie_x = tie_y = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            sx = int(x[i] > x[j]) - int(x[i] < x[j])
            sy = int(y[i] > y[j]) - int(y[i] < y[j])
            if sx == 0 and sy == 0:
                continue
            if sx == 0:
                tie_x += 1
            elif sy == 0:
                tie_y += 1
            elif sx == sy:
                conc += 1
            else:
                disc += 1
    denom = math.sqrt((conc + disc + tie_x) * (conc + disc + tie_y))
    return (conc - disc) / denom


def _ridge_block_oracle(X, y, alpha):
    """Uncentered augmented normal equations with an unpenalized intercept."""
    n, d = X.shape
    A = np.zeros((d + 1, d + 1))
    A[:d, :d] = X.T @ X + alpha * np.eye(d)
    A[:d, d] = X.sum(axis=0)
    A[d, :d] = X.sum(axis=0)
    A[d, d] = n
    b = np.concatenate([X.T @ y, [y.sum()]])
    sol = np.linalg.solve(A, b)
    return sol[:d], sol[d]


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)

    sort_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 201))
        m = int(rng.choice([2, 3]))
        F = rng.integers(0, 12, size=(n, m)).astype(np.float64)
        got = [set(front.tolist()) for front in fast_nondominated_sort(F)]
        if got != _front_peel_oracle(F):
            sort_ok = False
            break
        directions = [str(rng.choice([MINIMIZE, MAXIMIZE])) for _ in range(m)]
        specs = tuple(ObjectiveSpec(f"o{k}", d) for k, d in enumerate(directions))
        oriented = oriented_values(F, specs)
        if set(pareto_front(F, specs).tolist()) != _front_peel_oracle(oriented)[0]:
            sort_ok = False
            break

    tau_ok = True
    for _ in range(100):
        x = rng.integers(0, 20, size=50).astype(np.float64)
        y = np.where(rng.random(50) < 0.8, x + rng.normal(0, 3, 50), rng.integers(0, 20, 50))
        if kendall_tau(x, y) != _tau_pair_count_oracle(x, y):
            tau_ok = False
            break

    ridge_gap = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 81))
        d = int(rng.integers(2, 9))
        X = rng.normal(0, 2, size=(n, d)) + rng.normal(0, 1, size=d)
        w = rng.normal(0, 1, size=d)
        y = X @ w + rng.normal(0, 0.1, size=n) + 3.0
        alpha = float(rng.choice([0.1, 1.0, 10.0]))
        model = RidgeModel(alpha=alpha).fit(X, y)
        coef, intercept = _ridge_block_oracle(X, y, alpha)
        ridge_gap = max(
            ridge_gap,
            float(np.max(np.abs(model.coef_ - coef))),
            abs(model.intercept_ - intercept),
        )
    ridge_ok = ridge_gap < 1e-8

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 2 (exact oracle equivalence)",
        sort_ok and tau_ok and ridge_ok and elapsed < 30.0,
        f"fronts={'ok' if sort_ok else 'MISMATCH'}, "
        f"tau={'ok' if tau_ok else 'MISMATCH'}, "
        f"ridge max |gap|={ridge_gap:.2e}, {elapsed:.1f}s",
    )


def _rect_union_oracle(points: np.ndarray, ref: np.ndarray) -> float:
    """Dominated area as a union of axis-aligned rectangles, column by column."""
    pts = [p for p in points if p[0] < ref[0] and p[1] < ref[1]]
    if not pts:
        return 0.0
    xs = sorted({p[0] for p in pts}) + [ref[0]]
    total = 0.0
    for left, right in zip(xs[:-1], xs[1:]):
        best_y = min(p[1] for p in pts if p[0] <= left)
        total += (right - left) * (ref[1] - best_y)
    return total


def test_criterion_3_hypervolume():
    t0 = time.perf_counter()
    rng = np.random.default_rng(30)

    exact_gap = 0.0
    mc_ok = True
    for _ in range(50):
        n = int(rng.integers(3, 25))
        shape = float(rng.uniform(0.5, 2.0))
        points = np.column_stack(
            [rng.uniform(0, 1, n) ** shape, rng.uniform(0, 1, n) ** (1 / shape)]
        ) * rng.uniform(0.5, 4.0)
        ref = default_reference(points)
        hv = hypervolume_2d(points, ref)
        exact_gap = max(exact_gap, abs(hv - _rect_union_oracle(points, ref)))

        lo = points.min(axis=0)
        box = float(np.prod(ref - lo))
        samples = lo + rng.random((1_000_000, 2)) * (ref - lo)
        dominated = np.zeros(len(samples), dtype=bool)
        for p in points:
            dominated |= np.all(samples >= p, axis=1)
        p_hat = float(dominated.mean())
        estimate = box * p_hat
        se = box * math.sqrt(p_hat * (1 - p_hat) / len(samples))
        if abs(hv - estimate) > 3 * se:
            mc_ok = False

    mono_ok = True
    zero_ok = True
    ref = np.array([1.0, 1.0])
    pts = rng.random((3, 2)) * 0.5
    hv_prev = hypervolume_2d(pts, ref)
    for _ in range(1000):
        q = rng.random(2)
        is_dominated = any(np.all(p <= q) and np.any(p < q) for p in pts)
        grown = np.vstack([pts, q])
        hv_now = hypervolume_2d(grown, ref)
        if hv_now < hv_prev:
            mono_ok = False
            break
        if is_dominated and hv_now != hv_prev:
            zero_ok = False
            break
        keep = [
            i
            for i, p in enumerate(grown)
            if not any(
                np.all(o <= p) and np.any(o < p)
                for j, o in enumerate(grown)
                if j != i
            )
        ]
        pts = grown[keep]
        hv_prev = hv_now

    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 3 (hypervolume oracle + properties)",
        exact_gap < 1e-9 and mc_ok and mono_ok and zero_ok and elapsed < 60.0,
        f"max |exact-oracle gap|={exact_gap:.2e}, monte-carlo within 3 SE: {mc_ok}, "
        f"monotone: {mono_ok}, dominated adds zero: {zero_ok}, {elapsed:.1f}s",
    )


def test_criterion_4_measurement_budget_law():
    t0 = time.perf_counter()
    space = builtin_space("mobilenetv3")
    spy = CountingEvaluator(SyntheticLandscape.from_seed(space, seed=0, rho=0.8, noise_sd=0.0))
    outcome = run_linas(
        space,
        spy,
        ACC_LAT,
        LinasConfig(population_size=50, iterations=5, inner_evaluations=20_000, seed=0),
    )
    records = list(outcome.store)
    tags = sorted({m.iteration for m in records})
    per_tag = {t: sum(m.iteration == t for m in records) for t in tags}
    elapsed = time.perf_counter() - t0
    ok = (
        len(records) == 250
        and spy.calls == 250
        and tags == [1, 2, 3, 4, 5]
        and all(per_tag[t] == 50 for t in tags)
        and elapsed < 30.0
    )
    _verdict(
        "criterion 4 (iterative budget law)",
        ok,
        f"store={len(records)} records, measured={spy.calls}, "
        f"iteration tags={per_tag}, {elapsed:.1f}s",
    )


def test_criterion_5_search_quality_on_synthetic_landscape():
    t0 = time.perf_counter()
    space = builtin_space("mobilenetv3")
    landscape = SyntheticLandscape.from_seed(space, seed=0, rho=0.8, noise_sd=0.0)
    beats_random = 0
    ge_nsga2 = 0
    rows = []
    for seed in range(5):
        rand = run_random(space, landscape, ACC_LAT, budget=250, seed=seed)
        nsga = run_nsga2(
            space, landscape, ACC_LAT,
            EaConfig(population_size=50, max_evaluations=250, seed=seed),
        )
        linas = run_linas(
            space, landscape, ACC_LAT,
            LinasConfig(population_size=50, iterations=5, inner_evaluations=20_000, seed=seed),
        )
        mats = [store_objective_matrix(o.store) for o in (rand, nsga, linas)]
        bounds = union_bounds(mats)
        hv_rand, hv_nsga, hv_linas = (normalized_hypervolume(m, bounds) for m in mats)
        rows.append((hv_rand, hv_nsga, hv_linas))
        beats_random += hv_linas > hv_rand
        ge_nsga2 += hv_linas >= hv_nsga
    elapsed = time.perf_counter() - t0
    ok = beats_random == 5 and ge_nsga2 >= 4 and elapsed < 300.0
    means = np.mean(rows, axis=0)
    _verdict(
        "criterion 5 (predictor-guided search beats baselines)",
        ok,
        f"beats random {beats_random}/5, >= nsga2 {ge_nsga2}/5, mean HV "
        f"random={means[0]:.3f} nsga2={means[1]:.3f} guided={means[2]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_6_single_iteration_equals_random_search():
    space = builtin_space("ncf")
    landscape = SyntheticLandscape.from_seed(space, seed=1, rho=0.8, noise_sd=0.0)
    seed = 11
    guided = run_linas(
        space, landscape, ACC_LAT,
        LinasConfig(population_size=50, iterations=1, inner_evaluations=200, seed=seed),
    )
    rand = run_random(space, landscape, ACC_LAT, budget=50, seed=seed)
    a, b = list(guided.store), list(rand.store)
    same = len(a) == len(b) and all(
        replace(ml, source=mr.source, iteration=mr.iteration) == mr
        for ml, mr in zip(a, b)
    )
    _verdict(
        "criterion 6 (single-iteration run reduces to random search)",
        same,
        f"{len(a)} vs {len(b)} records, identical modulo source/iteration tags: {same}",
    )


def test_criterion_7_predictor_learning_curves():
    t0 = time.perf_counter()
    space = builtin_space("ncf")
    landscape = SyntheticLandscape.from_seed(space, seed=0, rho=0.8, noise_sd=0.0)
    rng = search_rng(0)
    seen, genotypes = set(), []
    while len(genotypes) < 1500:
        g = space.sample_uniform(rng)
        if g not in seen:
            seen.add(g)
            genotypes.append(g)
    X = featurize_batch(space, genotypes)
    y = np.asarray(landscape.evaluate_batch(genotypes))[:, 0]
    report = analyze_predictors(
        X, y, train_sizes=tuple(range(100, 1001, 100)), trials=20, test_size=500, seed=0
    )

    improves = {
        kind: bool(report.mape_mean(kind)[-1] <= report.mape_mean(kind)[0])
        for kind in PREDICTOR_KINDS
    }
    best_single = min(float(report.mape_mean(k)[-1]) for k in ("ridge", "svr_rbf"))
    stacked_final = float(report.mape_mean("stacked")[-1])
    stacked_ok = stacked_final <= 1.10 * best_single
    taus = {kind: float(report.tau_mean(kind)[-1]) for kind in PREDICTOR_KINDS}
    tau_ok = all(t >= 0.95 for t in taus.values())
    elapsed = time.perf_counter() - t0
    checks = {
        "MAPE shrinks with data": all(improves.values()),
        "stacked within 10% of best single": stacked_ok,
        "tau@1000 >= 0.95": tau_ok,
        "runtime < 300s": elapsed < 300.0,
    }
    _verdict(
        "criterion 7 (predictor learning curves)",
        all(checks.values()),
        f"MAPE shrinks with data: {improves}, stacked {stacked_final:.4f} vs best "
        f"single {best_single:.4f}, tau@1000={ {k: round(v, 4) for k, v in taus.items()} }, "
        f"{elapsed:.1f}s; failed: {[k for k, v in checks.items() if not v] or 'none'}",
    )


def test_criterion_8_determinism_and_direction_symmetry(tmp_path):
    cfg = {
        "space": "ncf",
        "evaluator": {"kind": "synthetic", "seed": 0, "rho": 0.8, "sigma": 0.0},
        "objectives": [
            {"name": "accuracy", "direction": "maximize"},
            {"name": "latency", "direction": "minimize"},
        ],
        "algorithms": [
            {"kind": "linas", "parameters": {"population_size": 10, "inner_evaluations": 200}},
            {"kind": "nsga2", "parameters": {"population_size": 10}},
            {"kind": "random"},
        ],
        "budget": 30,
        "seeds": [0, 1],
        "output_dir": "",
        "trace_stride": 10,
    }
    outputs = {}
    for rep in ("x", "y"):
        out = tmp_path / rep
        cfg["output_dir"] = str(out)
        path = tmp_path / f"cfg_{rep}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["search", "-c", str(path)]) == 0
        outputs[rep] = out
    byte_identical = all(
        (outputs["x"] / f"{arm}_seed{seed}.jsonl").read_bytes()
        == (outputs["y"] / f"{arm}_seed{seed}.jsonl").read_bytes()
        for arm in ("linas", "nsga2", "random")
        for seed in (0, 1)
    )

    space = builtin_space("ncf")
    landscape = SyntheticLandscape.from_seed(space, seed=2, rho=0.8, noise_sd=0.0)
    config = LinasConfig(population_size=20, iterations=3, inner_evaluations=500, seed=4)
    natural = run_linas(space, landscape, ACC_LAT, config)
    negated = run_linas(
        space,
        NegatingEvaluator(landscape),
        (ObjectiveSpec("neg_accuracy", MINIMIZE), ObjectiveSpec("latency", MINIMIZE)),
        config,
    )
    fronts_equal = {ind.genotype for ind in natural.front} == {
        ind.genotype for ind in negated.front
    }
    _verdict(
        "criterion 8 (determinism and direction symmetry)",
        byte_identical and fronts_equal,
        f"rerun byte-identical: {byte_identical}, negated-objective front matches: "
        f"{fronts_equal}",
    )
