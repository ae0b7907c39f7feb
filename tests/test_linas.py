"""Predictor-guided search: budget laws, promotion, and equivalences."""

import hashlib

import numpy as np
import pytest

from conftest import make_free_space, make_masked_space
from linas_moo import linas
from linas_moo.linas import (
    LinasConfig,
    PredictorEvaluator,
    run_linas,
    select_best_unique,
)
from linas_moo.metrics import pareto_front
from linas_moo.moea import (
    EaConfig,
    SearchOutcome,
    SpaceExhaustedError,
    nsga2_core,
    run_nsga2,
    run_random,
)
from linas_moo.objective import (
    MAXIMIZE,
    MINIMIZE,
    EvaluationStore,
    ObjectiveSpec,
    StoreContractError,
    SyntheticLandscape,
    TabularEvaluator,
    oriented_values,
)
from linas_moo.predictor import RidgeModel, featurize_batch
from linas_moo.space import (
    BUILTIN_SPACES, DesignVariable, MalformedGenotypeError, SearchSpace, builtin_space,
)

ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


class CountingEvaluator:
    """Wraps an evaluator and counts the rows it serves."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate_batch(self, genotypes):
        self.calls += len(list(genotypes))
        return self.inner.evaluate_batch(genotypes)


def small_problem(seed=0):
    space = builtin_space("ncf")
    return space, SyntheticLandscape.from_seed(space, seed=seed)


def quick_config(**overrides):
    base = dict(
        population_size=10,
        iterations=3,
        inner_evaluations=200,
        predictor_kinds=("ridge",),
        seed=0,
    )
    base.update(overrides)
    return LinasConfig(**base)


class TestLinasConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinasConfig(population_size=1)
        with pytest.raises(ValueError):
            LinasConfig(iterations=0)
        with pytest.raises(ValueError):
            LinasConfig(population_size=50, inner_evaluations=10)
        with pytest.raises(ValueError):
            LinasConfig(predictor_kinds=("nope",))
        with pytest.raises(ValueError):
            LinasConfig(predictor_kinds="ridge")
        with pytest.raises(ValueError):
            LinasConfig(predictor_kinds=())
        with pytest.raises(ValueError, match=r"crossover_prob must lie in \[0, 1\]"):
            LinasConfig(crossover_prob=7.0)
        with pytest.raises(ValueError, match=r"mutation_prob must lie in \[0, 1\]"):
            LinasConfig(mutation_prob=-1.0)

    def test_stacked_needs_a_population_per_fold(self):
        with pytest.raises(ValueError, match="population_size must be at least 5 with a stacked"):
            LinasConfig(population_size=4, predictor_kinds=("ridge", "stacked"))
        LinasConfig(population_size=5, predictor_kinds=("ridge", "stacked"))
        LinasConfig(population_size=4, predictor_kinds=("ridge",))

    def test_kinds_broadcast_and_exact(self):
        assert LinasConfig().kinds_for(ACC_LAT) == ("ridge", "ridge")
        cfg = LinasConfig(predictor_kinds=("svr_rbf", "ridge"))
        assert cfg.kinds_for(ACC_LAT) == ("svr_rbf", "ridge")
        with pytest.raises(ValueError):
            LinasConfig(predictor_kinds=("ridge", "ridge", "ridge")).kinds_for(ACC_LAT)

    def test_list_kinds_are_coerced(self):
        cfg = LinasConfig(predictor_kinds=["ridge", "svr_rbf"])
        assert cfg.predictor_kinds == ("ridge", "svr_rbf")


class TestPredictorEvaluator:
    def test_returns_exact_model_predictions(self):
        space, land = small_problem()
        rng = np.random.default_rng(0)
        genotypes = space.sample_batch(rng, 40)
        X = featurize_batch(space, genotypes)
        Y = land.evaluate_batch(genotypes)
        models = tuple(
            RidgeModel().fit(X, Y[:, j]) for j in range(2)
        )
        surrogate = PredictorEvaluator(space, models)
        probe = space.sample_batch(rng, 15)
        Xp = featurize_batch(space, probe)
        batch = surrogate.evaluate_batch(probe)
        for j, model in enumerate(models):
            assert np.array_equal(batch[:, j], model.predict(Xp))
        single = surrogate.evaluate_batch(probe[:1])
        assert single.shape == (1, 2)
        # Different matrix shapes take different BLAS kernels, so across
        # batch sizes agreement is only up to the last bits.
        assert np.allclose(single[0], batch[0], rtol=1e-12, atol=0.0)


class FixedModel:
    """A stand-in predictor that serves the first rows of a fixed column."""

    def __init__(self, column):
        self.column = np.asarray(column, dtype=np.float64)

    def predict(self, X):
        return self.column[: len(X)]


def fitted_surrogate(space, land, n=40, seed=0):
    rng = np.random.default_rng(seed)
    genotypes = space.sample_batch(rng, n)
    X = featurize_batch(space, genotypes)
    Y = land.evaluate_batch(genotypes)
    return PredictorEvaluator(space, tuple(RidgeModel().fit(X, Y[:, j]) for j in range(2)))


class RejectFirstOption:
    """A stand-in predictor: the feature sum, NaN where the first index is 0."""

    def predict(self, X):
        return np.where(X[:, 0] == 0, np.nan, X.sum(axis=1))


class RecordingEvaluator:
    """Wraps an evaluator and keeps every batch it serves with its values."""

    def __init__(self, inner):
        self.inner = inner
        self.batches = []

    def evaluate_batch(self, G):
        V = self.inner.evaluate_batch(G)
        self.batches.append((G.copy(), V.copy()))
        return V

    def accepted_rows(self):
        """Every served row that is not all NaN, in order: genotypes, values."""
        G = np.concatenate([g for g, _ in self.batches])
        V = np.concatenate([v for _, v in self.batches])
        keep = ~np.isnan(V).all(axis=1)
        return G[keep], V[keep]


class TestInnerMeasure:
    """The inner search measures through ``PredictorEvaluator.evaluate_batch``
    and ``nsga2_core``'s value check, the store's checks without a store."""

    def test_returns_predictions_keyed_by_genotype(self):
        # Each population row keeps the prediction of the batch that measured it.
        space, land = small_problem()
        surrogate = RecordingEvaluator(fitted_surrogate(space, land))
        cfg = EaConfig(population_size=10, max_evaluations=200, seed=1, max_generations=8)
        G, F, generations = nsga2_core(space, surrogate, ACC_LAT, cfg)
        assert generations == 8
        served = {}
        for rows, V in surrogate.batches:
            served.update(zip(map(tuple, rows.tolist()), map(tuple, V.tolist())))
        expected = oriented_values([served[g] for g in map(tuple, G.tolist())], ACC_LAT)
        assert F.tobytes() == expected.tobytes()

    def test_all_nan_row_is_skipped(self, free_space):
        surrogate = PredictorEvaluator(free_space, (RejectFirstOption(), RejectFirstOption()))
        V = surrogate.evaluate_batch([(0, 0, 0), (1, 0, 0)])
        assert np.isnan(V[0]).all() and V[1].tolist() == [1 / 3, 1 / 3]
        cfg = EaConfig(population_size=4, max_evaluations=12, seed=2)
        for store in (None, EvaluationStore(free_space, ACC_LAT)):
            recording = RecordingEvaluator(surrogate)
            G, F, _ = nsga2_core(free_space, recording, ACC_LAT, cfg, store)
            served = np.concatenate([rows for rows, _ in recording.batches])
            assert (served[:, 0] == 0).any()
            assert (G[:, 0] != 0).all() and np.isfinite(F).all()
        rows, values = recording.accepted_rows()  # of the run with a store
        assert (rows[:, 0] != 0).all()
        assert list(map(tuple, rows.tolist())) == [m.genotype for m in store]
        assert list(map(tuple, values.tolist())) == [m.values for m in store]

    def test_partly_non_finite_row_raises(self, free_space):
        cfg = EaConfig(population_size=4, max_evaluations=8, seed=0)
        for bad in (np.nan, np.inf):
            surrogate = PredictorEvaluator(
                free_space, (FixedModel(np.full(4, bad)), FixedModel(np.ones(4)))
            )
            with pytest.raises(StoreContractError, match="non-finite"):
                nsga2_core(free_space, surrogate, ACC_LAT, cfg)
            store = EvaluationStore(free_space, ACC_LAT)
            with pytest.raises(StoreContractError, match="non-finite"):
                nsga2_core(free_space, surrogate, ACC_LAT, cfg, store)
            assert len(store) == 0

    def test_range_canonical_form_and_shape_are_checked(self, free_space, masked_space):
        ones = (FixedModel(np.ones(4)), FixedModel(np.ones(4)))
        with pytest.raises(MalformedGenotypeError, match="outside"):
            PredictorEvaluator(free_space, ones).evaluate_batch([(0, 0, 0), (0, 0, 2)])
        with pytest.raises(StoreContractError, match="not canonical"):
            PredictorEvaluator(masked_space, ones).evaluate_batch([(0, 1, 2, 0)])

        class ShortModel:
            def predict(self, X):
                return np.ones(len(X) - 1)

        short = PredictorEvaluator(free_space, (ShortModel(), ShortModel()))
        cfg = EaConfig(population_size=4, max_evaluations=8, seed=0)
        with pytest.raises(StoreContractError, match="shape"):
            nsga2_core(free_space, short, ACC_LAT, cfg)

    def test_store_wrapper_and_bare_core_agree(self):
        # The inner search runs the bare core on the surrogate; run_nsga2 over
        # the same surrogate and a store takes the same path step by step.
        space = builtin_space("mobilenetv3")
        surrogate = fitted_surrogate(space, SyntheticLandscape.from_seed(space, seed=0))
        cfg = EaConfig(population_size=20, max_evaluations=2_000, seed=3, max_generations=60)
        out = run_nsga2(space, surrogate, ACC_LAT, cfg)
        recording = RecordingEvaluator(surrogate)
        G, F, generations = nsga2_core(space, recording, ACC_LAT, cfg)
        assert generations == out.generations == 60
        out_G, out_V = out.population
        assert G.tobytes() == out_G.tobytes()
        assert F.tobytes() == oriented_values(out_V, ACC_LAT).tobytes()
        rows, values = recording.accepted_rows()
        assert list(map(tuple, rows.tolist())) == [m.genotype for m in out.store]
        assert list(map(tuple, values.tolist())) == [m.values for m in out.store]


class TestInnerRowsNeedNoCheck:
    """The inner search's surrogate predicts without the genotype check: every
    row ``nsga2_core`` hands ``evaluate_batch`` is a uniform draw or a child
    that crossover, mutation and ``canonicalize_batch`` built from such rows,
    so it is valid and canonical."""

    SPACES = [builtin_space(name) for name in BUILTIN_SPACES] + [
        make_free_space(), make_masked_space()
    ]

    @pytest.mark.parametrize("space", SPACES, ids=lambda space: space.name)
    def test_served_rows_pass_the_check(self, space):
        served = []
        weights = np.arange(1.0, space.n_variables + 1)

        class Checking:
            def evaluate_batch(self, G):
                assert space.validate_batch(G).tobytes() == G.tobytes()
                assert not space.noncanonical_rows(G).any()
                served.append(len(G))
                return np.column_stack([G @ weights, G[:, ::-1] @ weights])

        small = space.cardinality() < 100
        for seed in range(12):
            for mutation_prob in (0.02, 0.3, 1.0):
                cfg = EaConfig(
                    population_size=4 if small else 12,
                    max_evaluations=20 if small else 600,
                    mutation_prob=mutation_prob, seed=seed, max_generations=40,
                )
                nsga2_core(space, Checking(), ACC_LAT, cfg)
        assert sum(served) > (500 if small else 12_000)

    def test_predicts_what_the_checked_evaluator_predicts(self):
        space, land = small_problem()
        checked = fitted_surrogate(space, land)
        trusted = linas._InnerSurrogate(checked.space, checked.models)
        G = space.sample_batch(np.random.default_rng(3), 64)
        assert trusted.evaluate_batch(G).tobytes() == checked.evaluate_batch(G).tobytes()


class TestInnerMeasureInput:
    """``evaluate_batch`` takes the int64 arrays ``nsga2_core`` passes it, and
    checks genotypes before any model runs."""

    def test_array_and_tuple_forms_agree(self, free_space):
        space, land = small_problem()
        surrogate = fitted_surrogate(space, land)
        rng = np.random.default_rng(2)
        G = np.unique(space.sample_batch(rng, 30), axis=0)
        got = surrogate.evaluate_batch(G)
        assert got.shape == (len(G), 2)
        assert got.tobytes() == surrogate.evaluate_batch(list(map(tuple, G.tolist()))).tobytes()
        rejecting = PredictorEvaluator(
            free_space, (FixedModel([1.0, np.nan, 3.0]), FixedModel([2.0, np.nan, 4.0]))
        )
        rows = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert np.array_equal(
            rejecting.evaluate_batch(np.array(rows)), rejecting.evaluate_batch(rows), equal_nan=True
        )

    def test_models_never_see_a_batch_that_fails_the_genotype_check(
        self, free_space, masked_space
    ):
        class Unreachable:
            def predict(self, X):
                raise AssertionError("predict reached")

        models = (Unreachable(), Unreachable())
        with pytest.raises(MalformedGenotypeError, match="outside"):
            PredictorEvaluator(free_space, models).evaluate_batch(np.array([[0, 0, 0], [0, 0, 2]]))
        with pytest.raises(MalformedGenotypeError, match="length"):
            PredictorEvaluator(free_space, models).evaluate_batch([(0, 0)])
        with pytest.raises(StoreContractError, match="not canonical"):
            PredictorEvaluator(masked_space, models).evaluate_batch(
                np.array([[0, 1, 0, 0], [0, 1, 2, 0]])
            )


class TestEvaluatorInput:
    """Every search hands ``evaluate_batch`` one ``(B, n)`` int64 array."""

    def test_every_search_passes_int64_arrays(self, monkeypatch):
        space, land = small_problem()
        batches = []

        class Recording:
            def evaluate_batch(self, G):
                batches.append(G)
                return land.evaluate_batch(G)

        surrogate_batches = []
        core = linas.nsga2_core

        class RecordingSurrogate:
            def __init__(self, surrogate):
                self.surrogate = surrogate

            def evaluate_batch(self, G):
                surrogate_batches.append(G)
                return self.surrogate.evaluate_batch(G)

        # The inner search's surrogate is whatever run_linas hands nsga2_core.
        monkeypatch.setattr(
            linas, "nsga2_core", lambda space, ev, *args: core(space, RecordingSurrogate(ev), *args)
        )
        run_random(space, Recording(), ACC_LAT, 30, seed=0)
        run_nsga2(space, Recording(), ACC_LAT, EaConfig(population_size=10, max_evaluations=40))
        run_linas(space, Recording(), ACC_LAT, quick_config())
        assert len(batches) > 3
        assert len(surrogate_batches) > 3  # two inner searches, many batches each
        for G in batches + surrogate_batches:
            assert isinstance(G, np.ndarray) and G.dtype == np.int64
            assert G.ndim == 2 and G.shape[1] == space.n_variables and len(G)


class TestSelectBestUnique:
    SPACE = SearchSpace("pair", (DesignVariable("a", (0, 1, 2, 3)), DesignVariable("b", (0, 1))))

    def population(self, rows):
        return (
            np.array([g for g, _ in rows], dtype=np.int64).reshape(len(rows), 2),
            np.array([obj for _, obj in rows], dtype=np.float64).reshape(len(rows), 2),
        )

    def select(self, pop, count, seen=()):
        """``select_best_unique`` with ``seen`` given as genotypes, as tuples."""
        keys = set(self.SPACE.row_keys(np.array(seen, dtype=np.int64).reshape(-1, 2)))
        chosen = select_best_unique(self.SPACE, *pop, count, keys)
        assert chosen.dtype == np.int64 and chosen.shape[1:] == (2,)
        return list(map(tuple, chosen.tolist()))

    def test_orders_by_rank_then_crowding(self):
        pop = self.population(
            [
                ((0, 0), (5.0, 5.0)),   # rank 1
                ((1, 0), (0.0, 4.0)),   # rank 0 boundary
                ((2, 0), (2.0, 2.0)),   # rank 0 interior
                ((3, 0), (4.0, 0.0)),   # rank 0 boundary
            ]
        )
        assert self.select(pop, 3) == [(1, 0), (3, 0), (2, 0)]
        assert self.select(pop, 4)[-1] == (0, 0)

    def test_skips_seen_and_duplicate_genotypes(self):
        pop = self.population(
            [
                ((0, 0), (0.0, 4.0)),
                ((0, 0), (0.0, 4.0)),
                ((1, 0), (2.0, 2.0)),
                ((2, 0), (4.0, 0.0)),
            ]
        )
        chosen = self.select(pop, 4, seen=[(1, 0)])
        assert chosen.count((0, 0)) == 1
        assert (1, 0) not in chosen
        assert len(chosen) == 2

    def test_returns_short_list_when_pool_is_small(self):
        pop = self.population([((0, 0), (1.0, 1.0))])
        assert self.select(pop, 5) == [(0, 0)]
        assert self.select(self.population([]), 5) == []

    def test_out_of_range_index_raises_before_keying(self):
        # 256 does not fit the uint8 row key: cast unchecked, it would key as
        # the stored row with 0 at that slot, and the pick would read as seen.
        space = builtin_space("mobilenetv3")
        G = space.sample_batch(np.random.default_rng(0), 1)
        slot = int(np.flatnonzero(space.active_mask_batch(G)[0] & (G[0] == 0))[0])
        store = EvaluationStore(space, ACC_LAT)
        store.insert_batch(G, [(1.0, 1.0)], source="t")
        bad = G.copy()
        bad[0, slot] = 256
        assert space.row_keys(bad) == space.row_keys(G)
        with pytest.raises(MalformedGenotypeError, match="index 256 outside"):
            select_best_unique(space, bad, np.zeros((1, 2)), 1, store)


class TestRunLinas:
    def test_budget_and_iteration_tags(self):
        space, land = small_problem()
        out = run_linas(space, land, ACC_LAT, quick_config())
        assert len(out.store) == 30
        tags = [m.iteration for m in out.store]
        assert tags == [1] * 10 + [2] * 10 + [3] * 10
        assert all(m.source == "linas" for m in out.store)
        assert [m.eval_index for m in out.store] == list(range(1, 31))

    def test_real_evaluator_called_exactly_budget_times(self):
        space, land = small_problem()
        spy = CountingEvaluator(land)
        out = run_linas(space, spy, ACC_LAT, quick_config())
        assert len(out.store) == 30
        assert spy.calls == 30

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        space, land = small_problem()
        a = run_linas(space, land, ACC_LAT, quick_config(seed=4))
        b = run_linas(space, land, ACC_LAT, quick_config(seed=4))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.store.to_jsonl(pa)
        b.store.to_jsonl(pb)
        assert pa.read_bytes() == pb.read_bytes()
        c = run_linas(space, land, ACC_LAT, quick_config(seed=5))
        assert [m.genotype for m in c.store] != [m.genotype for m in a.store]

    def test_single_iteration_matches_random_search_modulo_tags(self):
        space, land = small_problem()
        rand = run_random(space, land, ACC_LAT, budget=12, seed=8)
        linas = run_linas(
            space, land, ACC_LAT,
            quick_config(population_size=12, iterations=1, seed=8),
        )
        assert len(linas.store) == 12
        for mr, ml in zip(rand.store, linas.store):
            assert mr.genotype == ml.genotype
            assert mr.values == ml.values
            assert mr.eval_index == ml.eval_index
            assert (mr.source, mr.iteration) == ("random", 0)
            assert (ml.source, ml.iteration) == ("linas", 1)

    def test_models_fitted_per_iteration_per_objective(self, monkeypatch):
        fitted = []
        fit = RidgeModel.fit

        def recording_fit(model, X, y):
            fitted.append(model)
            return fit(model, X, y)

        monkeypatch.setattr(RidgeModel, "fit", recording_fit)
        space, land = small_problem()
        cfg = quick_config(predictor_kinds=("ridge", "ridge"))
        out = run_linas(space, land, ACC_LAT, cfg)
        assert len(fitted) == (cfg.iterations - 1) * 2
        probe = featurize_batch(space, [m.genotype for m in out.store][:5])
        for model in fitted:
            assert model.predict(probe).shape == (5,)

    def test_inner_search_runs_without_a_store(self, monkeypatch):
        calls = []

        def recording_core(space, evaluator, objectives, config, store=None):
            G, F, generations = nsga2_core(space, evaluator, objectives, config, store=store)
            calls.append((store, G))
            return G, F, generations

        monkeypatch.setattr(linas, "nsga2_core", recording_core)
        space, land = small_problem()
        cfg = quick_config()
        out = run_linas(space, land, ACC_LAT, cfg)
        assert len(out.store) == 30
        assert all(m.source == "linas" for m in out.store)
        assert len(calls) == cfg.iterations - 1
        for store, G in calls:
            assert store is None
            assert G.shape == (10, space.n_variables)
            assert np.array_equal(space.canonicalize_batch(G), G)

    def test_every_pick_is_measured_in_the_next_iteration(self, monkeypatch):
        picks = []

        def recording_select(space, genotypes, objectives, count, seen):
            chosen = select_best_unique(space, genotypes, objectives, count, seen)
            picks.append((len(seen) // count, chosen))
            return chosen

        monkeypatch.setattr(linas, "select_best_unique", recording_select)
        space, land = small_problem()
        cfg = quick_config()
        out = run_linas(space, land, ACC_LAT, cfg)
        assert [i for i, _ in picks] == list(range(1, cfg.iterations))
        tags = {m.genotype: (m.source, m.iteration) for m in out.store}
        for i, chosen in picks:
            assert len(chosen)
            for g in map(tuple, chosen.tolist()):
                assert tags[g] == ("linas", i + 1)

    def test_single_iteration_fits_and_searches_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a one-iteration run has nothing to promote")

        monkeypatch.setattr(linas, "make_predictor", forbidden)
        monkeypatch.setattr(linas, "nsga2_core", forbidden)
        space, land = small_problem()
        out = run_linas(space, land, ACC_LAT, quick_config(iterations=1))
        assert len(out.store) == 10
        assert np.array_equal(out.population[0], out.store.genotype_matrix())

    def test_front_is_nondominated_subset_of_store(self):
        space, land = small_problem()
        out = run_linas(space, land, ACC_LAT, quick_config(seed=2))
        records = list(out.store)
        front = [records[i] for i in pareto_front(out.store.values_matrix(), ACC_LAT)]
        assert front
        for ind in front:
            for m in out.store:
                better_acc = m.values[0] > ind.values[0]
                better_lat = m.values[1] < ind.values[1]
                no_worse = m.values[0] >= ind.values[0] and m.values[1] <= ind.values[1]
                assert not (no_worse and (better_acc or better_lat))

    def test_budget_exceeding_cardinality_raises_upfront(self, masked_space):
        land = SyntheticLandscape.from_seed(masked_space, seed=0)
        with pytest.raises(SpaceExhaustedError):
            run_linas(
                masked_space, land, ACC_LAT,
                quick_config(population_size=5, iterations=5),
            )

    def test_rejecting_evaluator_fills_from_table(self, free_space):
        keep = {
            (a, b, c): (float(a + b + c), float(a))
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if not (a == 0 and b == 0)
        }
        table = TabularEvaluator(free_space, keep, 2, missing_policy="nearest-reject")
        out = run_linas(
            free_space, table, ACC_LAT,
            quick_config(population_size=4, iterations=3, inner_evaluations=20),
        )
        assert len(out.store) == 12
        for m in out.store:
            assert m.genotype in keep

    def test_outcome_type(self):
        space, land = small_problem()
        out = run_linas(space, land, ACC_LAT, quick_config())
        assert isinstance(out, SearchOutcome)
        assert out.generations == 0
        G, V = out.population
        assert np.array_equal(G, out.store.genotype_matrix()[-10:])
        assert np.array_equal(V, out.store.values_matrix()[-10:])
        assert G.dtype == np.int64 and G.shape == (10, space.n_variables)
        assert [m.iteration for m in list(out.store)[-10:]] == [3] * 10

    def test_stacked_predictor_end_to_end(self):
        space, land = small_problem()
        cfg = quick_config(
            population_size=12, iterations=2, predictor_kinds=("stacked",)
        )
        out = run_linas(space, land, ACC_LAT, cfg)
        assert len(out.store) == 24


# SHA-256 prefixes of the paper setup's store JSONL (mobilenetv3, landscape
# seed 0, rho 0.8; 50 x 5, 20k inner queries): ridge with seed 0, and the
# benchmark's stacked accuracy + ridge latency predictors with seed 1.
# Predictor fits see the last bits of the landscape values, so the hashes
# are recorded for one numpy version only.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_PREFIX = "2585a1b06f84096e"
GOLDEN_STACKED_PREFIX = "6286bfd3ee1c544b"
golden = pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY,
    reason=f"golden store hash is recorded for numpy {GOLDEN_NUMPY}, not {np.__version__}",
)


def paper_setup_store_hash(tmp_path, kinds, seed):
    space = builtin_space("mobilenetv3")
    land = SyntheticLandscape.from_seed(space, seed=0, rho=0.8)
    config = LinasConfig(
        population_size=50, iterations=5, inner_evaluations=20_000,
        predictor_kinds=kinds, seed=seed,
    )
    outcome = run_linas(space, land, ACC_LAT, config)
    path = tmp_path / "store.jsonl"
    outcome.store.to_jsonl(path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@golden
def test_paper_setup_store_matches_golden_hash(tmp_path):
    assert paper_setup_store_hash(tmp_path, ("ridge",), 0).startswith(GOLDEN_PREFIX)


@golden
def test_paper_setup_stacked_ridge_store_matches_golden_hash(tmp_path):
    hexdigest = paper_setup_store_hash(tmp_path, ("stacked", "ridge"), 1)
    assert hexdigest.startswith(GOLDEN_STACKED_PREFIX)
