"""Predictor correctness against closed-form oracles and hand values."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from conftest import make_masked_space
from linas_moo import predictor
from linas_moo.moea import draw_unseen, search_rng
from linas_moo.objective import SyntheticLandscape
from linas_moo.predictor import (
    PREDICTOR_KINDS,
    PredictorReport,
    RankDeficientError,
    RidgeModel,
    StackedModel,
    SvrRbfModel,
    UndefinedMetricError,
    _rbf_kernel,
    analyze_predictors,
    featurize_batch,
    featurize_canonical,
    kendall_tau,
    make_predictor,
    mape,
)
from linas_moo.space import builtin_space


def ridge_oracle(X: np.ndarray, y: np.ndarray, alpha: float):
    """Independent route: one augmented normal-equation solve, intercept
    unpenalised, no centering."""
    n, d = X.shape
    A = np.zeros((d + 1, d + 1))
    A[0, 0] = n
    A[0, 1:] = X.sum(axis=0)
    A[1:, 0] = X.sum(axis=0)
    A[1:, 1:] = X.T @ X + alpha * np.eye(d)
    rhs = np.concatenate([[y.sum()], X.T @ y])
    beta = np.linalg.solve(A, rhs)
    return float(beta[0]), beta[1:]


def kendall_oracle(x, y) -> float:
    """Independent route: explicit pair classification loops."""
    conc = disc = tx = ty = 0
    n = len(x)
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tx += 1
            elif dy == 0:
                ty += 1
            elif (dx > 0) == (dy > 0):
                conc += 1
            else:
                disc += 1
    return (conc - disc) / math.sqrt((conc + disc + tx) * (conc + disc + ty))


def reference_rbf_kernel(A, B, gamma):
    """The broadcast RBF formula, three n x m temporaries at once."""
    sq = (
        np.sum(A * A, axis=1)[:, None]
        + np.sum(B * B, axis=1)[None, :]
        - 2.0 * (A @ B.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


def reference_smo(X, z, C, eps, gamma, tol, max_iter):
    """The WSS2 SMO loop written out plainly: the pair curvature is formed
    from the kernel row on every iteration and the gap is ``score.max()``.
    ``SvrRbfModel.fit`` must follow it bit for bit.

    Returns ``(beta, intercept, n_iter, kkt_gap, converged)``.
    """
    n = X.shape[0]
    K = reference_rbf_kernel(X, X, gamma)
    alpha = [0.0] * n
    alpha_s = [0.0] * n
    f = z.copy()
    up = np.full(n, -eps)
    low = np.full(n, eps)
    v_up = np.empty(n)
    score = np.empty(n)
    half_quad = np.empty(n)
    step = np.empty(n)
    it = 0
    gap = math.inf
    converged = False
    for it in range(1, max_iter + 1):
        np.add(f, up, out=v_up)
        i = int(v_up.argmax())
        m = float(v_up[i])
        np.subtract(m, f, out=score)
        score -= low
        gap = float(score.max())
        if gap <= tol:
            converged = True
            break
        col_i = K[i]
        np.subtract(1.0, col_i, out=half_quad)
        np.maximum(half_quad, 1e-12 / 2.0, out=half_quad)
        np.maximum(score, 0.0, out=score)
        score *= score
        score /= half_quad
        j = int(score.argmax())
        col_j = K[j]
        b_ij = m - float(f[j] + low[j])
        q = 2.0 * float(half_quad[j])
        si = -1.0 if alpha_s[i] > 0 else 1.0
        sj = 1.0 if alpha[j] > 0 else -1.0
        old_i = alpha_s[i] if si < 0 else alpha[i]
        old_j = alpha[j] if sj > 0 else alpha_s[j]
        if si != sj:
            delta = si * b_ij / q
            diff = old_i - old_j
            ni, nj = old_i + delta, old_j + delta
            if diff > 0:
                if nj < 0:
                    nj, ni = 0.0, diff
                if ni > C:
                    ni, nj = C, C - diff
            else:
                if ni < 0:
                    ni, nj = 0.0, -diff
                if nj > C:
                    nj, ni = C, C + diff
        else:
            delta = -si * b_ij / q
            total = old_i + old_j
            ni, nj = old_i - delta, old_j + delta
            if total > C:
                if ni > C:
                    ni, nj = C, total - C
                if nj > C:
                    nj, ni = C, total - C
            else:
                if nj < 0:
                    nj, ni = 0.0, total
                if ni < 0:
                    ni, nj = 0.0, total
        if si < 0:
            alpha_s[i] = ni
        else:
            alpha[i] = ni
        if sj > 0:
            alpha[j] = nj
        else:
            alpha_s[j] = nj
        np.multiply(col_i, si * (ni - old_i), out=step)
        f -= step
        np.multiply(col_j, sj * (nj - old_j), out=step)
        f -= step
        for t in (i, j):
            a_t, s_t = alpha[t], alpha_s[t]
            up[t] = eps if s_t > 0 else (-eps if a_t < C else -math.inf)
            low[t] = -eps if a_t > 0 else (eps if s_t < C else math.inf)
    alpha_v = np.array(alpha)
    alpha_s_v = np.array(alpha_s)
    free = (alpha_v > 0) & (alpha_v < C)
    free_s = (alpha_s_v > 0) & (alpha_s_v < C)
    if np.any(free) or np.any(free_s):
        b = float(np.mean(np.concatenate([f[free] - eps, f[free_s] + eps])))
    else:
        b = float((np.max(f + up) + np.min(f + low)) / 2.0)
    return alpha_v - alpha_s_v, b, it, gap, converged


def learning_curve_data(n=1000):
    """The largest train size of the learning-curve protocol: ``n``
    distinct ncf genotypes from the seed-0 synthetic landscape."""
    space = builtin_space("ncf")
    landscape = SyntheticLandscape.from_seed(space, seed=0, rho=0.8, noise_sd=0.0)
    genotypes, _ = draw_unseen(space, search_rng(0), n, ())
    X = featurize_batch(space, genotypes)
    return X, np.asarray(landscape.evaluate_batch(genotypes))[:, 0]


class TestFeaturize:
    def test_unit_interval_coordinates(self):
        space = make_masked_space()
        # s1 has 3 options: index 2 -> 1.0; free has 2: index 1 -> 1.0.
        feats = featurize_batch(space, [(1, 2, 1, 1)])
        assert np.allclose(feats, [[1.0, 1.0, 0.5, 1.0]])

    def test_masked_position_contributes_zero(self):
        space = make_masked_space()
        # depth index 0 masks slot 2 regardless of its raw index.
        feats = featurize_batch(space, [(0, 1, j, 0) for j in range(3)])
        assert np.all(feats[:, 2] == 0.0)

    def test_batch_matches_scalar(self):
        space = make_masked_space()
        rng = np.random.default_rng(0)
        gs = space.sample_batch(rng, 20)
        batch = featurize_batch(space, gs)
        assert np.array_equal(batch, np.concatenate([featurize_batch(space, [g]) for g in gs]))

    def test_canonical_rows_featurize_without_canonicalizing(self):
        space = builtin_space("mobilenetv3")
        G = space.sample_batch(np.random.default_rng(3), 50)
        assert featurize_canonical(space, G).tobytes() == featurize_batch(space, G).tobytes()


class TestRidge:
    def test_matches_augmented_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n, d = int(rng.integers(10, 60)), int(rng.integers(1, 8))
            X = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            alpha = float(rng.uniform(0.01, 5.0))
            model = RidgeModel(alpha=alpha).fit(X, y)
            b0, w0 = ridge_oracle(X, y, alpha)
            assert np.allclose(model.coef_, w0, atol=1e-8)
            assert model.intercept_ == pytest.approx(b0, abs=1e-8)

    def test_exact_interpolation_without_penalty(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        w = np.array([1.5, -2.0, 0.5, 3.0])
        y = X @ w + 0.25
        model = RidgeModel(alpha=0.0).fit(X, y)
        assert np.allclose(model.predict(X), y, atol=1e-9)
        assert np.allclose(model.coef_, w, atol=1e-9)

    def test_rank_deficiency_reported(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 3))
        X = np.column_stack([X, X[:, 0]])  # duplicated column
        y = rng.normal(size=20)
        with pytest.raises(RankDeficientError, match="rank"):
            RidgeModel(alpha=0.0).fit(X, y)
        # Any positive penalty makes the same system solvable.
        RidgeModel(alpha=1e-6).fit(X, y)

    def test_constant_target(self):
        X = np.random.default_rng(3).normal(size=(10, 2))
        model = RidgeModel(alpha=1.0).fit(X, np.full(10, 4.5))
        assert np.allclose(model.predict(X), 4.5, atol=1e-9)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            RidgeModel(alpha=-1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            RidgeModel().fit(np.zeros((3, 2)), np.zeros(4))


class TestSvrRbf:
    def test_constant_target_gives_zero_duals(self):
        X = np.linspace(0, 1, 8).reshape(-1, 1)
        model = SvrRbfModel(epsilon=0.1).fit(X, np.full(8, 3.25))
        assert np.allclose(model.dual_coef_, 0.0)
        assert model.intercept_ == pytest.approx(3.25, abs=1e-12)
        assert np.allclose(model.predict(X), 3.25)

    def test_line_fit_within_tube(self):
        X = np.linspace(0, 1, 5).reshape(-1, 1)
        y = X.ravel().copy()
        model = SvrRbfModel(C=1000.0, epsilon=0.01, gamma=1.0).fit(X, y)
        assert model.converged_
        residuals = np.abs(model.predict(X) - y)
        assert float(residuals.max()) <= 0.01 + 1e-3

    def test_equality_constraint_and_box(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(size=(40, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        model = SvrRbfModel(C=10.0, epsilon=0.05).fit(X, y)
        assert abs(float(np.sum(model.dual_coef_))) < 1e-9
        assert float(np.max(np.abs(model.dual_coef_))) <= 10.0 + 1e-12

    def test_conflicting_duplicates_saturate_box(self):
        X = np.zeros((2, 1))
        y = np.array([0.0, 1.0])
        model = SvrRbfModel(C=5.0, epsilon=0.01).fit(X, y)
        assert np.allclose(np.abs(model.dual_coef_), 5.0)
        pred = float(model.predict(np.zeros((1, 1)))[0])
        assert 0.0 < pred < 1.0

    @pytest.mark.parametrize("n", [50, 250, "zero support"])
    def test_predict_matches_full_training_kernel(self, n):
        # predict keeps only the support rows and their norms; it must equal
        # the kernel against every training row's support subset bit for bit.
        X, y = learning_curve_data(n=250)
        if n == "zero support":
            X, y = X[:50], np.full(50, 3.25)
        else:
            X, y = X[:n], y[:n]
        model = SvrRbfModel().fit(X, y)
        support = np.nonzero(model.dual_coef_)[0]
        assert (support.size == 0) == (n == "zero support")
        probe = learning_curve_data(n=300)[0][250:]
        if support.size:
            K = _rbf_kernel(probe, X[support], model.gamma_)
            want = K @ model.dual_coef_[support] + model.intercept_
        else:
            want = np.full(len(probe), model.intercept_)
        assert model.predict(probe).tobytes() == want.tobytes()

    def test_kkt_gap_at_most_tol_when_converged(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(60, 2))
        y = X[:, 0] ** 2 - X[:, 1]
        model = SvrRbfModel().fit(X, y)
        assert model.converged_
        assert model.kkt_gap_ <= model.tol

    def test_refits_are_bitwise_identical(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(50, 4))
        y = rng.normal(size=50)
        a = SvrRbfModel().fit(X, y)
        b = SvrRbfModel().fit(X, y)
        assert np.array_equal(a.dual_coef_, b.dual_coef_)
        assert a.intercept_ == b.intercept_
        grid = rng.uniform(size=(20, 4))
        assert np.array_equal(a.predict(grid), b.predict(grid))

    def test_converges_on_learning_curve_data(self):
        X, y = learning_curve_data()
        model = SvrRbfModel().fit(X, y)
        assert model.converged_
        assert model.kkt_gap_ <= model.tol
        assert model.n_iter_ < model.max_iter

    def test_default_gamma_is_inverse_dimension(self):
        X = np.random.default_rng(0).uniform(size=(10, 4))
        model = SvrRbfModel().fit(X, X[:, 0])
        assert model.gamma_ == pytest.approx(0.25)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SvrRbfModel(C=0.0)
        with pytest.raises(ValueError):
            SvrRbfModel(epsilon=-0.1)
        with pytest.raises(ValueError):
            SvrRbfModel(gamma=0.0)


class TestSmoMatchesReference:
    """``SvrRbfModel.fit`` takes the reference loop's path bit for bit."""

    @pytest.mark.parametrize(
        "case, params",
        [
            ("constant", {"epsilon": 0.1}),
            ("duplicates", {"C": 5.0}),
            ("random", {"max_iter": 50}),
            ("random", {"gamma": 2.5}),
            ("learning_curve", {}),
        ],
    )
    def test_fit_matches_reference(self, case, params):
        if case == "constant":
            X, y = np.linspace(0, 1, 8).reshape(-1, 1), np.full(8, 3.25)
        elif case == "duplicates":
            X, y = np.zeros((2, 1)), np.array([0.0, 1.0])
        elif case == "random":
            rng = np.random.default_rng(3)
            X = rng.uniform(size=(120, 5))
            y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2]
        else:
            X, y = learning_curve_data()
        model = SvrRbfModel(**params).fit(X, y)
        beta, b, n_iter, gap, converged = reference_smo(
            X, y, model.C, model.epsilon, model.gamma_, model.tol, model.max_iter
        )
        assert model.dual_coef_.tobytes() == beta.tobytes()
        assert model.intercept_.hex() == b.hex()
        assert model.n_iter_ == n_iter
        assert model.kkt_gap_.hex() == gap.hex()
        assert model.converged_ == converged
        if "max_iter" in params:
            # The cap case: the gap is the last iteration's, above tol.
            assert not converged and n_iter == 50 and gap > model.tol
        if case == "duplicates":
            assert np.all(np.abs(beta) == 5.0)

    @pytest.mark.parametrize("d", [9, 45])
    @pytest.mark.parametrize("rows", [(60, 60), (70, 31)])
    def test_kernel_matches_broadcast_formula(self, d, rows):
        rng = np.random.default_rng(d)
        A = rng.uniform(size=(rows[0], d))
        B = A if rows[0] == rows[1] else rng.uniform(size=(rows[1], d))
        for gamma in (1.0 / d, 0.37):
            expected = reference_rbf_kernel(A, B, gamma)
            assert _rbf_kernel(A, B, gamma).tobytes() == expected.tobytes()

    def test_fit_memory_peak_is_two_matrices(self):
        # The kernel and the curvature matrix, plus O(n) working vectors.
        X, y = learning_curve_data()
        n = X.shape[0]
        tracemalloc.start()
        try:
            SvrRbfModel().fit(X, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n * n * 8 + 2**20


class TestStacked:
    def linear_data(self, n=60, seed=5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 3))
        y = 2.0 * X[:, 0] - X[:, 1] + 0.5 * X[:, 2] + 1.0
        return X, y

    def test_oof_bookkeeping_matches_manual_refits(self):
        X, y = self.linear_data()
        model = StackedModel(n_folds=4, seed=3).fit(X, y)
        folds = model.fold_assignments_
        assert set(folds.tolist()) == {0, 1, 2, 3}
        for f in range(4):
            test = folds == f
            train = ~test
            ridge = RidgeModel().fit(X[train], y[train])
            svr = SvrRbfModel().fit(X[train], y[train])
            assert np.array_equal(model.oof_predictions_[test, 0], ridge.predict(X[test]))
            assert np.array_equal(model.oof_predictions_[test, 1], svr.predict(X[test]))

    def test_fold_sizes_balanced(self):
        X, y = self.linear_data(n=23)
        model = StackedModel(n_folds=5, seed=0).fit(X, y)
        counts = np.bincount(model.fold_assignments_, minlength=5)
        assert counts.min() >= 23 // 5
        assert counts.max() <= math.ceil(23 / 5)

    def test_too_few_samples_raise(self):
        X, y = self.linear_data(n=4)
        with pytest.raises(ValueError, match="folds"):
            StackedModel(n_folds=5).fit(X, y)

    def test_deterministic_given_seed(self):
        X, y = self.linear_data()
        grid = np.random.default_rng(8).uniform(size=(10, 3))
        a = StackedModel(seed=7).fit(X, y).predict(grid)
        b = StackedModel(seed=7).fit(X, y).predict(grid)
        assert np.array_equal(a, b)
        c = StackedModel(seed=8).fit(X, y)
        assert not np.array_equal(c.fold_assignments_, StackedModel(seed=7).fit(X, y).fold_assignments_)

    def test_tracks_linear_target(self):
        X, y = self.linear_data(n=120)
        model = StackedModel(seed=0).fit(X, y)
        rng = np.random.default_rng(10)
        grid = rng.uniform(size=(40, 3))
        truth = 2.0 * grid[:, 0] - grid[:, 1] + 0.5 * grid[:, 2] + 1.0
        assert mape(model.predict(grid), truth) < 2.0


class TestMape:
    def test_hand_value(self):
        assert mape([110.0, 90.0], [100.0, 100.0]) == pytest.approx(10.0)

    def test_zero_actual_raises(self):
        with pytest.raises(UndefinedMetricError):
            mape([1.0], [0.0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mape([1.0, 2.0], [1.0])


class TestKendallTau:
    def test_perfect_orders(self):
        x = np.arange(10.0)
        assert kendall_tau(x, x) == pytest.approx(1.0)
        assert kendall_tau(x, -x) == pytest.approx(-1.0)

    def test_hand_value_with_ties(self):
        # Pairs: (1,2) conc, (1,2) vs y tie -> computed by the loop oracle too.
        x = [1.0, 2.0, 2.0, 3.0]
        y = [1.0, 3.0, 2.0, 3.0]
        assert kendall_tau(x, y) == pytest.approx(kendall_oracle(x, y))

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            # Small integer support forces plenty of ties.
            x = rng.integers(0, 6, size=50).astype(float)
            y = rng.integers(0, 6, size=50).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert kendall_tau(x, y) == kendall_oracle(x, y)

    def test_matches_scipy(self):
        rng = np.random.default_rng(321)
        for _ in range(20):
            x = rng.normal(size=40)
            y = rng.integers(0, 4, size=40).astype(float)
            ours = kendall_tau(x, y)
            ref = stats.kendalltau(x, y).statistic
            assert ours == pytest.approx(ref, abs=1e-12)

    def test_fully_tied_raises(self):
        with pytest.raises(UndefinedMetricError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("block_pairs", [1, 7, 64, 2500])
    def test_row_blocks_match_loop_oracle_exactly(self, monkeypatch, block_pairs):
        # Blocks of one row up to one block for all 50 rows.
        monkeypatch.setattr(predictor, "_TAU_BLOCK_PAIRS", block_pairs)
        rng = np.random.default_rng(124)
        for n in (2, 3, 17, 50):
            for _ in range(10):
                x = rng.integers(0, 4, size=n).astype(float)
                y = rng.integers(0, 4, size=n).astype(float)
                if np.all(x == x[0]) or np.all(y == y[0]):
                    continue
                assert kendall_tau(x, y) == kendall_oracle(x, y)

    def test_memory_is_bounded_in_n(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 50, size=4000).astype(float)
        y = x + rng.integers(0, 50, size=4000)
        tracemalloc.start()
        try:
            kendall_tau(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestAnalyzeProtocol:
    def dataset(self, n=160, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 4))
        y = 3.0 + X @ np.array([1.0, -0.5, 2.0, 0.25]) + 0.05 * X[:, 0] * X[:, 1]
        return X, y

    def test_too_small_dataset_raises(self):
        X, y = self.dataset(n=50)
        with pytest.raises(ValueError, match="needs"):
            analyze_predictors(X, y, train_sizes=(40,), trials=2, test_size=20)

    def test_report_structure_and_determinism(self):
        X, y = self.dataset()
        kwargs = dict(train_sizes=(20, 60), trials=3, test_size=40, seed=9)
        a = analyze_predictors(X, y, **kwargs)
        b = analyze_predictors(X, y, **kwargs)
        assert isinstance(a, PredictorReport)
        assert a.kinds == tuple(PREDICTOR_KINDS)
        for kind in a.kinds:
            assert a.mape_trials[kind].shape == (2, 3)
            assert np.all(np.isfinite(a.mape_trials[kind]))
            assert np.array_equal(a.mape_trials[kind], b.mape_trials[kind])
            assert np.array_equal(a.tau_trials[kind], b.tau_trials[kind])

    def test_single_kinds_match_a_run_with_stacked(self):
        X, y = self.dataset()
        kwargs = dict(train_sizes=(20, 60), trials=2, test_size=40, seed=3)
        together = analyze_predictors(X, y, **kwargs)
        for kind in ("ridge", "svr_rbf"):
            alone = analyze_predictors(X, y, kinds=(kind,), **kwargs)
            assert np.array_equal(together.mape_trials[kind], alone.mape_trials[kind])
            assert np.array_equal(together.tau_trials[kind], alone.tau_trials[kind])

    def test_rows_cover_grid(self):
        X, y = self.dataset()
        report = analyze_predictors(
            X, y, train_sizes=(20, 60), trials=2, test_size=40, kinds=("ridge",)
        )
        rows = report.rows()
        assert len(rows) == 2
        assert {r["train_size"] for r in rows} == {20, 60}
        assert all(set(r) == {
            "train_size", "kind", "mape_mean", "mape_stderr", "tau_mean", "tau_stderr"
        } for r in rows)

    @pytest.mark.parametrize(
        "settings, message",
        [
            (dict(train_sizes=(40, 80, 3), kinds=("stacked",)), "stacked needs at least 5"),
            (dict(train_sizes=(40,), test_size=1), "test_size: must be at least 2"),
            (dict(train_sizes=(40,), trials=2.5), "trials: expected an integer, got 2.5"),
            (dict(train_sizes=(40,), trials=True), "trials: expected an integer, got True"),
            (dict(train_sizes=(40,), test_size=2.5), "test_size: expected an integer, got 2.5"),
            (dict(train_sizes=(40,), test_size=False), "test_size: expected an integer"),
        ],
    )
    def test_bad_settings_raise_before_any_fit(self, monkeypatch, settings, message):
        fits = []
        real_fit = SvrRbfModel.fit

        def counted_fit(model, X, y):
            fits.append(len(y))
            return real_fit(model, X, y)

        monkeypatch.setattr(SvrRbfModel, "fit", counted_fit)
        X, y = self.dataset(n=200)
        with pytest.raises(ValueError, match=message):
            analyze_predictors(X, y, **(dict(trials=2, test_size=40) | settings))
        assert fits == []
        analyze_predictors(X, y, train_sizes=(40,), trials=1, test_size=40, kinds=("svr_rbf",))
        assert fits == [40]

    def test_unknown_kind_rejected(self):
        X, y = self.dataset()
        with pytest.raises(ValueError, match="unknown predictor"):
            analyze_predictors(X, y, train_sizes=(20,), trials=1, test_size=20, kinds=("mlp",))

    def test_make_predictor_factory(self):
        assert isinstance(make_predictor("ridge"), RidgeModel)
        assert isinstance(make_predictor("svr_rbf"), SvrRbfModel)
        assert isinstance(make_predictor("stacked"), StackedModel)
        with pytest.raises(ValueError):
            make_predictor("gp")
