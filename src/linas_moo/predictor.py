"""Objective predictors trained on (genotype features, measured value) pairs.

Three kinds: ridge regression solved in closed form, an epsilon-insensitive
SVR with an RBF kernel solved by SMO-style two-coordinate ascent, and a
stacked combination whose ridge meta-model is trained on out-of-fold base
predictions. Features are the unit-interval coordinates of canonical
genotypes, so masked positions contribute 0 and every feature lies in [0,1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .space import SearchSpace

DEFAULT_RIDGE_ALPHA = 1.0
DEFAULT_SVR_C = 10.0
DEFAULT_SVR_EPSILON = 0.01
DEFAULT_SVR_TOL = 1e-3
DEFAULT_SVR_MAX_ITER = 10_000
DEFAULT_STACK_FOLDS = 5
# The meta-model combines two near-collinear prediction columns; the useful
# signal lives in their tiny difference directions, so a unit penalty would
# drag the weights toward an even split regardless of base quality.
DEFAULT_META_ALPHA = 1e-6
DEFAULT_TRAIN_SIZES = tuple(range(100, 1001, 100))
DEFAULT_TRIALS = 100
DEFAULT_TEST_SIZE = 500
DEFAULT_ANALYSIS_SEED = 0

# Floor on the pair curvature K_ii + K_jj - 2 K_ij (LIBSVM's TAU).
_TAU = 1e-12
_FOLD_TAG = 0xF01D
_TRIAL_TAG = 0x7B1A1
_TAU_BLOCK_PAIRS = 2**20  # pairs kendall_tau compares at once, which bounds its temporaries


class RankDeficientError(ValueError):
    """Raised when an unregularised ridge system cannot be solved."""


class UndefinedMetricError(ValueError):
    """Raised when MAPE or Kendall tau has a zero denominator."""


def featurize_canonical(space: SearchSpace, G: np.ndarray) -> np.ndarray:
    """Features of ``(B, n)`` rows that are already canonical: ``index / (k_i - 1)``."""
    return G / space.unit_denominators


def featurize_batch(space: SearchSpace, genotypes) -> np.ndarray:
    """Feature matrix ``(B, n_variables)``: canonical unit-interval coordinates."""
    return featurize_canonical(space, space.canonicalize_batch(genotypes))


def _check_xy(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise ValueError(f"y shape {y.shape} does not match {X.shape[0]} rows")
    if X.shape[0] == 0:
        raise ValueError("cannot fit on an empty dataset")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("features and targets must be finite")
    return X, y


class RidgeModel:
    """L2-regularised linear regression, intercept unpenalised.

    Fitting centers features and targets and solves the normal equations
    ``(Xc' Xc + alpha I) w = Xc' yc`` directly.
    """

    def __init__(self, alpha: float = DEFAULT_RIDGE_ALPHA):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = float(alpha)
        self.coef_: np.ndarray | None = None
        self.intercept_: float | None = None

    def fit(self, X, y) -> "RidgeModel":
        X, y = _check_xy(X, y)
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        d = X.shape[1]
        if self.alpha == 0.0:
            rank = int(np.linalg.matrix_rank(Xc))
            if rank < d:
                raise RankDeficientError(
                    f"alpha=0 with centered feature rank {rank} < {d} columns"
                )
        gram = Xc.T @ Xc + self.alpha * np.eye(d)
        try:
            self.coef_ = np.linalg.solve(gram, Xc.T @ (y - y_mean))
        except np.linalg.LinAlgError as exc:
            raise RankDeficientError(f"normal equations are singular: {exc}") from exc
        self.intercept_ = y_mean - float(x_mean @ self.coef_)
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float64)
        return X @ self.coef_ + self.intercept_


def _rbf_kernel(A: np.ndarray, B: np.ndarray, gamma: float, B_sq=None) -> np.ndarray:
    # Built in place; the operation order of exp(-gamma * max(|a|^2 + |b|^2
    # - 2 a.b, 0)) is kept so that outputs stay bitwise stable. B_sq: |b|^2.
    sq = np.add.outer(np.sum(A * A, axis=1), np.sum(B * B, axis=1) if B_sq is None else B_sq)
    cross = A @ B.T
    cross *= 2.0
    sq -= cross
    del cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


class SvrRbfModel:
    """Epsilon-insensitive SVR with an RBF kernel.

    The dual is solved by SMO over the doubled variable vector
    ``(alpha, alpha*)`` with second-order working-set selection (WSS2 of
    Fan, Chen & Lin, JMLR 2005, as in LIBSVM): the first index is the
    maximal violator, the second the violating partner whose pair step
    promises the largest decrease of the dual objective. The loop stops at a
    KKT gap of ``tol`` or after ``max_iter`` pair updates, whichever comes
    first; ``converged_`` false means the fit stopped at ``max_iter`` with
    ``kkt_gap_`` still above ``tol``. The full kernel matrix and the pair
    curvature matrix are materialised once per fit, so a fit holds 2 n^2
    floats; intended for the few-thousand-sample regime.

    Attributes after fit: ``dual_coef_`` (beta = alpha - alpha*, one per
    training point, |beta| <= C), ``intercept_``, ``kkt_gap_``,
    ``n_iter_``, ``converged_``. Only the support rows (beta != 0) are kept.
    """

    def __init__(
        self,
        C: float = DEFAULT_SVR_C,
        epsilon: float = DEFAULT_SVR_EPSILON,
        gamma: float | None = None,
        tol: float = DEFAULT_SVR_TOL,
        max_iter: int = DEFAULT_SVR_MAX_ITER,
    ):
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        if epsilon < 0:
            raise ValueError(f"epsilon must be non-negative, got {epsilon}")
        if gamma is not None and gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.dual_coef_: np.ndarray | None = None
        self.intercept_: float | None = None
        self.gamma_: float | None = None
        self.kkt_gap_: float | None = None
        self.n_iter_: int = 0
        self.converged_: bool = False
        self._support: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def fit(self, X, y) -> "SvrRbfModel":
        X, z = _check_xy(X, y)
        n = X.shape[0]
        self.gamma_ = self.gamma if self.gamma is not None else 1.0 / X.shape[1]
        # K is symmetric, so row t stands for column t and the hot loop
        # reads contiguous views.
        K = _rbf_kernel(X, X, self.gamma_)
        # Half the WSS2 pair curvature, K_ii + K_jj - 2 K_ij = 2 (1 - K_ij)
        # (the RBF diagonal is 1), floored like LIBSVM's tau.
        H = np.subtract(1.0, K)
        np.maximum(H, _TAU / 2.0, out=H)
        K_rows, H_rows = list(K), list(H)  # row views, built once
        C, eps = self.C, self.epsilon

        # Doubled formulation: lam = (alpha, alpha*), sign = (+1, -1),
        # p = (eps - z, eps + z); minimise 0.5 lam' Qhat lam + p' lam with
        # sign' lam = 0 and 0 <= lam <= C, Qhat = [[K, -K], [-K, K]].
        # The gradient is (eps - f, eps + f) for the residual f = z - K beta,
        # beta = alpha - alpha*, so f is the only n-vector the loop updates.
        # The KKT values -sign * grad of alpha[t] and alpha*[t] are
        # f[t] - eps and f[t] + eps. Per index, the largest value in the up
        # set is f + up and the smallest in the low set is f + low; the
        # shifts only change at the two indices a pair update touches.
        alpha = [0.0] * n
        alpha_s = [0.0] * n
        f = z.copy()
        up = np.full(n, -eps)  # alpha < C, alpha* == 0
        low = np.full(n, eps)  # alpha == 0, alpha* < C
        v_up = np.empty(n)
        score = np.empty(n)
        step = np.empty(n)
        f_at, low_at = f.item, low.item
        it = 0
        gap = math.inf
        for it in range(1, self.max_iter + 1):
            np.add(f, up, out=v_up)
            i = int(v_up.argmax())
            m = v_up.item(i)
            # score = m - (f + low): positive where t violates with i.
            np.subtract(m, f, out=score)
            score -= low
            gap = score.item(score.argmax())
            if gap <= self.tol:
                self.converged_ = True
                break

            # WSS2: among violating t, maximise score^2 / quad_t.
            half_quad = H_rows[i]
            np.maximum(score, 0.0, out=score)
            score *= score
            score /= half_quad
            j = int(score.argmax())
            b_ij = m - (f_at(j) + low_at(j))
            q = 2.0 * half_quad.item(j)

            # i moves alpha*[i] when that is positive, else alpha[i]; j moves
            # alpha[j] when that is positive, else alpha*[j].
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
            np.multiply(K_rows[i], si * (ni - old_i), out=step)
            f -= step
            np.multiply(K_rows[j], sj * (nj - old_j), out=step)
            f -= step
            a_t, s_t = alpha[i], alpha_s[i]
            up[i] = eps if s_t > 0 else (-eps if a_t < C else -math.inf)
            low[i] = -eps if a_t > 0 else (eps if s_t < C else math.inf)
            a_t, s_t = alpha[j], alpha_s[j]
            up[j] = eps if s_t > 0 else (-eps if a_t < C else -math.inf)
            low[j] = -eps if a_t > 0 else (eps if s_t < C else math.inf)

        self.n_iter_ = it
        self.kkt_gap_ = gap
        alpha_v = np.array(alpha)
        alpha_s_v = np.array(alpha_s)
        # Bias from free duals when available, else the KKT interval midpoint.
        # The up and low sets are never empty: sum(alpha) = sum(alpha*) rules
        # out every alpha at C with every alpha* at 0, and the reverse.
        free = (alpha_v > 0) & (alpha_v < C)
        free_s = (alpha_s_v > 0) & (alpha_s_v < C)
        if np.any(free) or np.any(free_s):
            b = float(np.mean(np.concatenate([f[free] - eps, f[free_s] + eps])))
        else:
            b = float((np.max(f + up) + np.min(f + low)) / 2.0)
        self.dual_coef_, self.intercept_ = alpha_v - alpha_s_v, b
        del K, H, K_rows, H_rows  # free the 2 n^2 kernel floats before the support rows are copied
        support = np.nonzero(self.dual_coef_)[0]
        S = X[support]
        self._support = (S, np.sum(S * S, axis=1), self.dual_coef_[support])
        return self

    def predict(self, X) -> np.ndarray:
        if self._support is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float64)
        S, S_sq, beta = self._support
        if len(S) == 0:
            return np.full(X.shape[0], self.intercept_)
        return _rbf_kernel(X, S, self.gamma_, S_sq) @ beta + self.intercept_


class StackedModel:
    """Ridge-over-(ridge, SVR) stack with out-of-fold meta training.

    Base models are fitted per fold to produce out-of-fold predictions, the
    ridge meta-model is fitted on those, and the bases are refitted on the
    full data for inference. Fold assignment is a seeded shuffle followed by
    round-robin so every fold is non-empty whenever ``n >= n_folds``.
    """

    def __init__(self, n_folds: int = DEFAULT_STACK_FOLDS, seed: int = 0):
        if n_folds < 2:
            raise ValueError(f"need at least 2 folds, got {n_folds}")
        self.n_folds = int(n_folds)
        self.seed = int(seed)
        self.base_ridge_: RidgeModel | None = None
        self.base_svr_: SvrRbfModel | None = None
        self.meta_: RidgeModel | None = None
        self.fold_assignments_: np.ndarray | None = None
        self.oof_predictions_: np.ndarray | None = None

    def fit(self, X, y) -> "StackedModel":
        X, y = _check_xy(X, y)
        n = X.shape[0]
        if n < self.n_folds:
            raise ValueError(f"{n} samples cannot fill {self.n_folds} folds")
        rng = np.random.default_rng(np.random.SeedSequence([_FOLD_TAG, self.seed]))
        folds = np.empty(n, dtype=np.int64)
        folds[rng.permutation(n)] = np.arange(n) % self.n_folds
        oof = np.empty((n, 2))
        for f in range(self.n_folds):
            test = folds == f
            train = ~test
            ridge = RidgeModel().fit(X[train], y[train])
            svr = SvrRbfModel().fit(X[train], y[train])
            oof[test, 0] = ridge.predict(X[test])
            oof[test, 1] = svr.predict(X[test])
        self.meta_ = RidgeModel(alpha=DEFAULT_META_ALPHA).fit(oof, y)
        self.base_ridge_ = RidgeModel().fit(X, y)
        self.base_svr_ = SvrRbfModel().fit(X, y)
        self.fold_assignments_ = folds
        self.oof_predictions_ = oof
        return self

    def predict(self, X) -> np.ndarray:
        if self.meta_ is None:
            raise RuntimeError("predict before fit")
        X = np.asarray(X, dtype=np.float64)
        stacked = np.empty((len(X), 2))
        stacked[:, 0] = self.base_ridge_.predict(X)
        stacked[:, 1] = self.base_svr_.predict(X)
        return self.meta_.predict(stacked)


PREDICTOR_KINDS = ("ridge", "svr_rbf", "stacked")


def make_predictor(kind: str, seed: int = 0):
    """Factory over :data:`PREDICTOR_KINDS`, default parameters; ``seed`` only affects folds."""
    if kind == "ridge":
        return RidgeModel()
    if kind == "svr_rbf":
        return SvrRbfModel()
    if kind == "stacked":
        return StackedModel(seed=seed)
    raise ValueError(f"unknown predictor kind {kind!r}; known: {PREDICTOR_KINDS}")


def mape(predicted, actual) -> float:
    """Mean absolute percentage error, in percent.

    Raises:
        ValueError: on a non-finite entry.
        UndefinedMetricError: if any actual value is 0.
    """
    p = np.asarray(predicted, dtype=np.float64)
    a = np.asarray(actual, dtype=np.float64)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("predicted and actual must be equal-length non-empty vectors")
    if not (np.isfinite(p).all() and np.isfinite(a).all()):
        raise ValueError("predicted and actual must be finite")
    if np.any(a == 0):
        raise UndefinedMetricError("MAPE undefined: actual contains 0")
    return float(100.0 * np.mean(np.abs(p - a) / np.abs(a)))


def _pair_counts(x: np.ndarray, y: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """Concordant, discordant, x-only-tied and y-only-tied counts over the
    pairs (i, j), i in ``rows`` and j in ``cols``."""
    gx, lx = x[rows, None] > x[cols], x[rows, None] < x[cols]
    gy, ly = y[rows, None] > y[cols], y[rows, None] < y[cols]
    ux, uy = gx | lx, gy | ly  # untied in x, in y
    return np.array([
        np.count_nonzero(gx & gy) + np.count_nonzero(lx & ly),
        np.count_nonzero(gx & ly) + np.count_nonzero(lx & gy),
        np.count_nonzero(uy & ~ux),
        np.count_nonzero(ux & ~uy),
    ])


def kendall_tau(x, y) -> float:
    """Kendall rank correlation, tie-adjusted (the tau-b variant).

    Counts concordant, discordant, and tied pairs over all n(n-1)/2 pairs:
    ``(C - D) / sqrt((C + D + Tx) (C + D + Ty))`` with Tx the pairs tied in
    x only and Ty the pairs tied in y only. Rows are compared in blocks of
    about ``_TAU_BLOCK_PAIRS`` pairs, so memory stays bounded whatever n: a
    block of rows a..b meets every later row once and itself as a square,
    whose symmetric counts are halved.

    Raises:
        ValueError: on a non-finite entry, which would compare as tied with every value.
        UndefinedMetricError: if either vector is fully tied.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length vectors with at least 2 entries")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    n = x.size
    step = max(1, _TAU_BLOCK_PAIRS // n)
    counts = np.zeros(4, dtype=np.int64)
    for a in range(0, n, step):
        b = min(a + step, n)
        counts += _pair_counts(x, y, slice(a, b), slice(b, n))
        counts += _pair_counts(x, y, slice(a, b), slice(a, b)) // 2
    conc, disc, tx, ty = counts.tolist()
    denom = math.sqrt((conc + disc + tx) * (conc + disc + ty))
    if denom == 0:
        raise UndefinedMetricError("Kendall tau undefined: a vector is fully tied")
    return (conc - disc) / denom


def _standard_error(values) -> float:
    """Standard error of the mean, ``std(ddof=1) / sqrt(n)``; 0.0 below two values."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return 0.0
    return float(arr.std(ddof=1) / math.sqrt(arr.size))


@dataclass(frozen=True, eq=False)
class PredictorReport:
    """Aggregated MAPE and Kendall tau per (kind, train size).

    ``mape_trials`` and ``tau_trials`` map kind -> array of shape
    ``(len(train_sizes), trials)``.
    """

    kinds: tuple[str, ...]
    train_sizes: tuple[int, ...]
    trials: int
    test_size: int
    mape_trials: dict[str, np.ndarray]
    tau_trials: dict[str, np.ndarray]

    def rows(self) -> list[dict]:
        """Flat rows for CSV export, one per (train size, kind)."""
        out = []
        for si, size in enumerate(self.train_sizes):
            for kind in self.kinds:
                m = self.mape_trials[kind][si]
                t = self.tau_trials[kind][si]
                out.append(
                    {
                        "train_size": size,
                        "kind": kind,
                        "mape_mean": float(m.mean()),
                        "mape_stderr": _standard_error(m),
                        "tau_mean": float(t.mean()),
                        "tau_stderr": _standard_error(t),
                    }
                )
        return out


def check_protocol(
    train_sizes: Sequence[int], trials: int, test_size: int, kinds: Sequence[str]
) -> None:
    """Check the settings of :func:`analyze_predictors` before any fit.

    Raises:
        ValueError: ``"<argument>: <reason>"`` for the first setting that fails.
    """
    if not kinds:
        raise ValueError("kinds: need at least one predictor kind")
    for kind in kinds:
        if kind not in PREDICTOR_KINDS:
            raise ValueError(f"kinds: unknown predictor kind {kind!r}; known: {PREDICTOR_KINDS}")
    if not train_sizes or not all(
        isinstance(s, (int, np.integer)) and not isinstance(s, bool) and s > 0
        for s in train_sizes
    ):
        raise ValueError("train_sizes: expected a non-empty list of positive integers")
    if min(train_sizes) < 2:
        raise ValueError(
            "train_sizes: a fit on 1 row predicts a constant, so Kendall tau is undefined"
        )
    if "stacked" in kinds and min(train_sizes) < DEFAULT_STACK_FOLDS:
        raise ValueError(
            f"train_sizes: stacked needs at least {DEFAULT_STACK_FOLDS} training rows, "
            "one per fold"
        )
    for name, value in (("trials", trials), ("test_size", test_size)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise ValueError(f"{name}: expected an integer, got {value!r}")
    if trials < 1:
        raise ValueError("trials: must be positive")
    if test_size < 2:
        raise ValueError("test_size: must be at least 2 (Kendall tau compares pairs)")


def analyze_predictors(
    features,
    targets,
    train_sizes: Sequence[int] = DEFAULT_TRAIN_SIZES,
    trials: int = DEFAULT_TRIALS,
    test_size: int = DEFAULT_TEST_SIZE,
    kinds: Sequence[str] = PREDICTOR_KINDS,
    seed: int = DEFAULT_ANALYSIS_SEED,
) -> PredictorReport:
    """Measure predictor quality as a function of training set size.

    Each trial shuffles the dataset with its own derived seed, holds out one
    test set of ``test_size`` examples, and reuses that same test set for
    every train size within the trial; train sets are nested prefixes of the
    remaining pool. Reported MAPE and tau are per-trial values on the held
    out set. Every kind uses its default parameters, so when ``stacked`` is
    among the kinds, the ``ridge`` and ``svr_rbf`` cells reuse its full-data
    base models, which gives the same numbers as a fresh fit.

    Args:
        features: Dataset feature matrix ``(N, d)``.
        targets: Dataset target vector ``(N,)``.

    Raises:
        ValueError: on settings :func:`check_protocol` rejects, or if the
            dataset is smaller than ``max(train_sizes) + test_size``.
    """
    sizes, kinds = tuple(train_sizes), tuple(kinds)
    check_protocol(sizes, trials, test_size, kinds)
    X, z = _check_xy(features, targets)
    sizes = tuple(int(s) for s in sizes)
    needed = max(sizes) + test_size
    if X.shape[0] < needed:
        raise ValueError(
            f"dataset has {X.shape[0]} examples but needs {needed} "
            f"(max train size {max(sizes)} + test size {test_size})"
        )

    # Stacking refits its default ridge and SVR bases on the full train set;
    # a standalone ridge or svr_rbf cell reuses that fit instead of fitting
    # the same model twice.
    reused = {"ridge": "base_ridge_", "svr_rbf": "base_svr_"} if "stacked" in kinds else {}
    fit_order = sorted(kinds, key=lambda kind: kind != "stacked")

    mape_trials = {k: np.empty((len(sizes), trials)) for k in kinds}
    tau_trials = {k: np.empty((len(sizes), trials)) for k in kinds}
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence([_TRIAL_TAG, seed, t]))
        perm = rng.permutation(X.shape[0])
        test_idx = perm[:test_size]
        pool = perm[test_size:]
        X_test, z_test = X[test_idx], z[test_idx]
        for si, size in enumerate(sizes):
            train = pool[:size]
            fitted = {}
            for kind in fit_order:
                if kind in reused:
                    model = getattr(fitted["stacked"], reused[kind])
                else:
                    model = make_predictor(kind, seed=seed * 100_003 + t)
                    model.fit(X[train], z[train])
                fitted[kind] = model
                pred = model.predict(X_test)
                mape_trials[kind][si, t] = mape(pred, z_test)
                tau_trials[kind][si, t] = kendall_tau(pred, z_test)
    return PredictorReport(
        kinds=kinds,
        train_sizes=sizes,
        trials=trials,
        test_size=test_size,
        mape_trials=mape_trials,
        tau_trials=tau_trials,
    )
