"""Pareto-front analytics: front extraction, exact 2-D hypervolume, traces.

Hypervolume is computed in minimization convention; use
:func:`store_objective_matrix` to orient a store's raw values first.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .objective import DegenerateScaleError, EvaluationStore, ObjectiveSpec, oriented_values


def store_objective_matrix(store: EvaluationStore) -> np.ndarray:
    """The store's values oriented so every column is minimized."""
    return oriented_values(store.values_matrix(), store.objectives)


def _ranks_2d(F: np.ndarray) -> np.ndarray:
    """Front rank of every row of an (N, 2) minimization matrix, O(N log N).

    In (f1, f2) order, front r's latest member dominates a row iff its
    (f2, f1) key is smaller; the keys ascend with r, so bisection finds the
    row's front (Jensen, TEC 2003). A NaN row is rank 0 and dominates nothing.
    """
    ranks = np.zeros(len(F), dtype=np.int64)
    rows = np.nonzero(~np.isnan(F).any(axis=1))[0]
    rows = rows[np.lexsort((F[rows, 1], F[rows, 0]))]
    lasts: list[tuple[float, float]] = []
    for i, key in zip(rows.tolist(), zip(F[rows, 1].tolist(), F[rows, 0].tolist())):
        r = bisect.bisect_left(lasts, key)
        lasts[r : r + 1] = [key]
        ranks[i] = r
    return ranks


def _ranks(F: np.ndarray) -> np.ndarray:
    """Front rank of every row (0 is non-dominated); with m != 2, fronts are
    peeled off ``dom[i, j]``, row i strictly dominates row j (O(N^2) memory)."""
    if F.shape[1] == 2:
        return _ranks_2d(F)
    le = np.all(F[:, None, :] <= F[None, :, :], axis=2)
    dom = le & np.any(F[:, None, :] < F[None, :, :], axis=2)
    counts = dom.sum(axis=0).astype(np.int64)
    ranks = np.full(len(F), -1, dtype=np.int64)
    r = 0
    while (ranks < 0).any():
        members = np.flatnonzero((ranks < 0) & (counts == 0))
        ranks[members] = r
        counts -= dom[members].sum(axis=0)
        r += 1
    return ranks


def nondominated_mask(points: np.ndarray) -> np.ndarray:
    """Boolean mask of rows not strictly dominated by any other row.

    Duplicates of a non-dominated point are all kept.
    """
    F = np.asarray(points, dtype=np.float64)
    if F.ndim != 2:
        raise ValueError("need an (N, m) matrix")
    if F.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return _ranks(F) == 0


def pareto_front(values: np.ndarray, objectives: Sequence[ObjectiveSpec]) -> np.ndarray:
    """Indices of the non-dominated rows of a raw natural-direction matrix."""
    return np.nonzero(nondominated_mask(oriented_values(values, objectives)))[0]


def default_reference(points: np.ndarray) -> np.ndarray:
    """Componentwise worst value plus one percent of the observed range.

    With a zero-range column the reference sits on the points themselves and
    that column contributes no volume.
    """
    F = np.asarray(points, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] == 0:
        raise ValueError("need a non-empty (N, m) matrix")
    worst = F.max(axis=0)
    return worst + 0.01 * (worst - F.min(axis=0))


def _checked(points, reference) -> tuple[np.ndarray, np.ndarray]:
    F = np.asarray(points, dtype=np.float64)
    ref = np.asarray(reference, dtype=np.float64)
    if F.ndim != 2 or F.shape[1] != 2 or ref.shape != (2,):
        raise ValueError("hypervolume_2d handles exactly two objectives")
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(ref))):
        raise ValueError("points and reference must be finite")
    return F, ref


def _staircase(F: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """The distinct non-dominated rows of ``F`` strictly inside the reference box.

    After one sort on (x, y), a row is kept iff its y lies below the y of
    every row before it, so x ascends and y strictly descends.
    """
    F = F[np.all(F < ref, axis=1)]
    F = F[np.lexsort((F[:, 1], F[:, 0]))]
    return F[F[:, 1] < np.minimum.accumulate(np.concatenate([[np.inf], F[:, 1]]))[:-1]]


def _staircase_area(S: np.ndarray, ref: np.ndarray) -> float:
    """Area between a staircase and the reference: step i adds ``(ref_x - x) * (y_prev - y)``."""
    y_prev = np.concatenate([[ref[1]], S[:-1, 1]])
    return float(np.sum((ref[0] - S[:, 0]) * (y_prev - S[:, 1])))


def hypervolume_2d(points: np.ndarray, reference) -> float:
    """Exact area dominated by ``points`` inside the reference box.

    Points are minimization vectors; any point with a coordinate at or
    beyond the reference is clipped away before the staircase is built.
    """
    F, ref = _checked(points, reference)
    return _staircase_area(_staircase(F, ref), ref)


@dataclass(frozen=True)
class HypervolumeTrace:
    """Hypervolume of measurement prefixes against one fixed reference."""

    counts: tuple[int, ...]
    hypervolumes: tuple[float, ...]
    reference: tuple[float, ...]


def hv_trace(store: EvaluationStore, reference=None, stride: int = 10) -> HypervolumeTrace:
    """Hypervolume after every ``stride`` measurements, plus the final count.

    The reference defaults to :func:`default_reference` over the whole
    store, so the trace is non-decreasing. The staircase carries from prefix
    to prefix, so each row is sorted in only while it is on the front.
    """
    if stride < 1:
        raise ValueError("stride must be positive")
    if len(store) == 0:
        raise ValueError("store is empty")
    F = store_objective_matrix(store)
    F, ref = _checked(F, default_reference(F) if reference is None else reference)
    counts = list(range(stride, len(F), stride)) + [len(F)]
    hvs, S = [], F[:0]
    for start, k in zip([0] + counts, counts):
        S = _staircase(np.concatenate([S, F[start:k]]), ref)
        hvs.append(_staircase_area(S, ref))
    return HypervolumeTrace(tuple(counts), tuple(hvs), tuple(float(r) for r in ref))


def union_bounds(point_sets: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise min and max over the concatenation of all sets.

    Raises:
        DegenerateScaleError: if some objective never varies across the union.
    """
    stacked = np.concatenate([np.asarray(s, dtype=np.float64) for s in point_sets])
    if stacked.ndim != 2 or stacked.shape[0] == 0:
        raise ValueError("need at least one non-empty point set")
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    flat = np.nonzero(hi == lo)[0]
    if flat.size:
        raise DegenerateScaleError(
            f"objective column(s) {flat.tolist()} have zero range across the union"
        )
    return lo, hi


def normalized_hypervolume(
    points: np.ndarray, bounds: tuple[np.ndarray, np.ndarray]
) -> float:
    """Hypervolume after min-max scaling to the unit box, reference (1, 1).

    ``bounds`` usually comes from :func:`union_bounds` over every search arm
    under comparison, which puts all arms on one scale.
    """
    lo, hi = bounds
    scaled = (np.asarray(points, dtype=np.float64) - lo) / (hi - lo)
    return hypervolume_2d(scaled, np.ones(2))
