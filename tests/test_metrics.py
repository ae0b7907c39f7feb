"""Hypervolume and front-extraction tests against independent oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import hard_objective_matrices
from linas_moo.metrics import (
    HypervolumeTrace,
    default_reference,
    hv_trace,
    hypervolume_2d,
    nondominated_mask,
    normalized_hypervolume,
    pareto_front,
    store_objective_matrix,
    union_bounds,
)
from linas_moo.objective import (
    MAXIMIZE,
    MINIMIZE,
    DegenerateScaleError,
    EvaluationStore,
    ObjectiveSpec,
    SyntheticLandscape,
)
from linas_moo.moea import draw_unseen
from linas_moo.space import builtin_space


def hv_strip_oracle(points, ref):
    """Union-of-rectangles area via vertical strips between x breakpoints."""
    pts = [(x, y) for x, y in points if x < ref[0] and y < ref[1]]
    if not pts:
        return 0.0
    xs = sorted({x for x, _ in pts})
    total = 0.0
    for k, x_lo in enumerate(xs):
        x_hi = xs[k + 1] if k + 1 < len(xs) else ref[0]
        best_y = min(y for x, y in pts if x <= x_lo)
        total += (x_hi - x_lo) * max(ref[1] - best_y, 0.0)
    return total


def hv_monte_carlo_oracle(points, ref, n, seed):
    """Fraction of a uniform box sample dominated by any point."""
    pts = np.asarray(points, dtype=np.float64)
    lo = pts.min(axis=0)
    area = (ref[0] - lo[0]) * (ref[1] - lo[1])
    rng = np.random.default_rng(seed)
    sample = lo + rng.random((n, 2)) * (np.asarray(ref) - lo)
    covered = np.zeros(n, dtype=bool)
    for p in pts:
        covered |= (sample[:, 0] >= p[0]) & (sample[:, 1] >= p[1])
    frac = covered.mean()
    se = math.sqrt(frac * (1 - frac) / n)
    return frac * area, 3 * se * area


ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


class TestHypervolume2d:
    def test_single_point_hand_value(self):
        assert hypervolume_2d(np.array([[1.0, 1.0]]), (2.0, 2.0)) == pytest.approx(1.0)

    def test_three_point_staircase_hand_value(self):
        pts = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        # Strips: (4-1)*(4-3) + (4-2)*(3-2) + (4-3)*(2-1) = 3 + 2 + 1.
        assert hypervolume_2d(pts, (4.0, 4.0)) == pytest.approx(6.0)

    def test_dominated_point_adds_nothing(self):
        base = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        extra = np.vstack([base, [3.0, 3.0]])
        assert hypervolume_2d(extra, (4.0, 4.0)) == hypervolume_2d(base, (4.0, 4.0))

    def test_duplicates_count_once(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert hypervolume_2d(pts, (2.0, 2.0)) == pytest.approx(1.0)

    def test_points_at_or_beyond_reference_contribute_zero(self):
        assert hypervolume_2d(np.array([[2.0, 0.0]]), (2.0, 2.0)) == 0.0
        assert hypervolume_2d(np.array([[3.0, 0.0]]), (2.0, 2.0)) == 0.0
        assert hypervolume_2d(np.array([[2.0, 2.0]]), (2.0, 2.0)) == 0.0

    def test_empty_input_is_zero(self):
        assert hypervolume_2d(np.empty((0, 2)), (1.0, 1.0)) == 0.0

    def test_rejects_bad_shapes_and_nonfinite(self):
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((3, 3)), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            hypervolume_2d(np.array([[np.inf, 0.0]]), (1.0, 1.0))
        with pytest.raises(ValueError):
            hypervolume_2d(np.zeros((1, 2)), (np.nan, 1.0))

    def test_matches_strip_oracle_on_random_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            pts = rng.random((n, 2)) * 10
            if rng.random() < 0.5:
                pts = np.round(pts)  # force ties and duplicates
            ref = pts.max(axis=0) + rng.random(2)
            got = hypervolume_2d(pts, ref)
            want = hv_strip_oracle(pts.tolist(), ref)
            assert got == pytest.approx(want, abs=1e-9)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(42)
        pts = rng.random((25, 2)) * 8
        ref = (9.0, 9.0)
        estimate, tolerance = hv_monte_carlo_oracle(pts, ref, 1_000_000, seed=7)
        assert abs(hypervolume_2d(pts, ref) - estimate) < tolerance

    def test_adding_points_never_decreases_volume(self):
        # Dominated points add nothing (tested above), so pruning to the
        # front between steps keeps every comparison intact while the set
        # stays small.
        rng = np.random.default_rng(55)
        ref = (10.0, 10.0)
        pts = rng.random((1, 2)) * 9
        hv = hypervolume_2d(pts, ref)
        for _ in range(1000):
            pts = np.vstack([pts, rng.random(2) * 9])
            nxt = hypervolume_2d(pts, ref)
            assert nxt >= hv - 1e-12
            hv = nxt
            pts = pts[nondominated_mask(pts)]


class TestParetoFront:
    def test_orientation_respects_directions(self):
        values = np.array([[90.0, 10.0], [80.0, 5.0], [70.0, 20.0], [85.0, 10.0]])
        idx = pareto_front(values, ACC_LAT)
        # (70, 20) is dominated by (90, 10); (85, 10) too; the rest trade off.
        assert idx.tolist() == [0, 1]

    @staticmethod
    def loop_oracle(F):
        rows = F.tolist()
        return [
            not any(
                all(a <= b for a, b in zip(rows[j], row))
                and any(a < b for a, b in zip(rows[j], row))
                for j in range(len(rows))
                if j != i
            )
            for i, row in enumerate(rows)
        ]

    def test_matches_loop_oracle(self):
        for F in hard_objective_matrices(seed=13, count=60, ms=(1, 2, 2, 3)):
            assert nondominated_mask(F).tolist() == self.loop_oracle(F)

    def test_nan_rows_are_kept_and_dominate_nothing(self):
        nan = math.nan
        F = np.array([[1.0, 1.0], [nan, 0.0], [2.0, 2.0], [nan, nan], [3.0, nan]])
        assert nondominated_mask(F).tolist() == [True, True, False, True, True]
        rng = np.random.default_rng(17)
        for F in hard_objective_matrices(seed=17, count=30, max_n=100):
            F[rng.random(len(F)) < 0.2, int(rng.integers(0, 2))] = nan
            assert nondominated_mask(F).tolist() == self.loop_oracle(F)

    def test_lone_infinite_row_is_kept(self):
        assert nondominated_mask(np.array([[math.inf, math.inf]])).tolist() == [True]
        F = np.array([[math.inf, math.inf], [math.inf, math.inf], [-math.inf, math.inf]])
        assert nondominated_mask(F).tolist() == [False, False, True]

    def test_empty_matrix(self):
        assert nondominated_mask(np.empty((0, 2))).size == 0


class TestDefaultReference:
    def test_hand_value(self):
        pts = np.array([[6.0, 1.0], [10.0, 3.0]])
        ref = default_reference(pts)
        assert ref[0] == pytest.approx(10.0 + 0.01 * 4.0)
        assert ref[1] == pytest.approx(3.0 + 0.01 * 2.0)

    def test_zero_range_column_reference_sits_on_points(self):
        pts = np.array([[1.0, 5.0], [2.0, 5.0]])
        ref = default_reference(pts)
        assert ref[1] == 5.0
        assert hypervolume_2d(pts, ref) == 0.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            default_reference(np.empty((0, 2)))


class TestHvTrace:
    def make_store(self, n=47, seed=0):
        space = builtin_space("mobilenetv3")
        land = SyntheticLandscape.from_seed(space, seed=seed)
        store = EvaluationStore(space, ACC_LAT)
        G = np.array(draw_unseen(space, np.random.default_rng(seed), n, ())[0])
        store.insert_batch(G, land.evaluate_batch(G), source="random")
        return store

    def test_counts_are_stride_multiples_plus_final(self):
        trace = hv_trace(self.make_store(47), stride=10)
        assert trace.counts == (10, 20, 30, 40, 47)

    def test_exact_multiple_has_no_duplicate_final(self):
        trace = hv_trace(self.make_store(30), stride=10)
        assert trace.counts == (10, 20, 30)

    def test_stride_larger_than_store(self):
        trace = hv_trace(self.make_store(5), stride=10)
        assert trace.counts == (5,)

    def test_monotone_and_final_matches_full_store(self):
        store = self.make_store(47)
        trace = hv_trace(store, stride=10)
        hvs = np.array(trace.hypervolumes)
        assert np.all(np.diff(hvs) >= -1e-12)
        F = store_objective_matrix(store)
        assert trace.hypervolumes[-1] == pytest.approx(
            hypervolume_2d(F, np.array(trace.reference))
        )

    def make_repeating_store(self, n=90, seed=4):
        """Distinct genotypes whose objective rows repeat often."""
        space = builtin_space("mobilenetv3")
        store = EvaluationStore(space, ACC_LAT)
        rng = np.random.default_rng(seed)
        while len(store) < n:
            g = space.sample_batch(rng, 1)[0]
            values = [[70.0 + rng.integers(0, 4), 5.0 + rng.integers(0, 4)]]
            store.insert_batch([g], np.array(values), source="random")
        return store

    @pytest.mark.parametrize("stride", [1, 3, 10])
    @pytest.mark.parametrize("repeating", [False, True])
    def test_every_value_equals_the_prefix_hypervolume(self, stride, repeating):
        store = self.make_repeating_store() if repeating else self.make_store(120)
        F = store_objective_matrix(store)
        ref = np.median(F, axis=0) + 0.5
        clipped = ~np.all(F < ref, axis=1)
        assert 0 < clipped.sum() < len(F)
        for reference in (None, ref):
            trace = hv_trace(store, reference=reference, stride=stride)
            for k, hv in zip(trace.counts, trace.hypervolumes):
                assert hv == hypervolume_2d(F[:k], np.array(trace.reference))

    def test_explicit_reference_is_respected(self):
        store = self.make_store(20)
        ref = (0.0, 100.0)
        trace = hv_trace(store, reference=ref, stride=10)
        assert trace.reference == ref
        # Accuracy is oriented negative, so all points lie left of x=0.
        assert all(hv > 0 for hv in trace.hypervolumes)

    def test_rejects_empty_store_and_bad_stride(self):
        space = builtin_space("ncf")
        with pytest.raises(ValueError):
            hv_trace(EvaluationStore(space, ACC_LAT))
        with pytest.raises(ValueError):
            hv_trace(self.make_store(5), stride=0)

    def test_trace_is_frozen(self):
        trace = hv_trace(self.make_store(15), stride=10)
        assert isinstance(trace, HypervolumeTrace)
        with pytest.raises(AttributeError):
            trace.counts = ()


class TestBoundedMemory:
    """Fronts and traces of 10^5-row inputs stay far below N x N memory."""

    LIMIT = 64 * 2**20

    @staticmethod
    def peak_bytes(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_nondominated_mask_on_1e5_rows(self):
        F = np.random.default_rng(0).random((100_000, 2))
        assert self.peak_bytes(nondominated_mask, F) < self.LIMIT

    def test_hv_trace_on_1e5_row_store(self):
        space = builtin_space("mobilenetv3")
        rng = np.random.default_rng(0)
        raw = rng.integers(0, space.option_counts, size=(110_000, space.n_variables))
        G = space.canonicalize_batch(raw)
        _, first = np.unique(G, axis=0, return_index=True)
        G = G[np.sort(first)[:100_000]]
        land = SyntheticLandscape.from_seed(space, seed=0)
        store = EvaluationStore(space, ACC_LAT)
        store.insert_batch(G, land.evaluate_batch(G), source="random")
        assert len(store) == 100_000
        assert self.peak_bytes(hv_trace, store) < self.LIMIT


class TestNormalizedHypervolume:
    def test_point_at_union_minimum_scores_one(self):
        a = np.array([[0.0, 0.0]])
        b = np.array([[0.5, 1.0], [1.0, 0.5]])
        bounds = union_bounds([a, b])
        assert normalized_hypervolume(a, bounds) == pytest.approx(1.0)

    def test_shared_scale_ranks_arms(self):
        # Arm a strictly dominates arm b pointwise, so its normalized
        # hypervolume must be larger under the shared bounds.
        a = np.array([[1.0, 4.0], [2.0, 2.0]])
        b = np.array([[3.0, 6.0], [4.0, 5.0]])
        bounds = union_bounds([a, b])
        assert normalized_hypervolume(a, bounds) > normalized_hypervolume(b, bounds)

    def test_scaling_is_affine_invariant(self):
        rng = np.random.default_rng(3)
        a = rng.random((12, 2))
        b = rng.random((12, 2))
        bounds = union_bounds([a, b])
        shifted = [a * 7.0 + 100.0, b * 7.0 + 100.0]
        bounds2 = union_bounds(shifted)
        assert normalized_hypervolume(a, bounds) == pytest.approx(
            normalized_hypervolume(shifted[0], bounds2)
        )

    def test_degenerate_union_raises(self):
        a = np.array([[1.0, 5.0]])
        b = np.array([[2.0, 5.0]])
        with pytest.raises(DegenerateScaleError):
            union_bounds([a, b])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(9)
        sets = [rng.random((20, 2)) * 50 for _ in range(3)]
        bounds = union_bounds(sets)
        for s in sets:
            hv = normalized_hypervolume(s, bounds)
            assert 0.0 <= hv <= 1.0
