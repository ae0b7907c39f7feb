"""Evolutionary engine tests against explicit-loop oracles."""

import math
import warnings

import numpy as np
import pytest

from conftest import (
    enumerate_canonicals, hard_objective_matrices, make_free_space, make_masked_space,
)
from linas_moo import moea
from linas_moo.moea import (
    EaConfig,
    SpaceExhaustedError,
    crossover_two_point,
    draw_unseen,
    environmental_selection,
    mutate,
    rank_and_crowd,
    run_nsga2,
    run_random,
    sample_fresh_into_store,
    search_rng,
    tournament_winners,
)
from linas_moo.metrics import _ranks, pareto_front
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
from linas_moo.space import SearchSpace, builtin_space, uniform_bound


def dominates_oracle(a, b):
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def fronts_oracle(F):
    """Peel fronts with plain python loops; returns a list of index sets."""
    n = len(F)
    dominators = [
        {j for j in range(n) if j != i and dominates_oracle(F[j], F[i])}
        for i in range(n)
    ]
    unassigned = set(range(n))
    fronts = []
    while unassigned:
        front = {i for i in unassigned if not (dominators[i] & unassigned)}
        fronts.append(front)
        unassigned -= front
    return fronts


def fronts_of(F):
    """Fronts of ``rank_and_crowd``'s ranks, best first, members in index order."""
    ranks = rank_and_crowd(F)[0]
    return [np.flatnonzero(ranks == r) for r in range(int(ranks.max()) + 1)]


def front_genotypes(out, objectives):
    """Genotypes of the non-dominated rows of a search's population."""
    G, V = out.population
    return {tuple(g) for g in G[pareto_front(V, objectives)].tolist()}


ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


class FunctionEvaluator:
    """Adapts a plain per-genotype function to the batch evaluator protocol."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate_batch(self, genotypes):
        return np.array([self.fn(g) for g in genotypes], dtype=np.float64)


class TestFastNondominatedSort:
    def test_hand_case(self):
        F = np.array(
            [
                [1.0, 5.0],  # front 0
                [2.0, 3.0],  # front 0
                [4.0, 2.0],  # front 0
                [2.0, 6.0],  # dominated by (1, 5)
                [5.0, 5.0],  # dominated by (2, 3) and (4, 2)
                [5.0, 6.0],  # dominated by everything above
            ]
        )
        fronts = fronts_of(F)
        assert [set(f.tolist()) for f in fronts] == [{0, 1, 2}, {3, 4}, {5}]

    def test_identical_rows_share_front_zero(self):
        F = np.ones((5, 2))
        fronts = fronts_of(F)
        assert len(fronts) == 1
        assert set(fronts[0].tolist()) == {0, 1, 2, 3, 4}

    def test_matches_oracle_on_random_instances(self):
        # Fronts list their members in ascending index order:
        # environmental selection cuts crowding ties by that order.
        for F in hard_objective_matrices(seed=23, count=100, ms=(1, 2, 2, 3)):
            got = [f.tolist() for f in fronts_of(F)]
            assert got == [sorted(f) for f in fronts_oracle(F.tolist())]

    def test_nan_rows_stay_in_front_zero_and_dominate_nothing(self):
        nan = math.nan
        F = np.array([[1.0, 1.0], [nan, 0.0], [2.0, 2.0], [nan, nan], [0.0, 3.0], [3.0, nan]])
        assert [f.tolist() for f in fronts_of(F)] == [[0, 1, 3, 4, 5], [2]]
        rng = np.random.default_rng(29)
        for F in hard_objective_matrices(seed=29, count=30, max_n=100):
            F[rng.random(len(F)) < 0.2, int(rng.integers(0, 2))] = nan
            got = [f.tolist() for f in fronts_of(F)]
            assert got == [sorted(f) for f in fronts_oracle(F.tolist())]

    def test_fronts_partition_indices(self):
        rng = np.random.default_rng(3)
        F = rng.random((30, 2))
        fronts = fronts_of(F)
        flat = np.concatenate(fronts)
        assert sorted(flat.tolist()) == list(range(30))

    def test_ranks_match_front_position(self):
        rng = np.random.default_rng(5)
        F = rng.integers(0, 4, size=(25, 2)).astype(float)
        ranks = rank_and_crowd(F)[0]
        for r, members in enumerate(fronts_oracle(F)):
            for i in members:
                assert ranks[i] == r

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            rank_and_crowd(np.empty((0, 2)))


class TestCrowdingDistance:
    """Hand cases on inputs that form a single front."""

    def crowding(self, F):
        ranks, crowd = rank_and_crowd(np.array(F))
        assert not ranks.any()
        return crowd

    def test_hand_value(self):
        d = self.crowding([[1.0, 5.0], [2.0, 3.0], [4.0, 2.0]])
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == pytest.approx((4 - 1) / 3 + (5 - 2) / 3)

    def test_pair_is_all_boundary(self):
        d = self.crowding([[0.0, 1.0], [1.0, 0.0]])
        assert list(d) == [math.inf, math.inf]

    def test_zero_range_objective_contributes_nothing(self):
        d = self.crowding([[1.0, 3.0, 7.0], [2.0, 2.0, 7.0], [3.0, 1.0, 7.0]])
        assert d[0] == math.inf and d[2] == math.inf
        assert d[1] == pytest.approx((3 - 1) / (3 - 1) + (3 - 1) / (3 - 1))

    def test_fully_degenerate_front_is_zero(self):
        d = self.crowding(np.ones((4, 2)))
        assert list(d) == [0.0, 0.0, 0.0, 0.0]

    def test_equally_spaced_interior(self):
        d = self.crowding([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        assert d[0] == math.inf and d[3] == math.inf
        assert d[1] == pytest.approx(4.0 / 3.0)
        assert d[2] == pytest.approx(4.0 / 3.0)

    def test_rank_and_crowd_consistency(self):
        # A front's crowding within the pool equals its crowding on its own.
        rng = np.random.default_rng(17)
        F = rng.integers(0, 5, size=(30, 2)).astype(float)
        ranks, crowd = rank_and_crowd(F)
        for members in fronts_oracle(F):
            idx = sorted(members)
            assert np.array_equal(crowd[idx], self.crowding(F[idx]))
            assert len({int(ranks[i]) for i in idx}) == 1


class TestTournament:
    def test_lower_rank_always_wins_in_pair_population(self):
        rng = search_rng(0)
        winners = tournament_winners(
            rng, np.array([0, 1]), np.array([0.0, 0.0]), 500
        )
        assert np.all(winners == 0)

    def test_crowding_breaks_rank_ties(self):
        rng = search_rng(1)
        winners = tournament_winners(
            rng, np.array([0, 0]), np.array([1.0, 5.0]), 500
        )
        assert np.all(winners == 1)

    def test_full_tie_is_a_fair_coin(self):
        rng = search_rng(2)
        winners = tournament_winners(
            rng, np.array([0, 0]), np.array([1.0, 1.0]), 20_000
        )
        assert 0.45 < winners.mean() < 0.55

    def test_three_way_rank_distribution(self):
        # A pair is uniform over the three unordered index pairs, so the
        # rank-0 point wins 2/3 of tournaments, rank 1 wins 1/3, rank 2 never.
        rng = search_rng(3)
        winners = tournament_winners(
            rng, np.array([0, 1, 2]), np.zeros(3), 30_000
        )
        freq = np.bincount(winners, minlength=3) / winners.size
        assert abs(freq[0] - 2 / 3) < 0.02
        assert abs(freq[1] - 1 / 3) < 0.02
        assert freq[2] == 0.0

    def test_rejects_singleton_population(self):
        with pytest.raises(ValueError):
            tournament_winners(search_rng(0), np.array([0]), np.array([0.0]), 1)


class TestCrossover:
    @staticmethod
    def parents(k, n):
        return np.zeros((k, n), dtype=np.int64), np.ones((k, n), dtype=np.int64)

    def test_children_are_complementary(self):
        A, B = self.parents(200, 8)
        C1, C2 = crossover_two_point(search_rng(4), A, B, 1.0)
        assert np.array_equal(C1 + C2, np.ones((200, 8), dtype=np.int64))

    def test_swapped_segment_is_contiguous_and_nonempty(self):
        A, B = self.parents(200, 8)
        C1, _ = crossover_two_point(search_rng(5), A, B, 1.0)
        for row in C1:
            ones = np.nonzero(row)[0]
            assert ones.size >= 1
            assert np.array_equal(ones, np.arange(ones[0], ones[-1] + 1))

    def test_cut_pairs_cover_all_boundary_choices_uniformly(self):
        # Length 6 has 7 boundaries, so C(7, 2) = 21 possible (lo, hi) pairs.
        A, B = self.parents(21_000, 6)
        C1, _ = crossover_two_point(search_rng(6), A, B, 1.0)
        seen = {}
        for row in C1:
            ones = np.nonzero(row)[0]
            key = (int(ones[0]), int(ones[-1] + 1))
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 21
        counts = np.array(list(seen.values()))
        scipy_stats = pytest.importorskip("scipy.stats")
        assert scipy_stats.chisquare(counts).pvalue > 1e-3

    def test_probability_gates_each_pair(self):
        A, B = self.parents(4000, 5)
        C1, C2 = crossover_two_point(search_rng(3), A, B, 0.0)
        assert np.array_equal(C1, A) and np.array_equal(C2, B)
        C1, _ = crossover_two_point(search_rng(3), A, B, 0.25)
        crossed = C1.any(axis=1).mean()
        assert abs(crossed - 0.25) < 3 * math.sqrt(0.25 * 0.75 / 4000)

    def test_rejects_mismatched_parents(self):
        with pytest.raises(ValueError):
            crossover_two_point(search_rng(0), np.zeros((2, 3)), np.zeros((2, 4)), 1.0)
        with pytest.raises(ValueError):
            crossover_two_point(search_rng(0), np.zeros((2, 1)), np.zeros((2, 1)), 1.0)
        with pytest.raises(ValueError):
            crossover_two_point(search_rng(0), np.zeros(3), np.zeros(3), 1.0)


class TestMutate:
    def test_zero_probability_is_identity(self):
        rng = search_rng(7)
        G = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
        counts = np.array([4, 4, 4, 4])
        assert np.array_equal(mutate(rng, G, counts, 0.0), G)

    def test_unit_probability_changes_every_mutable_position(self):
        rng = search_rng(8)
        G = np.tile([0, 1, 0, 2], (100, 1))
        counts = np.array([4, 4, 1, 3])
        out = mutate(rng, G, counts, 1.0)
        assert np.all(out[:, 2] == 0)
        assert np.all(out[:, [0, 1, 3]] != G[:, [0, 1, 3]])
        assert np.all(out >= 0) and np.all(out < counts)

    def test_replacement_is_uniform_over_other_options(self):
        rng = search_rng(9)
        draws = mutate(rng, np.full((20_000, 1), 2), np.array([5]), 1.0)[:, 0]
        counts = np.bincount(draws, minlength=5)
        assert counts[2] == 0
        scipy_stats = pytest.importorskip("scipy.stats")
        assert scipy_stats.chisquare(counts[[0, 1, 3, 4]]).pvalue > 1e-3


class TestUniformBoundDraws:
    """``mutate`` and ``sample_batch`` pass a uniform array bound as its scalar.
    That keeps every search's RNG stream only while numpy draws the same values,
    and leaves the generator in the same state, for both forms."""

    @pytest.mark.parametrize("bound", [1, 2, 3, 256, 2**33])
    @pytest.mark.parametrize("shape", [(1, 1), (50, 45), (1000, 45)])
    def test_array_and_scalar_bounds_draw_alike(self, bound, shape):
        for seed in range(3):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            bounds = np.full(shape[1], bound, dtype=np.int64)
            by_array = a.integers(0, bounds, size=shape)
            by_scalar = b.integers(0, uniform_bound(bounds), size=shape)
            assert by_array.dtype == by_scalar.dtype and np.array_equal(by_array, by_scalar)
            assert a.bit_generator.state == b.bit_generator.state
            assert np.array_equal(a.integers(0, 2**40, size=7), b.integers(0, 2**40, size=7))
            assert a.random() == b.random()

    def test_uniform_bound_keeps_a_mixed_array(self):
        assert uniform_bound(np.array([3, 3, 3])) == 3
        mixed = np.array([3, 2, 3])
        assert uniform_bound(mixed) is mixed


class TestEnvironmentalSelection:
    def test_identity_when_pool_fits(self):
        G = np.arange(8).reshape(4, 2)
        F = np.array([[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]])
        sel_G, sel_F, ranks, crowd = environmental_selection(G, F, 4)
        assert sorted(map(tuple, sel_G.tolist())) == sorted(map(tuple, G.tolist()))
        assert np.all(ranks == 0)
        assert sel_F.shape == (4, 2)

    def test_whole_better_fronts_survive(self):
        F = np.array(
            [
                [0.0, 1.0],  # front 0
                [1.0, 0.0],  # front 0
                [2.0, 2.0],  # front 1
                [2.0, 3.0],  # front 2 (dominated by [2, 2])
                [3.0, 2.0],  # front 2
            ]
        )
        G = np.arange(10).reshape(5, 2)
        sel_G, _, ranks, _ = environmental_selection(G, F, 3)
        assert sorted(map(tuple, sel_G.tolist())) == [(0, 1), (2, 3), (4, 5)]
        assert sorted(ranks.tolist()) == [0, 0, 1]

    def test_boundary_front_cut_by_crowding(self):
        # One front of five points; the two extremes carry infinite crowding
        # and the centre point has the largest finite distance (1.25 against
        # 1.0 for its neighbours).
        F = np.array([[0.0, 4.0], [1.0, 3.5], [2.0, 2.0], [3.0, 0.5], [4.0, 0.0]])
        G = np.arange(10).reshape(5, 2)
        sel_G, _, ranks, crowd = environmental_selection(G, F, 3)
        assert sorted(map(tuple, sel_G.tolist())) == [(0, 1), (4, 5), (8, 9)]
        assert np.all(ranks == 0)
        assert np.isinf(crowd).sum() == 2

    def test_cut_is_deterministic_under_ties(self):
        F = np.tile(np.array([[1.0, 1.0]]), (4, 1))
        G = np.arange(8).reshape(4, 2)
        first = environmental_selection(G, F, 2)[0]
        second = environmental_selection(G, F, 2)[0]
        assert np.array_equal(first, second)


def crowding_reference(F):
    """Crowding within one front, one stable sort per column."""
    dist = np.zeros(len(F))
    for col in F.T:
        lo, hi = float(col.min()), float(col.max())
        if hi == lo:
            continue
        order = np.argsort(col, kind="stable")
        dist[order[0]] = dist[order[-1]] = math.inf
        # A gap of inf - inf, or inf over an infinite range, is nan: kept, unwarned.
        with np.errstate(invalid="ignore"):
            dist[order[1:-1]] += (col[order[2:]] - col[order[:-2]]) / (hi - lo)
    return dist


def rank_and_crowd_reference(F):
    """Per-front ranks and crowding: one crowding_reference call per front.

    Fronts come from :func:`fronts_of`, whose fronts and their order are
    pinned against the loop oracle above.
    """
    ranks = np.empty(len(F), dtype=np.int64)
    crowd = np.empty(len(F))
    for r, members in enumerate(fronts_of(F)):
        ranks[members] = r
        crowd[members] = crowding_reference(F[members])
    return ranks, crowd


def selection_reference(G, F, pop_size):
    """Per-front NSGA-II selection: whole fronts in index order, then the
    boundary front by descending crowding with index order among ties."""
    chosen, filled = [], 0
    for members in fronts_of(F):
        dist = crowding_reference(F[members])
        if filled + len(members) > pop_size:
            members = members[np.argsort(-dist, kind="stable")[: pop_size - filled]]
        chosen.append(members)
        filled += len(members)
        if filled == pop_size:
            break
    idx = np.concatenate(chosen)
    ranks, crowd = rank_and_crowd_reference(F)
    return G[idx], F[idx], ranks[idx], crowd[idx]


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestWholePoolRankAndCrowd:
    """The whole-pool crowding kernel against the per-front reference, bit for bit."""

    # Front 0 holds (0, 5) and (5, 0); front 1 three copies of (inf, inf),
    # constant in both columns, where hi - lo is nan.
    CONSTANT_INF = np.array(
        [[0.0, 5.0], [np.inf, np.inf], [5.0, 0.0], [np.inf, np.inf], [np.inf, np.inf]]
    )

    def test_constant_inf_columns_get_no_crowding(self):
        ranks, crowd = rank_and_crowd(self.CONSTANT_INF)
        assert ranks.tolist() == [0, 1, 0, 1, 1]
        assert crowd.tolist() == [math.inf, 0.0, math.inf, 0.0, 0.0]

    def test_rank_and_crowd_match_reference(self):
        cases = [self.CONSTANT_INF] + list(hard_objective_matrices(seed=31, count=300))
        cases += hard_objective_matrices(seed=33, count=100, ms=(1, 3))
        for F in cases:
            ranks, crowd = rank_and_crowd(F)
            ref_ranks, ref_crowd = rank_and_crowd_reference(F)
            assert same_bits(ranks, ref_ranks)
            assert same_bits(crowd, ref_crowd)
            front = fronts_of(F)[0]
            assert same_bits(rank_and_crowd(F[front])[1], crowding_reference(F[front]))

    def test_selection_matches_reference_in_order(self):
        rng = np.random.default_rng(37)
        exact_fills = 0
        for F in hard_objective_matrices(seed=37, count=200, ms=(1, 2, 2, 3)):
            G = rng.integers(0, 9, size=(len(F), 3))
            # A front boundary is an exact fill; the random sizes mostly cut.
            sizes = np.cumsum([len(f) for f in fronts_of(F)])
            sizes = rng.choice(sizes, size=min(4, len(sizes)), replace=False)
            exact_fills += len(sizes)
            for pop_size in {*sizes.tolist(), *rng.integers(1, len(F) + 1, size=3).tolist()}:
                got = environmental_selection(G, F, pop_size)
                want = selection_reference(G, F, pop_size)
                for a, b in zip(got, want):
                    assert same_bits(a, b)
        assert exact_fills > 400

    def test_exact_fill_keeps_index_order(self):
        # Front 0 is [0, 2, 3] with crowding (inf, 2.0, inf): an exact fill of
        # three keeps index order, not crowding order.
        F = np.array([[0.0, 4.0], [5.0, 5.0], [1.0, 2.0], [4.0, 0.0], [6.0, 6.0]])
        G = np.arange(10).reshape(5, 2)
        sel_G, _, ranks, crowd = environmental_selection(G, F, 3)
        assert sel_G[:, 0].tolist() == [0, 4, 6]
        assert ranks.tolist() == [0, 0, 0]
        assert crowd.tolist() == [math.inf, 2.0, math.inf]
        sel_G, _, _, crowd = environmental_selection(G, F, 2)
        assert sel_G[:, 0].tolist() == [0, 6]


class TestRanksUpToStop:
    """``_ranks(F, stop)`` gives the full rank to every row of the fronts that
    together hold ``stop`` rows, and a larger rank to every later row."""

    def test_needed_fronts_have_their_full_ranks(self):
        rng = np.random.default_rng(43)
        cases = list(hard_objective_matrices(seed=43, count=40, ms=(1, 2, 2, 3), max_n=150))
        for F in cases[::3]:  # NaN rows are rank 0 and dominate nothing
            F[rng.random(len(F)) < 0.1, int(rng.integers(0, F.shape[1]))] = np.nan
        cases.append(TestWholePoolRankAndCrowd.CONSTANT_INF)
        for F in cases:
            full = rank_and_crowd(F)[0]
            covered = np.cumsum(np.bincount(full))
            for stop in range(1, len(F) + 1):
                last = int(np.searchsorted(covered, stop))  # the last front needed
                needed = full <= last
                got = _ranks(F, stop)
                assert np.array_equal(got[needed], full[needed])
                assert (got[~needed] > last).all()

    def test_chain_of_single_row_fronts(self):
        # Each row dominates every later one: 2,000 fronts of one row each.
        F = np.repeat(np.arange(2000.0)[:, None], 2, axis=1)
        assert np.array_equal(rank_and_crowd(F)[0], np.arange(2000))
        G = np.arange(2000)[:, None]
        sel_G, _, ranks, _ = environmental_selection(G, F, 700)
        assert np.array_equal(sel_G[:, 0], np.arange(700))
        assert np.array_equal(ranks, np.arange(700))


def selection_by_rank_and_crowd(G, F, pop_size):
    """``environmental_selection`` as it stood before its front-0 path, for
    every pool: rank the fronts that fill the population, crowd every rank, cut."""
    ranks = _ranks(F, pop_size)
    crowd = moea._crowding(F, ranks)
    idx = np.argsort(ranks, kind="stable")
    if pop_size < len(idx) and ranks[idx[pop_size]] == ranks[idx[pop_size - 1]]:
        cut = ranks[idx[pop_size - 1]]
        head = idx[ranks[idx] < cut]
        members = np.flatnonzero(ranks == cut)
        tail = members[np.argsort(-crowd[members], kind="stable")[: pop_size - len(head)]]
        idx = np.concatenate([head, tail])
    idx = idx[:pop_size]
    return G[idx], F[idx], ranks[idx], crowd[idx]


def anti_correlated_pools(seed, count, max_n=90):
    """Two-column pools whose front 0 mostly outgrows a population: f2 falls as
    f1 rises, on few levels (so copies are common), with some dominated rows,
    signed zeros, and scales that underflow or overflow the crowding gaps."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(3, max_n + 1))
        x = rng.integers(0, int(rng.integers(2, 60)), size=n).astype(float)
        F = np.column_stack([x, -x]) + (rng.random((n, 1)) < 0.15) * rng.integers(1, 4, (n, 2))
        F -= np.round(F.mean(axis=0))  # so a column's range may exceed the largest float
        F[F == 0] *= rng.choice([1.0, -1.0], size=np.count_nonzero(F == 0))
        yield F * (1.0, 1e-310, 4e306)[i % 3]


class TestFront0Selection:
    """``environmental_selection``'s one-sort front-0 path against the general
    rank, crowd and cut, bit for bit, at every population size."""

    def select_all_sizes(self, F, rng):
        G = rng.integers(0, 9, size=(len(F), 3))
        for pop_size in range(2, len(F)):
            got = environmental_selection(G, F, pop_size)
            want = selection_by_rank_and_crowd(G, F, pop_size)
            for a, b in zip(got, want):
                assert same_bits(a, b)

    def spy(self, monkeypatch):
        calls = []
        real = moea._select_front0

        def counted(*args):
            calls.append(len(args[2]))
            return real(*args)

        monkeypatch.setattr(moea, "_select_front0", counted)
        return calls

    def test_matches_general_path_on_hard_and_anti_correlated_pools(self, monkeypatch):
        calls = self.spy(monkeypatch)
        rng = np.random.default_rng(47)
        cases = list(hard_objective_matrices(seed=47, count=150, max_n=90))
        cases += anti_correlated_pools(seed=53, count=90)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for F in cases:
                self.select_all_sizes(F, rng)
        assert len(calls) > 2_000  # pools whose front 0 fills the population
        assert any(size > 40 for size in calls)

    def test_nan_rows_take_the_general_path(self, monkeypatch):
        calls = self.spy(monkeypatch)
        rng = np.random.default_rng(59)
        for F in anti_correlated_pools(seed=59, count=30):
            F[rng.random(len(F)) < 0.2, int(rng.integers(0, 2))] = np.nan
            F[0, 0] = np.nan
            with np.errstate(invalid="ignore"):
                self.select_all_sizes(F, rng)
        assert calls == []


class TestInfiniteColumns:
    """Crowding on +-inf columns: no warning, and the same values as before,
    bit for bit against the per-front reference (nan sign bits included)."""

    # Ranks and crowding as the kernel gave them when its inf - inf and
    # inf / inf gaps still warned; index 7's gap is inf / inf, so nan.
    F = np.array(
        [[0, math.inf], [1, -math.inf], [math.inf, 0], [-math.inf, 1], [2, math.inf],
         [math.inf, math.inf], [-math.inf, -math.inf], [3, 3], [math.inf, 3], [3, -math.inf]]
    )
    RANKS = [2, 1, 3, 1, 3, 5, 0, 3, 4, 2]
    CROWD = [math.inf, math.inf, math.inf, math.inf, math.inf, 0.0, 0.0, math.nan, 0.0, math.inf]

    def test_hand_case_is_unchanged_and_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ranks, crowd = rank_and_crowd(self.F)
        assert ranks.tolist() == self.RANKS
        assert np.array_equal(crowd, self.CROWD, equal_nan=True)

    def test_matches_reference_without_warnings(self):
        cases = [self.F, TestWholePoolRankAndCrowd.CONSTANT_INF]
        cases += [F for F in hard_objective_matrices(seed=41, count=200, ms=(1, 2, 3))
                  if np.isinf(F).any()]
        assert len(cases) > 50
        for F in cases:
            with np.errstate(all="ignore"):
                want = rank_and_crowd_reference(F)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = rank_and_crowd(F)
            for a, b in zip(got, want):
                assert same_bits(a, b)


class TestRandomSearch:
    def test_budget_and_record_shape(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0])))
        out = run_random(free_space, evaluator, ACC_LAT, budget=10, seed=0)
        assert len(out.store) == 10
        G, V = out.population
        assert G.tolist() == [list(m.genotype) for m in out.store]
        assert V.tobytes() == out.store.values_matrix().tobytes()
        assert [m.eval_index for m in out.store] == list(range(1, 11))
        assert all(m.source == "random" for m in out.store)
        assert all(m.iteration == 0 for m in out.store)
        genotypes = [m.genotype for m in out.store]
        assert len(set(genotypes)) == 10

    def test_deterministic_across_runs(self, free_space, tmp_path):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0])))
        a = run_random(free_space, evaluator, ACC_LAT, budget=12, seed=3)
        b = run_random(free_space, evaluator, ACC_LAT, budget=12, seed=3)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.store.to_jsonl(pa)
        b.store.to_jsonl(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_seeds_differ(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0])))
        a = run_random(free_space, evaluator, ACC_LAT, budget=12, seed=0)
        b = run_random(free_space, evaluator, ACC_LAT, budget=12, seed=1)
        assert [m.genotype for m in a.store] != [m.genotype for m in b.store]

    def test_exhaustion_error(self, masked_space):
        evaluator = FunctionEvaluator(lambda g: (1.0, 1.0))
        with pytest.raises(SpaceExhaustedError):
            run_random(masked_space, evaluator, ACC_LAT, budget=25, seed=0)

    def test_front_matches_oracle(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0] - g[1])))
        out = run_random(free_space, evaluator, ACC_LAT, budget=20, seed=7)
        _, V = out.population
        expected = fronts_oracle(oriented_values(V, ACC_LAT))[0]
        assert set(pareto_front(V, ACC_LAT).tolist()) == expected

    def test_optimum_hit_rate_matches_sampling_without_replacement(self, free_space):
        # 24 configs, budget 6: the best config appears in exactly 6/24 of
        # distinct-sample prefixes, independent of order statistics.
        best = (3, 2, 1)

        def score(g):
            return (1.0 if tuple(g) == best else 0.0, 1.0)

        evaluator = FunctionEvaluator(score)
        hits = sum(
            any(m.genotype == best for m in run_random(
                free_space, evaluator, ACC_LAT, budget=6, seed=s
            ).store)
            for s in range(400)
        )
        p_hat = hits / 400
        bound = 3 * math.sqrt(0.25 * 0.75 / 400)
        assert abs(p_hat - 0.25) < bound

    def test_oriented_objectives_negate_maximized_values(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0])))
        out = run_random(free_space, evaluator, ACC_LAT, budget=5, seed=0)
        G, V = out.population
        assert V.tolist() == [list(evaluator.fn(g)) for g in map(tuple, G.tolist())]
        F = oriented_values(V, ACC_LAT)
        assert F[:, 0].tolist() == (-V[:, 0]).tolist()
        assert F[:, 1].tolist() == V[:, 1].tolist()


class TestSampleFreshIntoStore:
    def test_appends_only_new_records(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), 1.0))
        store = EvaluationStore(free_space, ACC_LAT)
        rng = search_rng(0)
        first = sample_fresh_into_store(
            free_space, evaluator, store, rng, 8, source="random"
        )
        second = sample_fresh_into_store(
            free_space, evaluator, store, rng, 8, source="random"
        )
        assert len(store) == 16
        assert first.shape == second.shape == (8, 3) and first.dtype == np.int64
        genotypes = set(map(tuple, np.concatenate([first, second]).tolist()))
        assert len(genotypes) == 16

    def test_raises_when_no_unseen_config_exists(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (1.0, 1.0))
        store = EvaluationStore(free_space, ACC_LAT)
        rng = search_rng(0)
        sample_fresh_into_store(free_space, evaluator, store, rng, 24, source="random")
        with pytest.raises(SpaceExhaustedError):
            sample_fresh_into_store(
                free_space, evaluator, store, rng, 1, source="random"
            )


def draw_unseen_reference(space, rng, count, seen):
    """Distinct unseen draws taken one row at a time, and the count of other draws."""
    out, misses = [], 0
    while len(out) < count:
        g = tuple(space.sample_batch(rng, 1)[0].tolist())
        if g not in seen and g not in out:
            out.append(g)
        else:
            misses += 1
    return out, misses


class TestDrawUnseen:
    @pytest.mark.parametrize(
        "space", [make_free_space(), make_masked_space(), builtin_space("ncf")],
        ids=lambda s: s.name,
    )
    def test_matches_one_row_at_a_time(self, space):
        for seed in range(3):
            # Seen: half the toy space, or the first draws of this very stream,
            # so both misses on ``seen`` and repeats within the batch occur.
            if space.name == "ncf":
                seen = set(draw_unseen_reference(space, search_rng(seed), 30, ())[0])
                count = 40
            else:
                seen = set(sorted(enumerate_canonicals(space))[::2])
                count = 10
            rng, ref_rng = search_rng(seed), search_rng(seed)
            keys = set(space.row_keys(np.array(sorted(seen))))
            got, misses = draw_unseen(space, rng, count, keys)
            want, want_misses = draw_unseen_reference(space, ref_rng, count, seen)
            assert got.dtype == np.int64 and got.shape == (count, space.n_variables)
            assert list(map(tuple, got.tolist())) == want
            assert misses == want_misses

            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_raises_when_every_draw_is_seen(self, free_space, monkeypatch):
        monkeypatch.setattr(moea, "_ATTEMPT_CAP", 50)
        seen = set(free_space.row_keys(np.array(sorted(enumerate_canonicals(free_space)))))
        with pytest.raises(SpaceExhaustedError, match="after 50 samples"):
            draw_unseen(free_space, search_rng(0), 2, seen)

    def test_zero_draws_are_an_empty_array(self, free_space):
        rng = search_rng(0)
        state = rng.bit_generator.state
        got, misses = draw_unseen(free_space, rng, 0, ())
        assert got.shape == (0, 3) and got.dtype == np.int64 and misses == 0
        assert rng.bit_generator.state == state


class TestNsga2:
    def landscape(self, name="mobilenetv3", seed=0):
        space = builtin_space(name)
        return space, SyntheticLandscape.from_seed(space, seed=seed)

    def test_budget_equal_to_population_skips_variation(self):
        space, land = self.landscape()
        cfg = EaConfig(population_size=12, max_evaluations=12, seed=0)
        out = run_nsga2(space, land, ACC_LAT, cfg)
        assert out.generations == 0
        assert len(out.store) == 12
        G, V = out.population
        assert G.shape == (12, space.n_variables) and V.shape == (12, 2)

    def test_store_growth_hits_budget_exactly(self):
        space, land = self.landscape()
        cfg = EaConfig(population_size=10, max_evaluations=43, seed=1)
        out = run_nsga2(space, land, ACC_LAT, cfg)
        assert len(out.store) == 43
        assert [m.eval_index for m in out.store] == list(range(1, 44))
        assert all(m.source == "nsga2" for m in out.store)

    def test_iteration_tags_are_generations(self):
        space, land = self.landscape()
        cfg = EaConfig(population_size=10, max_evaluations=35, seed=2)
        out = run_nsga2(space, land, ACC_LAT, cfg)
        tags = [m.iteration for m in out.store]
        assert tags[:10] == [0] * 10
        assert tags == sorted(tags)
        assert max(tags) == out.generations

    def test_deterministic_and_seed_sensitive(self, tmp_path):
        space, land = self.landscape()
        cfg = EaConfig(population_size=10, max_evaluations=40, seed=5)
        a = run_nsga2(space, land, ACC_LAT, cfg)
        b = run_nsga2(space, land, ACC_LAT, cfg)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.store.to_jsonl(pa)
        b.store.to_jsonl(pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert front_genotypes(a, ACC_LAT) == front_genotypes(b, ACC_LAT)
        c = run_nsga2(space, land, ACC_LAT, EaConfig(
            population_size=10, max_evaluations=40, seed=6
        ))
        assert [m.genotype for m in c.store] != [m.genotype for m in a.store]

    def test_generation_cap(self):
        space, land = self.landscape()
        cfg = EaConfig(
            population_size=10, max_evaluations=10_000, seed=0, max_generations=4
        )
        out = run_nsga2(space, land, ACC_LAT, cfg)
        assert out.generations == 4
        assert len(out.store) <= 10 + 4 * 10

    def test_final_front_is_nondominated_within_population(self):
        space, land = self.landscape()
        cfg = EaConfig(population_size=16, max_evaluations=80, seed=3)
        out = run_nsga2(space, land, ACC_LAT, cfg)
        _, V = out.population
        expected = fronts_oracle(oriented_values(V, ACC_LAT))[0]
        assert set(pareto_front(V, ACC_LAT).tolist()) == expected

    def test_population_genotypes_all_measured(self):
        space, land = self.landscape()
        out = run_nsga2(space, land, ACC_LAT, EaConfig(
            population_size=8, max_evaluations=30, seed=4
        ))
        G, V = out.population
        row = {g: i for i, g in enumerate(map(tuple, out.store.genotype_matrix().tolist()))}
        for g, values in zip(map(tuple, G.tolist()), V.tolist()):
            assert g in row
            assert values == out.store.values_matrix()[row[g]].tolist()

    def test_small_space_terminates_via_stall_guard(self, masked_space):
        evaluator = FunctionEvaluator(lambda g: (float(sum(g)), float(g[0])))
        cfg = EaConfig(
            population_size=4, max_evaluations=24, seed=0, stall_generations=8
        )
        out = run_nsga2(masked_space, evaluator, ACC_LAT, cfg)
        assert 4 <= len(out.store) <= 24

    def test_rejecting_evaluator_keeps_search_inside_table(self, free_space):
        # Table covers only half the space; rejected configs never enter the
        # store and never crash the run.
        keep = {
            (a, b, c): (float(a + b + c), float(a))
            for a in range(4)
            for b in range(3)
            for c in range(2)
            if (a + b + c) % 2 == 0
        }
        table = TabularEvaluator(free_space, keep, 2, missing_policy="nearest-reject")
        cfg = EaConfig(
            population_size=4, max_evaluations=8, seed=1, stall_generations=6
        )
        out = run_nsga2(free_space, table, ACC_LAT, cfg)
        assert len(out.store) <= len(keep)
        for m in out.store:
            assert m.genotype in keep

    def test_negation_equivalence(self):
        space, land = self.landscape()
        negated = FunctionEvaluator(lambda g: land.evaluate_batch([g])[0] * (-1.0, 1.0))
        both_min = (
            ObjectiveSpec("neg_accuracy", MINIMIZE),
            ObjectiveSpec("latency", MINIMIZE),
        )
        cfg = EaConfig(population_size=10, max_evaluations=40, seed=9)
        a = run_nsga2(space, land, ACC_LAT, cfg)
        b = run_nsga2(space, negated, both_min, cfg)
        assert [m.genotype for m in a.store] == [m.genotype for m in b.store]
        assert front_genotypes(a, ACC_LAT) == front_genotypes(b, both_min)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EaConfig(population_size=1)
        with pytest.raises(ValueError):
            EaConfig(population_size=10, max_evaluations=5)
        with pytest.raises(ValueError):
            EaConfig(crossover_prob=1.5)
        with pytest.raises(ValueError):
            EaConfig(mutation_prob=-0.1)
        with pytest.raises(ValueError):
            EaConfig(max_generations=-1)
        with pytest.raises(ValueError):
            EaConfig(stall_generations=0)


def reject_first_option(g):
    """(sum, a) for configs with a > 0; a = 0 comes back as an all-NaN row."""
    return (math.nan, math.nan) if g[0] == 0 else (float(sum(g)), float(g[0]))


def record_mutations(monkeypatch, on_children):
    """Hand ``on_children`` each generation's mutated children in ``nsga2_core``,
    which mutates through the function ``moea._mutator`` builds once per search."""
    real = moea._mutator

    def recording(*args):
        apply = real(*args)

        def recorded(rng, G):
            out = apply(rng, G)
            on_children(out)
            return out

        return recorded

    monkeypatch.setattr(moea, "_mutator", recording)


class TestMeasureProtocol:
    """What ``nsga2_core`` hands ``evaluate_batch``: int64 ``(k, n)`` arrays of
    distinct, unseen, canonical rows in child order, cut at the budget, and
    only when a generation has such a row."""

    def record(self, monkeypatch, space, cfg, reject):
        seen: set = set()
        offered = [None]  # per generation: (fresh children, the budget's cut)
        calls = []

        def on_children(out):
            children = map(tuple, space.canonicalize_batch(out).tolist())
            fresh = [g for g in dict.fromkeys(children) if g not in seen]
            offered.append((fresh, fresh[: cfg.max_evaluations - len(seen)]))

        class Recording:
            def evaluate_batch(self, rows):
                assert isinstance(rows, np.ndarray) and rows.dtype == np.int64
                assert rows.ndim == 2 and rows.shape[1] == space.n_variables and len(rows)
                assert np.array_equal(space.canonicalize_batch(rows), rows)
                keys = list(map(tuple, rows.tolist()))
                assert len(set(keys)) == len(keys)
                assert not any(g in seen for g in keys)
                calls.append((len(offered) - 1, keys))  # the generation being measured
                seen.update(g for g in keys if not reject(g))
                nan = (math.nan, math.nan)
                return np.array([nan if reject(g) else (float(sum(g)), float(g[0])) for g in keys])

        record_mutations(monkeypatch, on_children)
        _, _, generations = moea.nsga2_core(space, Recording(), ACC_LAT, cfg)
        assert len(offered) == generations + 1
        return offered, calls

    @pytest.mark.parametrize("seed", range(3))
    def test_small_space_with_rejections(self, monkeypatch, masked_space, seed):
        cfg = EaConfig(population_size=6, max_evaluations=20, seed=seed, stall_generations=10)
        offered, calls = self.record(
            monkeypatch, masked_space, cfg, reject=lambda g: sum(g) % 5 == 0
        )
        self.check(offered, calls)
        assert any(not fresh for fresh, _ in offered[1:])
        assert any(fresh for fresh, _ in offered[1:])

    def test_budget_cuts_the_last_generation(self, monkeypatch):
        space = builtin_space("mobilenetv3")
        cfg = EaConfig(population_size=10, max_evaluations=47, seed=4)
        offered, calls = self.record(monkeypatch, space, cfg, reject=lambda g: False)
        self.check(offered, calls)
        fresh, cut = offered[-1]
        assert 0 < len(cut) < len(fresh)

    def check(self, offered, calls):
        by_generation: dict = {}
        for generation, keys in calls:
            by_generation.setdefault(generation, []).append(keys)
        assert by_generation[0]
        for generation, (_, cut) in enumerate(offered[1:], start=1):
            assert by_generation.get(generation, []) == ([cut] if cut else [])


class TestDedupTable:
    """``nsga2_core``'s row keys and value table, with and without a store:
    an accepted row is asked once and its values come back bit for bit, a
    rejected row is dropped, and a cut batch spends exactly the budget left."""

    SPACE = builtin_space("mobilenetv3")
    LAND = SyntheticLandscape.from_seed(SPACE, seed=3)

    @staticmethod
    def rejected(g):
        return g[1] == 2  # a kernel slot every depth keeps active

    def run(self, monkeypatch, cfg, store):
        space, land, rejected = self.SPACE, self.LAND, self.rejected
        asked: list[list[tuple]] = []
        raw: dict[tuple, np.ndarray] = {}  # row -> the values the evaluator returned
        children: list[list[tuple]] = []  # per generation, canonical children

        def on_children(out):
            children.append(list(map(tuple, space.canonicalize_batch(out).tolist())))

        class Recording:
            def evaluate_batch(self, rows):
                keys = list(map(tuple, rows.tolist()))
                V = land.evaluate_batch(rows)
                V[list(map(rejected, keys))] = math.nan
                asked.append(keys)
                raw.update(zip(keys, V))
                return V

        record_mutations(monkeypatch, on_children)
        G, F, _ = moea.nsga2_core(space, Recording(), ACC_LAT, cfg, store)
        return asked, raw, children, G, F

    @pytest.mark.parametrize("with_store", [False, True], ids=["no-store", "store"])
    def test_each_row_asked_once_and_read_back_bit_for_bit(self, monkeypatch, with_store):
        cfg = EaConfig(population_size=10, max_evaluations=47, seed=4)
        store = EvaluationStore(self.SPACE, ACC_LAT) if with_store else None
        asked, raw, children, G, F = self.run(monkeypatch, cfg, store)

        flat = [g for keys in asked for g in keys]
        accepted = [g for g in flat if not self.rejected(g)]
        assert len(accepted) == len(set(accepted)) == cfg.max_evaluations
        assert len(accepted) < len(flat)  # the run saw rejections

        rows = list(map(tuple, G.tolist()))
        assert not any(map(self.rejected, rows))
        assert same_bits(F, oriented_values(np.array([raw[g] for g in rows]), ACC_LAT))
        if with_store:
            assert store.genotype_matrix().tolist() == list(map(list, accepted))
            assert same_bits(store.values_matrix(), np.array([raw[g] for g in accepted]))

        # The last batch is cut: it asks exactly the budget left of the
        # generation's fresh children, which outnumber it.
        known = set(accepted[: -len(asked[-1])])
        budget_left = cfg.max_evaluations - len(known)
        fresh = [g for g in dict.fromkeys(children[-1]) if g not in known]
        assert len(asked[-1]) == budget_left < len(fresh)
        assert asked[-1] == fresh[:budget_left]

    def test_population_larger_than_the_initial_table(self):
        pop = 2 * moea._TABLE_ROWS + 1
        out = run_nsga2(self.SPACE, self.LAND, ACC_LAT, EaConfig(
            population_size=pop, max_evaluations=3 * pop, seed=1
        ))
        assert len(out.store) == 3 * pop and out.generations >= 2
        G, V = out.population
        row = {g: i for i, g in enumerate(map(tuple, out.store.genotype_matrix().tolist()))}
        assert same_bits(V, out.store.values_matrix()[[row[g] for g in map(tuple, G.tolist())]])


class TestRejectedRows:
    """An all-NaN row is a rejection: skipped, never stored, no budget spent."""

    def test_random_fills_budget_with_accepted_configs(self, free_space):
        out = run_random(free_space, FunctionEvaluator(reject_first_option), ACC_LAT, 12, seed=0)
        assert len(out.store) == 12
        assert all(m.genotype[0] != 0 for m in out.store)

    def test_nsga2_fills_budget_with_accepted_configs(self, free_space):
        cfg = EaConfig(population_size=4, max_evaluations=12, seed=2)
        out = run_nsga2(free_space, FunctionEvaluator(reject_first_option), ACC_LAT, cfg)
        assert len(out.store) == 12
        assert all(m.genotype[0] != 0 for m in out.store)
        assert (out.population[0][:, 0] != 0).all()

    def test_sample_fresh_counts_only_accepted_rows(self, free_space):
        store = EvaluationStore(free_space, ACC_LAT)
        evaluator = FunctionEvaluator(reject_first_option)
        new = sample_fresh_into_store(free_space, evaluator, store, search_rng(0), 18, "t")
        assert len(new) == len(store) == 18
        with pytest.raises(SpaceExhaustedError):
            sample_fresh_into_store(free_space, evaluator, store, search_rng(1), 1, "t")

    def test_store_hits_and_rejections_share_one_cap(self, free_space, monkeypatch):
        # The 18 accepted configs are stored; the 6 unseen ones are all
        # rejected. Every later draw is a store hit or a rejection, so about
        # _ATTEMPT_CAP rows are drawn before the search gives up.
        store = EvaluationStore(free_space, ACC_LAT)
        evaluator = FunctionEvaluator(reject_first_option)
        sample_fresh_into_store(free_space, evaluator, store, search_rng(0), 18, "t")
        drawn, measured = [], []
        sample_batch = SearchSpace.sample_batch

        def counting_sample_batch(space, rng, count):
            drawn.append(count)
            return sample_batch(space, rng, count)

        class CountingEvaluator:
            def evaluate_batch(self, genotypes):
                measured.append(len(genotypes))
                return evaluator.evaluate_batch(genotypes)

        monkeypatch.setattr(moea, "_ATTEMPT_CAP", 50)
        monkeypatch.setattr(SearchSpace, "sample_batch", counting_sample_batch)
        with pytest.raises(SpaceExhaustedError, match="after 5[0-2] samples"):
            sample_fresh_into_store(free_space, CountingEvaluator(), store, search_rng(1), 3, "t")
        assert len(store) == 18
        assert sum(drawn) <= 50 + 3
        assert 0 < sum(measured) <= 50

    def test_partly_non_finite_row_raises(self, free_space):
        evaluator = FunctionEvaluator(lambda g: (math.nan, 1.0))
        with pytest.raises(StoreContractError):
            run_random(free_space, evaluator, ACC_LAT, 5, seed=0)
        with pytest.raises(StoreContractError):
            run_nsga2(free_space, evaluator, ACC_LAT, EaConfig(population_size=4, max_evaluations=8))

    def test_wrong_row_count_raises(self, free_space):
        class ShortEvaluator:
            def evaluate_batch(self, genotypes):
                return np.ones((len(genotypes) - 1, 2))

        with pytest.raises(StoreContractError, match="shape"):
            run_random(free_space, ShortEvaluator(), ACC_LAT, 5, seed=0)
