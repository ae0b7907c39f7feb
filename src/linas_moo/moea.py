"""NSGA-II over integer genotypes, plus a uniform random-search baseline.

Every search measures through its evaluator's ``evaluate_batch``. The real
searches keep an :class:`EvaluationStore`, so a duplicate offspring reuses
the stored measurement without consuming budget and the budget counts
distinct configurations. Every search dedups on the byte row keys of
:meth:`SearchSpace.row_keys`. :func:`nsga2_core` is the NSGA-II loop itself,
on arrays; its keys index one table of minimized values. :func:`run_nsga2`
hands it a store to fill, and the predictor-only inner search of LINAS runs
it with none. Objectives are handled internally in minimization convention;
evaluators stay in natural directions.

An evaluator has one method, ``evaluate_batch(G)``: given a ``(B, n)`` int64
array of genotypes, it returns a ``(B, m)`` float array of raw values. An all-NaN
row marks a configuration the evaluator rejects: searches skip it, spending no budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .metrics import _front0_2d, _ranks
from .objective import (
    EvaluationStore,
    ObjectiveSpec,
    _check_values,
    oriented_values,
)
from .space import SearchSpace, uniform_bound

_SEARCH_SEED_TAG = 0x5EED
_ATTEMPT_CAP = 100_000
_TABLE_ROWS = 256  # initial capacity of nsga2_core's value table


class SpaceExhaustedError(RuntimeError):
    """Raised when a search cannot reach its budget of distinct configs."""


def search_rng(seed: int) -> np.random.Generator:
    """The seed stream shared by every search entry point.

    Keeping the construction identical across algorithms makes runs with the
    same config seed comparable draw for draw.
    """
    return np.random.default_rng(np.random.SeedSequence([_SEARCH_SEED_TAG, seed]))


@dataclass(frozen=True)
class EaConfig:
    """NSGA-II settings.

    ``max_evaluations`` bounds store growth (distinct measured configs);
    ``max_generations`` optionally caps the generation count, which the
    predictor-guided inner search uses; ``stall_generations`` is a safety
    stop after that many generations without store growth (duplicate-only
    offspring, e.g. on a nearly exhausted space).
    """

    population_size: int = 50
    max_evaluations: int = 250
    crossover_prob: float = 0.9
    mutation_prob: float = 0.02
    seed: int = 0
    max_generations: int | None = None
    stall_generations: int = 50

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.max_evaluations < self.population_size:
            raise ValueError(
                f"max_evaluations ({self.max_evaluations}) must cover one "
                f"population ({self.population_size})"
            )
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")
        if self.max_generations is not None and self.max_generations < 0:
            raise ValueError("max_generations must be non-negative")
        if self.stall_generations < 1:
            raise ValueError("stall_generations must be positive")


@dataclass(frozen=True, eq=False)
class SearchOutcome:
    """What a search run produced.

    ``population`` is the final population (NSGA-II), the last measured
    batch (LINAS) or every measured sample (random search) as two arrays:
    genotypes and raw values.
    """

    store: EvaluationStore
    population: tuple[np.ndarray, np.ndarray]
    generations: int


def _crowding(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding of every row within its front; one (rank, column) sort per column.

    Boundary members per objective get infinity; interior members sum
    neighbour gaps scaled by the objective's range. A zero-range objective
    (``hi == lo``, also a constant inf column) contributes nothing. Each
    sort puts the ranks in order, so the front bounds are found once.
    ``ranks`` take every value from 0 to their maximum, as :func:`_ranks` gives them.
    """
    crowd = np.zeros(len(F))
    front = np.sort(ranks)  # the front of each sorted position
    first = np.concatenate([[True], front[1:] != front[:-1]])
    last = np.concatenate([first[1:], [True]])
    edge = first | last
    # Gaps are taken at every sorted position and kept where interior and live;
    # the discarded ones may be 0 / 0 or inf - inf, and a kept nan stays unwarned.
    with np.errstate(all="ignore"):
        for col in F.T:
            order = np.lexsort((col, ranks))
            c = col[order]
            lo, hi = c[first], c[last]
            live = (hi != lo)[front]
            crowd[order[live & edge]] = math.inf
            inner = (live & ~edge)[1:-1]
            gaps = (c[2:] - c[:-2]) / (hi - lo)[front[1:-1]]
            crowd[order[1:-1][inner]] += gaps[inner]
    return crowd


def rank_and_crowd(objectives: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Front ranks plus within-front crowding for a whole population."""
    F = np.asarray(objectives, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] == 0:
        raise ValueError("need a non-empty (N, m) objective matrix")
    ranks = _ranks(F)
    return ranks, _crowding(F, ranks)


def tournament_winners(
    rng: np.random.Generator, ranks: np.ndarray, crowding: np.ndarray, count: int
) -> np.ndarray:
    """Vectorised binary tournaments: better rank, then larger crowding, then coin.

    Each tournament draws two distinct population indices uniformly.
    """
    n = len(ranks)
    if n < 2:
        raise ValueError("tournament needs a population of at least 2")
    first = rng.integers(0, n, size=count)
    second = rng.integers(0, n - 1, size=count)
    second = second + (second >= first)
    coin = rng.integers(0, 2, size=count).astype(bool)
    r1, r2, c1, c2 = ranks[first], ranks[second], crowding[first], crowding[second]
    same = r1 == r2
    first_wins = (r1 < r2) | (same & (c1 > c2))
    tie = same & (c1 == c2)
    return np.where(first_wins | (tie & coin), first, second)


def _cut_points(rng: np.random.Generator, length: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Two distinct sorted cut positions in 0..length per pair."""
    c1 = rng.integers(0, length + 1, size=pairs)
    c2 = rng.integers(0, length, size=pairs)
    c2 = c2 + (c2 >= c1)
    return np.minimum(c1, c2), np.maximum(c1, c2)


def crossover_two_point(
    rng: np.random.Generator, A, B, prob: float
) -> tuple[np.ndarray, np.ndarray]:
    """Two-point crossover over ``(k, n)`` parent pairs.

    Each pair crosses with probability ``prob`` and then swaps the segment
    between two distinct sorted cut points. Cut points live on the
    boundaries 0..n, so a swapped slice ``[lo:hi)`` is never empty.
    """
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    if A.shape != B.shape or A.ndim != 2 or A.shape[1] < 2:
        raise ValueError("parents must be equal-shape (k, n) arrays with n >= 2")
    k, n = A.shape
    do_cross = rng.random(k) < prob
    lo, hi = _cut_points(rng, n, k)
    span = np.arange(n)
    swap = (span >= lo[:, None]) & (span < hi[:, None]) & do_cross[:, None]
    return np.where(swap, B, A), np.where(swap, A, B)


def mutate(
    rng: np.random.Generator, G, option_counts, prob: float
) -> np.ndarray:
    """Per-position mutation of ``(B, n)`` genotypes.

    Each hit position moves to a uniformly chosen different option index.
    Every position draws a replacement, hit or not; when every variable has
    the same option count, the draw takes a scalar bound, which yields the
    same values and generator state as the per-variable bounds.
    """
    return _mutator(option_counts, prob)(rng, np.asarray(G, dtype=np.int64))


def _mutator(option_counts, prob: float):
    """:func:`mutate` over int64 genotypes, its per-variable constants computed once."""
    counts = np.asarray(option_counts, dtype=np.int64)
    mutable, bound = counts > 1, uniform_bound(np.maximum(counts - 1, 1))

    def apply(rng: np.random.Generator, G: np.ndarray) -> np.ndarray:
        hits = (rng.random(G.shape) < prob) & mutable
        draw = rng.integers(0, bound, size=G.shape)
        return np.where(hits, draw + (draw >= G), G)

    return apply


def _measure_batch(
    evaluator, G: np.ndarray, m: int, store: EvaluationStore | None, source: str, iteration: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a ``(k, n)`` int64 batch once and check its ``(k, m)`` values by row position.

    Returns the positions of the accepted rows and their values. All-NaN rows
    are rejections, skipped; other non-finite rows raise :class:`StoreContractError`.
    Given a store, the accepted rows are inserted tagged ``source`` and ``iteration``.
    """
    kept, V = _check_values(np.arange(len(G)), evaluator.evaluate_batch(G), m, rejectable=True)
    if store is not None:
        store.insert_batch(G if len(kept) == len(G) else G[kept], V, source=source, iteration=iteration)
    return kept, V


def draw_unseen(
    space: SearchSpace, rng: np.random.Generator, count: int, seen, misses: int = 0
) -> tuple[np.ndarray, int]:
    """``count`` distinct uniform draws whose row keys (:meth:`SearchSpace.row_keys`)
    are not in ``seen``, as a ``(count, n)`` int64 array in draw order.

    Each round draws as many rows as are still missing and takes them in
    order, so ``rng`` advances exactly as far as drawing one row at a time.
    Returns the rows and ``misses`` plus the draws that were seen or repeated.

    Raises:
        SpaceExhaustedError: once the miss count reaches ``_ATTEMPT_CAP``.
    """
    parts, batch = [np.empty((0, space.n_variables), np.int64)], set()
    while len(batch) < count:
        draws = space.sample_batch(rng, count - len(batch))
        keep = []
        for i, key in enumerate(space.row_keys(draws)):
            if key in seen or key in batch:
                misses += 1
                if misses >= _ATTEMPT_CAP:
                    raise SpaceExhaustedError(f"no unseen config found after {misses} samples")
            else:
                batch.add(key)
                keep.append(i)
        parts.append(draws[keep])
    return np.concatenate(parts), misses


def sample_fresh_into_store(
    space: SearchSpace,
    evaluator,
    store: EvaluationStore,
    rng: np.random.Generator,
    count: int,
    source: str,
    iteration: int = 0,
) -> np.ndarray:
    """Uniformly sample until ``count`` new distinct configs are measured.

    Each round measures, in one batch, as many :func:`draw_unseen` configs
    as are still missing; ``store`` is their ``seen``. Duplicates of stored
    configs and evaluator-rejected configs are skipped without consuming
    budget; both count against one ``_ATTEMPT_CAP``, which resets whenever
    the store grows. Returns the new rows as a ``(count, n)`` int64 array.

    Raises:
        SpaceExhaustedError: after a long run of samples without growth.
    """
    start, target = len(store), len(store) + count
    misses = 0
    while len(store) < target:
        batch, misses = draw_unseen(space, rng, target - len(store), store, misses)
        kept, _ = _measure_batch(evaluator, batch, len(store.objectives), store, source, iteration)
        misses = 0 if len(kept) else misses + len(batch)
        if misses >= _ATTEMPT_CAP:
            raise SpaceExhaustedError(f"no acceptable config found after {misses} samples")
    return store.genotype_matrix()[start:]


def run_random(
    space: SearchSpace,
    evaluator,
    objectives: Sequence[ObjectiveSpec],
    budget: int,
    seed: int = 0,
) -> SearchOutcome:
    """Uniform random search with canonical deduplication.

    Samples until ``budget`` distinct configs are measured; the returned
    population is every measured sample.

    Raises:
        SpaceExhaustedError: if the space holds fewer configs than ``budget``.
    """
    if budget < 1:
        raise ValueError("budget must be positive")
    if space.cardinality() < budget:
        raise SpaceExhaustedError(
            f"space {space.name!r} holds {space.cardinality()} configs, "
            f"budget is {budget}"
        )
    store = EvaluationStore(space, objectives)
    rng = search_rng(seed)
    G = sample_fresh_into_store(space, evaluator, store, rng, budget, source="random", iteration=0)
    return SearchOutcome(store, (G, store.values_matrix()), 0)


def environmental_selection(
    G: np.ndarray, F: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NSGA-II environmental selection from a combined pool.

    Fills by front, members in index order; the boundary front is cut by
    descending crowding, ties in index order. A front that exactly fills
    the population is kept whole in index order. Only the fronts that fill
    the population need their ranks (:func:`_ranks` with ``stop=pop_size``):
    later rows may share one larger rank, and none of them survives. ``F``
    is a float (N, m) minimization matrix. When a finite two-column pool of
    more than ``pop_size`` rows has a front 0 (:func:`_front0_2d`) that fills
    the population, only front 0 is crowded: its f1 order is that one sort,
    its f2 order the same reversed with copies in index order. Every other
    pool (NaN or inf values, other column counts) takes the general path.
    Returns (genotypes, objectives, ranks, crowding) for the survivors.
    """
    if F.shape[1] == 2 and pop_size < len(F) and np.isfinite(F).all():
        rows, best = _front0_2d(F)
        if np.count_nonzero(best) >= pop_size:
            return _select_front0(G, F, rows[best], pop_size)
    ranks = _ranks(F, pop_size)
    crowd = _crowding(F, ranks)
    idx = np.argsort(ranks, kind="stable")
    if pop_size < len(idx) and ranks[idx[pop_size]] == ranks[idx[pop_size - 1]]:
        cut = ranks[idx[pop_size - 1]]
        head = idx[ranks[idx] < cut]
        members = np.flatnonzero(ranks == cut)
        # Stable sort on negated distance keeps index order among ties.
        tail = members[np.argsort(-crowd[members], kind="stable")[: pop_size - len(head)]]
        idx = np.concatenate([head, tail])
    idx = idx[:pop_size]
    return G[idx], F[idx], ranks[idx], crowd[idx]


def _select_front0(G: np.ndarray, F: np.ndarray, front: np.ndarray, pop_size: int):
    """Selection from a finite pool's front 0, ``front`` in (f1, f2) order and at
    least ``pop_size`` rows, crowded with :func:`_crowding`'s arithmetic."""
    crowd = np.zeros(len(F))
    f2_order = front[np.argsort(F[front, 1], kind="stable")]  # only copies tie
    with np.errstate(all="ignore"):
        for order, col in ((front, F[:, 0]), (f2_order, F[:, 1])):
            c = col[order]
            if c[-1] != c[0]:
                crowd[order[[0, -1]]] = math.inf
                crowd[order[1:-1]] += (c[2:] - c[:-2]) / (c[-1] - c[0])
    members = np.sort(front)
    if len(members) > pop_size:
        members = members[np.argsort(-crowd[members], kind="stable")[:pop_size]]
    return G[members], F[members], np.zeros(pop_size, dtype=np.int64), crowd[members]


def nsga2_core(
    space: SearchSpace,
    evaluator,
    objectives: Sequence[ObjectiveSpec],
    config: EaConfig,
    store: EvaluationStore | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Elitist NSGA-II on arrays until the budget (or generation cap) is hit.

    Each batch, ``evaluator.evaluate_batch`` gets the distinct canonical rows
    not yet measured, in child order, as one ``(k, n)`` int64 array, never
    empty and cut at the budget left. Each accepted row's byte key
    (:meth:`SearchSpace.row_keys`) maps to one row of a growable table that
    holds its minimized values, written once; given a ``store``, the row is
    also inserted tagged ``"nsga2"`` and its generation. Known offspring cost
    no budget and read their values from the table; rejected and overflow
    children are dropped and never keyed. Returns the final genotypes,
    minimized objectives and generation count.
    """
    rng = search_rng(config.seed)
    pop = config.population_size
    mutation = _mutator(space.option_counts, config.mutation_prob)
    signs = oriented_values(np.ones(len(objectives)), objectives)  # -1.0 where maximized
    budget_left = config.max_evaluations
    index: dict[bytes, int] = {}  # row key -> row of ``table``
    table = np.empty((_TABLE_ROWS, len(objectives)))  # minimized values, spare rows at the end

    def measured(
        rows: np.ndarray, generation: int, limit: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        # Measures the first ``limit`` unseen distinct rows; returns known rows, their
        # minimized values and how many rows were new.
        nonlocal table
        keys = space.row_keys(rows)
        first: dict[bytes, int] = {}
        for i, key in enumerate(keys):
            if key not in index:
                first.setdefault(key, i)
        fresh = list(first.values())[:limit]
        new = 0
        if fresh:
            kept, V = _measure_batch(
                evaluator, rows[fresh], len(objectives), store, "nsga2", generation
            )
            new_keys = list(first)[:limit]
            if len(kept) < len(new_keys):  # some rejected
                new_keys = [new_keys[i] for i in kept.tolist()]
            start, new = len(index), len(kept)
            if (stop := start + new) > len(table):  # double, or more for a large first batch
                table = np.pad(table, ((0, max(stop, 2 * len(table)) - len(table)), (0, 0)))
            table[start:stop] = V * signs
            index.update(zip(new_keys, range(start, stop)))
        positions = list(map(index.get, keys))
        if None in positions:  # rejected, or past the budget
            keep = [p is not None for p in positions]
            rows, positions = rows[keep], list(compress(positions, keep))
        return rows, table[positions], new

    # Initial population: uniform draws; duplicates allowed and resolved
    # through ``index``. Rejected configs are resampled. A population never
    # outgrows max_evaluations, so the budget cannot run out here.
    parts: list[np.ndarray] = []
    values: list[np.ndarray] = []
    size = attempts = 0
    while size < pop:
        draws = space.sample_batch(rng, pop - size)
        kept, kept_values, new = measured(draws, 0, len(draws))
        budget_left -= new
        parts.append(kept)
        values.append(kept_values)
        size += len(kept)
        attempts += len(draws) - len(kept)
        if attempts >= _ATTEMPT_CAP:
            raise SpaceExhaustedError(
                f"could not assemble an initial population after {attempts} attempts"
            )
    G = np.concatenate(parts)
    F = np.concatenate(values)
    ranks, crowd = rank_and_crowd(F)

    generations = 0
    stall = 0
    while budget_left > 0 and stall < config.stall_generations:
        if config.max_generations is not None and generations >= config.max_generations:
            break
        generations += 1

        # Variation: tournaments pick parents, pairs cross with probability
        # crossover_prob, every child mutates position-wise.
        n_pairs = (pop + 1) // 2
        parents_idx = tournament_winners(rng, ranks, crowd, 2 * n_pairs)
        C1, C2 = crossover_two_point(
            rng, G[parents_idx[0::2]], G[parents_idx[1::2]], config.crossover_prob
        )
        children = np.empty((2 * n_pairs, space.n_variables), dtype=np.int64)
        children[0::2] = C1
        children[1::2] = C2
        children = mutation(rng, children[:pop])
        children = space.canonicalize_batch(children)

        # Measure: known children are free, new configs spend budget in
        # child order, overflow and rejected children are dropped.
        children, off_F, new = measured(children, generations, budget_left)
        budget_left -= new
        stall = 0 if new else stall + 1

        if len(off_F):
            G, F, ranks, crowd = environmental_selection(
                np.concatenate([G, children]), np.concatenate([F, off_F]), pop
            )
    return G, F, generations


def run_nsga2(
    space: SearchSpace,
    evaluator,
    objectives: Sequence[ObjectiveSpec],
    config: EaConfig,
) -> SearchOutcome:
    """:func:`nsga2_core` over ``evaluator`` and a new store; rows are tagged ``"nsga2"``."""
    store = EvaluationStore(space, objectives)
    G, F, generations = nsga2_core(space, evaluator, objectives, config, store)
    return SearchOutcome(store, (G, oriented_values(F, objectives)), generations)
