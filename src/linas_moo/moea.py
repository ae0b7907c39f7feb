"""NSGA-II over integer genotypes, plus a uniform random-search baseline.

Both searches measure through an :class:`EvaluationStore`, so a duplicate
offspring reuses the stored measurement without consuming budget and the
budget counts distinct configurations. :func:`nsga2_core` is the NSGA-II
loop itself, on arrays and a dedup dict: :func:`run_nsga2` wraps it around
a store, and the predictor-only inner search of LINAS calls it directly.
Objectives are handled internally in minimization convention; evaluators
stay in natural directions.

An evaluator has one method, ``evaluate_batch(genotypes)``, returning a
``(B, m)`` float array of raw values. An all-NaN row marks a configuration
the evaluator rejects: searches skip it and spend no budget on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

import numpy as np

from .metrics import _ranks
from .objective import (
    EvaluationStore,
    Measurement,
    ObjectiveSpec,
    StoreContractError,
    oriented_values,
)
from .space import Genotype, SearchSpace

_SEARCH_SEED_TAG = 0x5EED
_ATTEMPT_CAP = 100_000


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

    ``population`` is the final population (NSGA-II) or every measured
    sample (random search) as two arrays: genotypes and raw values.
    """

    store: EvaluationStore
    population: tuple[np.ndarray, np.ndarray]
    generations: int


def fast_nondominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Partition rows into Pareto fronts (index arrays, ascending, best first)."""
    F = np.asarray(objectives, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] == 0:
        raise ValueError("need a non-empty (N, m) objective matrix")
    ranks = _ranks(F)
    return np.split(np.argsort(ranks, kind="stable"), np.cumsum(np.bincount(ranks))[:-1])


def _crowding(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Crowding of every row within its front; one (rank, column) sort per column.

    Boundary members per objective get infinity; interior members sum
    neighbour gaps scaled by the objective's range. A zero-range objective
    (``hi == lo``, also a constant inf column) contributes nothing.
    """
    crowd = np.zeros(len(F))
    for col in F.T:
        order = np.lexsort((col, ranks))
        r, c = ranks[order], col[order]
        first = np.concatenate([[True], r[1:] != r[:-1]])
        last = np.concatenate([first[1:], [True]])
        front = np.cumsum(first) - 1
        lo, hi = c[first][front], c[last][front]
        live = hi != lo
        crowd[order[live & (first | last)]] = math.inf
        inner = np.flatnonzero(live & ~first & ~last)
        crowd[order[inner]] += (c[inner + 1] - c[inner - 1]) / (hi[inner] - lo[inner])
    return crowd


def crowding_distance(front_objectives: np.ndarray) -> np.ndarray:
    """Crowding distance within one front (see :func:`_crowding`)."""
    F = np.asarray(front_objectives, dtype=np.float64)
    if F.ndim != 2 or F.shape[0] == 0:
        raise ValueError("need a non-empty (k, m) objective matrix")
    return _crowding(F, np.zeros(len(F), dtype=np.int64))


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
    first_wins = (ranks[first] < ranks[second]) | (
        (ranks[first] == ranks[second]) & (crowding[first] > crowding[second])
    )
    tie = (ranks[first] == ranks[second]) & (crowding[first] == crowding[second])
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
    """
    G = np.asarray(G, dtype=np.int64)
    option_counts = np.asarray(option_counts, dtype=np.int64)
    hits = (rng.random(G.shape) < prob) & (option_counts > 1)
    draw = rng.integers(0, np.maximum(option_counts - 1, 1), size=G.shape)
    replacement = draw + (draw >= G)
    return np.where(hits, replacement, G)


def _evaluate(evaluator, genotypes) -> tuple[np.ndarray, np.ndarray]:
    """One batch's ``(B, m)`` values and the mask of accepted (not all-NaN) rows."""
    values = np.asarray(evaluator.evaluate_batch(genotypes), dtype=np.float64)
    if values.ndim != 2 or len(values) != len(genotypes):
        raise StoreContractError(
            f"evaluator returned shape {values.shape} for {len(genotypes)} genotypes"
        )
    return values, ~np.isnan(values).all(axis=1)


def _measure_new(
    store: EvaluationStore,
    evaluator,
    genotypes: Sequence[Genotype],
    source: str,
    iteration: int,
) -> list[Measurement]:
    """Measure distinct unseen canonical genotypes in one batch.

    Stores every accepted row and returns the new measurements in order.
    Rejected rows are skipped; any other non-finite row makes the store
    raise :class:`StoreContractError`.
    """
    if not genotypes:
        return []
    values, keep = _evaluate(evaluator, genotypes)
    kept = list(compress(genotypes, keep))
    return store.insert_batch(kept, values[keep], source=source, iteration=iteration)


def draw_unseen(
    space: SearchSpace, rng: np.random.Generator, count: int, seen, misses: int = 0
) -> tuple[list[Genotype], int]:
    """``count`` distinct uniform draws that are not in ``seen``, in draw order.

    Each round draws as many rows as are still missing and takes them in
    order, so ``rng`` advances exactly as far as drawing one row at a time.
    Returns the rows and ``misses`` plus the draws that were seen or repeated.

    Raises:
        SpaceExhaustedError: once the miss count reaches ``_ATTEMPT_CAP``.
    """
    batch: dict[Genotype, None] = {}
    while len(batch) < count:
        for g in map(tuple, space.sample_batch(rng, count - len(batch)).tolist()):
            if g in seen or g in batch:
                misses += 1
                if misses >= _ATTEMPT_CAP:
                    raise SpaceExhaustedError(f"no unseen config found after {misses} samples")
            else:
                batch[g] = None
    return list(batch), misses


def sample_fresh_into_store(
    space: SearchSpace,
    evaluator,
    store: EvaluationStore,
    rng: np.random.Generator,
    count: int,
    source: str,
    iteration: int = 0,
) -> list[Measurement]:
    """Uniformly sample until ``count`` new distinct configs are measured.

    Each round measures, in one batch, as many :func:`draw_unseen` configs
    as are still missing. Duplicates of stored configs and evaluator-rejected
    configs are skipped without consuming budget; both count against one
    ``_ATTEMPT_CAP``, which resets whenever the store grows.

    Raises:
        SpaceExhaustedError: after a long run of samples without growth.
    """
    new: list[Measurement] = []
    misses = 0
    while len(new) < count:
        batch, misses = draw_unseen(space, rng, count - len(new), store, misses)
        measured = _measure_new(store, evaluator, batch, source, iteration)
        misses = 0 if measured else misses + len(batch)
        if misses >= _ATTEMPT_CAP:
            raise SpaceExhaustedError(f"no acceptable config found after {misses} samples")
        new.extend(measured)
    return new


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
    sample_fresh_into_store(space, evaluator, store, rng, budget, source="random", iteration=0)
    G = np.array([m.genotype for m in store], dtype=np.int64)
    return SearchOutcome(store, (G, store.values_matrix()), 0)


def environmental_selection(
    G: np.ndarray, F: np.ndarray, pop_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NSGA-II environmental selection from a combined pool.

    Fills by front, members in index order; the boundary front is cut by
    descending crowding, ties in index order. A front that exactly fills
    the population is kept whole in index order.
    Returns (genotypes, objectives, ranks, crowding) for the survivors.
    """
    ranks, crowd = rank_and_crowd(F)
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


def nsga2_core(
    space: SearchSpace,
    measure,
    objectives: Sequence[ObjectiveSpec],
    config: EaConfig,
    known: dict[Genotype, tuple[float, ...]],
) -> tuple[np.ndarray, np.ndarray, int]:
    """Elitist NSGA-II on arrays until the budget (or generation cap) is hit.

    ``measure(genotypes, generation)`` takes distinct unseen canonical
    genotypes and returns ``{genotype: raw values}`` for those it accepted;
    they join ``known``, the dedup dict of everything measured. Known
    offspring cost no budget; new ones past the budget are dropped.
    Returns the final genotypes, minimized objectives and generation count.
    """
    rng = search_rng(config.seed)
    pop = config.population_size
    counts = space.option_counts
    budget_left = config.max_evaluations

    def measured(fresh: list[Genotype], generation: int) -> int:
        new = measure(fresh, generation) if fresh else {}
        known.update(new)
        return len(new)

    # Initial population: uniform draws; duplicates allowed and resolved
    # through ``known``. Rejected configs are resampled. A population never
    # outgrows max_evaluations, so the budget cannot run out here.
    rows: list[Genotype] = []
    attempts = 0
    while len(rows) < pop:
        draws = list(map(tuple, space.sample_batch(rng, pop - len(rows)).tolist()))
        budget_left -= measured([g for g in dict.fromkeys(draws) if g not in known], 0)
        kept = [g for g in draws if g in known]
        rows.extend(kept)
        attempts += len(draws) - len(kept)
        if attempts >= _ATTEMPT_CAP:
            raise SpaceExhaustedError(
                f"could not assemble an initial population after {attempts} attempts"
            )
    G = np.array(rows, dtype=np.int64)
    F = oriented_values([known[g] for g in rows], objectives)
    ranks, crowd = rank_and_crowd(F)

    generations = 0
    stall = 0
    while budget_left > 0:
        if config.max_generations is not None and generations >= config.max_generations:
            break
        if stall >= config.stall_generations:
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
        children = mutate(rng, children[:pop], counts, config.mutation_prob)
        children = space.canonicalize_batch(children)

        # Measure: known children are free, new configs spend budget in
        # child order, overflow and rejected children are dropped.
        child_tuples = list(map(tuple, children.tolist()))
        fresh = [g for g in dict.fromkeys(child_tuples) if g not in known][:budget_left]
        new = measured(fresh, generations)
        budget_left -= new
        stall = 0 if new else stall + 1

        keep = [g in known for g in child_tuples]
        if any(keep):
            off_F = oriented_values([known[g] for g in compress(child_tuples, keep)], objectives)
            G, F, ranks, crowd = environmental_selection(
                np.concatenate([G, children[keep]]), np.concatenate([F, off_F]), pop
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

    def measure(genotypes, generation):
        new = _measure_new(store, evaluator, genotypes, "nsga2", generation)
        return {m.genotype: m.values for m in new}

    G, F, generations = nsga2_core(space, measure, objectives, config, {})
    return SearchOutcome(store, (G, oriented_values(F, objectives)), generations)
