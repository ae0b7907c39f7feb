"""Predictor-guided multi-objective architecture search.

Each outer iteration measures a small batch of real configurations, fits one
predictor per objective on everything measured so far, explores far beyond
the real-evaluation budget with a predictor-only NSGA-II, and promotes the
most promising unseen candidates to the next measured batch. Real
measurements therefore total ``population_size * iterations``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moea import (
    EaConfig,
    SpaceExhaustedError,
    _measure_batch,
    nsga2_core,
    rank_and_crowd,
    sample_fresh_into_store,
    search_rng,
)
from .objective import EvaluationStore, ObjectiveSpec, _check_genotypes, oriented_values
from .predictor import PREDICTOR_KINDS, featurize_batch, featurize_canonical, make_predictor
from .space import Genotype, SearchSpace

LINAS_SOURCE = "linas"


@dataclass(frozen=True, eq=False)
class PredictorEvaluator:
    """Evaluator over fitted per-objective predictors: the inner search's stand-in
    for the real evaluator.

    ``evaluate_batch`` makes the store's genotype check (index range,
    canonical form) before any model runs, then returns the models' raw
    natural-direction predictions for the checked rows.
    """

    space: SearchSpace
    models: tuple

    def evaluate_batch(self, genotypes) -> np.ndarray:
        X = featurize_canonical(self.space, _check_genotypes(self.space, genotypes))
        return np.column_stack([m.predict(X) for m in self.models])


@dataclass(frozen=True)
class LinasConfig:
    """Settings for the predictor-guided search.

    ``predictor_kinds`` is either one kind applied to every objective or one
    kind per objective; ``inner_evaluations`` is the predictor-query budget
    of each inner search, which also caps its generations at
    ``inner_evaluations // population_size``.
    """

    population_size: int = 50
    iterations: int = 5
    inner_evaluations: int = 20_000
    predictor_kinds: tuple[str, ...] = ("ridge",)
    crossover_prob: float = 0.9
    mutation_prob: float = 0.02
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if self.inner_evaluations < self.population_size:
            raise ValueError(
                "inner_evaluations must cover at least one population"
            )
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError("mutation_prob must lie in [0, 1]")
        if isinstance(self.predictor_kinds, str):
            raise ValueError("predictor_kinds must be a tuple of kind names")
        object.__setattr__(self, "predictor_kinds", tuple(self.predictor_kinds))
        if not self.predictor_kinds:
            raise ValueError("need at least one predictor kind")
        for kind in self.predictor_kinds:
            if kind not in PREDICTOR_KINDS:
                raise ValueError(
                    f"unknown predictor kind {kind!r}; choose from {PREDICTOR_KINDS}"
                )

    def kinds_for(self, objectives: Sequence[ObjectiveSpec]) -> tuple[str, ...]:
        """One predictor kind per objective, broadcasting a single kind."""
        if len(self.predictor_kinds) == 1:
            return self.predictor_kinds * len(objectives)
        if len(self.predictor_kinds) != len(objectives):
            raise ValueError(
                f"{len(self.predictor_kinds)} predictor kinds for "
                f"{len(objectives)} objectives"
            )
        return self.predictor_kinds


@dataclass(frozen=True, eq=False)
class LinasOutcome:
    """What a predictor-guided run produced.

    ``inner_outcome`` is the last inner population: genotypes, predicted raw values.
    """

    store: EvaluationStore
    inner_outcome: tuple[np.ndarray, np.ndarray]


def select_best_unique(
    genotypes: np.ndarray,
    objectives: np.ndarray,
    count: int,
    seen,
) -> list[Genotype]:
    """The best ``count`` distinct genotypes not already in ``seen``.

    ``genotypes`` and ``objectives`` (minimized) are a population's rows.
    Candidates are ordered by front rank, then descending crowding distance,
    then position. Returns fewer than ``count`` when the population cannot
    supply enough unseen genotypes.
    """
    if len(genotypes) == 0:
        return []
    ranks, crowd = rank_and_crowd(objectives)
    order = np.lexsort((np.arange(len(ranks)), -crowd, ranks))
    rows = list(map(tuple, np.asarray(genotypes).tolist()))
    chosen: list[Genotype] = []
    picked: set[Genotype] = set()
    for i in order:
        g = rows[i]
        if g in seen or g in picked:
            continue
        picked.add(g)
        chosen.append(g)
        if len(chosen) == count:
            break
    return chosen


def _fit_models(
    store: EvaluationStore, kinds: Sequence[str], seed: int
) -> tuple:
    X = featurize_batch(store.space, [m.genotype for m in store])
    Y = store.values_matrix()
    models = []
    for j, kind in enumerate(kinds):
        model = make_predictor(kind, seed=seed)
        model.fit(X, Y[:, j])
        models.append(model)
    return tuple(models)


def run_linas(
    space: SearchSpace,
    evaluator,
    objectives: Sequence[ObjectiveSpec],
    config: LinasConfig,
) -> LinasOutcome:
    """Iterative predictor-guided search.

    Iteration 1 draws the population uniformly at random (the same stream a
    plain random search with this seed would use); every later iteration
    measures the candidates promoted by the previous inner search, topping
    up with uniform samples when promotion falls short or a candidate is
    rejected. Inner searches run :func:`nsga2_core` over a
    :class:`PredictorEvaluator` with no store, so the real store grows by
    exactly ``population_size`` per iteration.

    Raises:
        SpaceExhaustedError: if the space cannot supply the total budget of
            distinct configurations.
    """
    kinds = config.kinds_for(objectives)
    total = config.population_size * config.iterations
    if space.cardinality() < total:
        raise SpaceExhaustedError(
            f"space {space.name!r} holds {space.cardinality()} configs, "
            f"budget is {total}"
        )
    store = EvaluationStore(space, objectives)
    rng = search_rng(config.seed)

    promoted: list[Genotype] = []
    for it in range(1, config.iterations + 1):
        if promoted:
            G = np.array(promoted, dtype=np.int64)
            _measure_batch(evaluator, G, len(objectives), store, LINAS_SOURCE, it)
        sample_fresh_into_store(
            space, evaluator, store, rng, config.population_size * it - len(store),
            source=LINAS_SOURCE, iteration=it,
        )

        surrogate = PredictorEvaluator(space, _fit_models(store, kinds, seed=config.seed))
        inner_cfg = EaConfig(
            population_size=config.population_size,
            max_evaluations=config.inner_evaluations,
            crossover_prob=config.crossover_prob,
            mutation_prob=config.mutation_prob,
            seed=int(rng.integers(0, 2**63)),
            max_generations=config.inner_evaluations // config.population_size,
        )
        inner_G, inner_F, _ = nsga2_core(space, surrogate, objectives, inner_cfg)
        promoted = select_best_unique(inner_G, inner_F, config.population_size, store)

    return LinasOutcome(store, (inner_G, oriented_values(inner_F, objectives)))
