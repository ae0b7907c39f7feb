"""Shared toy fixtures used across test modules."""

from __future__ import annotations

import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from linas_moo.objective import MeasurementColumns, read_measurement_columns
from linas_moo.space import DependencyRule, DesignVariable, SearchSpace


def make_free_space() -> SearchSpace:
    """Three independent variables, no rules. 4*3*2 = 24 configurations."""
    return SearchSpace(
        "toy_free",
        (
            DesignVariable("a", (10, 20, 30, 40)),
            DesignVariable("b", (1, 2, 3)),
            DesignVariable("c", (0, 5)),
        ),
    )


def make_masked_space() -> SearchSpace:
    """Depth controller at index 0 with values (1, 2) gating two slots.

    depth=1 activates slot index 1 only; depth=2 activates slots 1 and 2.
    Index 3 is free. Cardinality = (3 + 3*3) * 2 = 24.
    """
    return SearchSpace(
        "toy_masked",
        (
            DesignVariable("depth", (1, 2)),
            DesignVariable("s1", (7, 8, 9)),
            DesignVariable("s2", (7, 8, 9)),
            DesignVariable("free", (0, 1)),
        ),
        (DependencyRule.from_mapping(0, {0: [1], 1: [1, 2]}),),
    )


def canonical_oracle(space: SearchSpace, raw) -> tuple[int, ...]:
    """Canonical form of one raw index vector by plain loops over the rules:
    every dependent that its controller's option leaves inactive becomes 0."""
    g = list(raw)
    for rule in space.rules:
        active = rule.activation[raw[rule.controller]]
        for d in rule.dependents:
            if d not in active:
                g[d] = 0
    return tuple(g)


def enumerate_canonicals(space: SearchSpace) -> set[tuple[int, ...]]:
    """Exhaustive oracle: canonical forms of every raw index vector."""
    axes = [range(len(v.options)) for v in space.variables]
    return {canonical_oracle(space, raw) for raw in itertools.product(*axes)}


def store_columns(store) -> MeasurementColumns:
    """A store's rows as its JSONL file reads back, the public view of each
    row's ``eval_index``, ``source`` and ``iteration``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        store.to_jsonl(path)
        return read_measurement_columns(path)


def stored_genotypes(store) -> list[tuple[int, ...]]:
    """A store's genotypes as tuples, in insertion order."""
    return list(map(tuple, store.genotype_matrix().tolist()))


def hard_objective_matrices(seed: int, count: int, ms=(2,), max_n: int = 300):
    """Random minimization matrices with heavy ties, duplicate rows and +-inf.

    Rows are drawn with replacement from a pool of few-level rows, so equal
    coordinates and exact duplicates are common.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_n + 1))
        m = int(rng.choice(ms))
        levels = int(rng.integers(2, 40))
        pool = rng.integers(0, levels, size=(int(rng.integers(1, n + 1)), m)).astype(float)
        pool[rng.random(pool.shape) < 0.05] = np.inf
        pool[rng.random(pool.shape) < 0.05] = -np.inf
        yield pool[rng.integers(0, len(pool), size=n)]


@pytest.fixture
def free_space() -> SearchSpace:
    return make_free_space()


@pytest.fixture
def masked_space() -> SearchSpace:
    return make_masked_space()
