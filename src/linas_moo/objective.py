"""Objective declarations, evaluators, and the deduplicating evaluation store.

Evaluators return raw objective vectors in each objective's natural
direction; search code converts to minimization form via the declared
directions. The store is the single source of truth for what a run really
measured: canonical genotypes only, duplicates rejected, evaluation indices
gapless and 1-based.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .space import (
    Genotype, SearchSpace, format_genotype, format_genotypes, parse_genotypes,
)

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
_JSONL_CHUNK = 256  # store rows formatted and written at once


class StoreContractError(ValueError):
    """Raised on non-canonical inserts, arity mismatches, or non-finite values."""


class UnknownConfigurationError(KeyError):
    """Raised by a tabular evaluator on a missing row under the error policy."""


class DegenerateScaleError(ValueError):
    """Raised when a normalization denominator is zero."""


@dataclass(frozen=True)
class ObjectiveSpec:
    """Name and optimization direction of one objective."""

    name: str
    direction: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("objective name must be non-empty")
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ValueError(
                f"objective {self.name!r}: direction must be "
                f"{MINIMIZE!r} or {MAXIMIZE!r}, got {self.direction!r}"
            )

    @property
    def sign(self) -> float:
        """+1 for minimize, -1 for maximize: ``raw * sign`` is minimized."""
        return -1.0 if self.direction == MAXIMIZE else 1.0


def oriented_values(values, objectives: Sequence[ObjectiveSpec]) -> np.ndarray:
    """Convert raw objective rows to minimization convention.

    Maximized columns are negated; minimizing the result is equivalent to
    optimizing every objective in its natural direction.
    """
    arr = np.asarray(values, dtype=np.float64)
    signs = np.array([o.sign for o in objectives])
    return arr * signs


def _check_genotypes(space: SearchSpace, genotypes) -> np.ndarray:
    """Check genotypes as :meth:`EvaluationStore.insert_batch` does; return them as int64.

    A row is canonical when it holds no nonzero index at an inactive position
    (:meth:`SearchSpace.noncanonical_rows`); the first row that does is named.
    """
    G = space.validate_batch(genotypes)
    off = np.flatnonzero(space.noncanonical_rows(G))
    if off.size:
        raise StoreContractError(f"genotype {format_genotype(G[off[0]])} is not canonical")
    return G


def _check_values(G: np.ndarray, values, m: int, rejectable: bool = False):
    """Check the ``(len(G), m)`` values of rows ``G`` (genotypes or positions); return both,
    less rejected rows: a non-finite row is refused, unless ``rejectable`` and all NaN."""
    V = np.asarray(values, dtype=np.float64)
    if V.shape != (len(G), m):
        raise StoreContractError(f"expected values of shape {(len(G), m)}, got {V.shape}")
    bad = ~np.isfinite(V).all(axis=1)
    if not bad.any():
        return G, V
    rejected = np.isnan(V).all(axis=1) & rejectable
    off = np.flatnonzero(bad & ~rejected)
    if off.size:
        raise StoreContractError(f"non-finite objective values: {tuple(V[off[0]].tolist())}")
    return G[~rejected], V[~rejected]


@dataclass(frozen=True)
class Measurement:
    """One line of a measurement file, as :func:`read_measurements_jsonl` reads it.

    Attributes:
        eval_index: 1-based, gapless position in measurement order.
        genotype: Canonical genotype that was measured.
        values: Raw objective vector, natural directions.
        source: Tag of the algorithm that requested the measurement.
        iteration: Outer-loop iteration for iterative searches, else 0.
    """

    eval_index: int
    genotype: Genotype
    values: tuple[float, ...]
    source: str
    iteration: int


class EvaluationStore:
    """Append-only, deduplicating log of real objective measurements.

    Rows are canonical genotypes, keyed by :meth:`SearchSpace.row_keys`;
    ``key in store`` takes such a key. Re-inserting a known genotype is
    reported, not stored, so search budgets count distinct configurations.
    """

    def __init__(self, space: SearchSpace, objectives: Sequence[ObjectiveSpec]):
        if len(objectives) == 0:
            raise ValueError("store needs at least one objective")
        self.space = space
        self.objectives = tuple(objectives)
        # Both arrays keep spare rows at the end.
        self._genotypes = np.empty((0, space.n_variables), space.index_dtype)
        self._values = np.empty((0, len(self.objectives)))
        self._source, self._iteration = [], []  # one str and one int per row
        self._keys: set[bytes] = set()  # row keys of the stored rows

    def __len__(self) -> int:
        return len(self._source)

    def __contains__(self, key: bytes) -> bool:
        """Whether the row of this :meth:`SearchSpace.row_keys` key is stored. A key that
        is not ``bytes``, a genotype say, raises ``TypeError`` rather than read as unseen."""
        if type(key) is not bytes:
            raise TypeError(f"store lookups take a row key (bytes), got {type(key).__name__}")
        return key in self._keys

    def insert_batch(self, genotypes, values, *, source: str, iteration: int = 0) -> int:
        """Store ``(B, n)`` genotypes with ``(B, m)`` values; the store's only write path.

        Checks the whole batch before it stores anything, so a bad row stores nothing.
        Skips stored genotypes and repeats within the batch by row key; returns how many are new.

        Raises:
            MalformedGenotypeError: an index outside its variable's options.
            StoreContractError: a non-canonical genotype, wrong objective
                arity, non-finite values, or a tag the JSONL reader refuses.
        """
        if type(source) is not str:
            raise StoreContractError(f"source must be a string, got {source!r}")
        if type(iteration) is not int:
            raise StoreContractError(f"iteration must be an int, got {iteration!r}")
        G, V = _check_values(_check_genotypes(self.space, genotypes), values, len(self.objectives))
        keys, start = self._keys, len(self)
        # Validated rows key exactly; ``add`` returns None, so a new key's first row is kept.
        new = [i for i, key in enumerate(self.space.row_keys(G)) if not (key in keys or keys.add(key))]
        if (stop := start + len(new)) > len(self._values):  # double; old views keep old arrays
            by = ((0, max(stop, 2 * len(self._values)) - len(self._values)), (0, 0))
            self._genotypes, self._values = [np.pad(a, by) for a in (self._genotypes, self._values)]
        self._genotypes[start:stop], self._values[start:stop] = G[new], V[new]
        self._source += [source] * len(new)
        self._iteration += [iteration] * len(new)
        return len(new)

    def values_matrix(self) -> np.ndarray:
        """Raw values as a read-only ``(N, m)`` view in insertion order."""
        view = self._values[: len(self)]
        view.flags.writeable = False
        return view

    def genotype_matrix(self) -> np.ndarray:
        """Canonical genotypes as a new ``(N, n)`` int64 array in insertion order."""
        return self._genotypes[: len(self)].astype(np.int64)

    def to_jsonl(self, path: str | Path, extra: Mapping[str, Sequence] | None = None) -> None:
        """One sorted-keys JSON object per line, insertion order; byte-deterministic.

        ``extra`` maps a str key to one value per record, added to that record's line.
        Each line is ``json.dumps(obj, sort_keys=True)`` of its record, formatted by columns.
        """
        extra = extra or {}
        if any(len(column) != len(self) for column in extra.values()):
            raise ValueError(f"every extra column needs {len(self)} values, one per row")
        encode = json.JSONEncoder(sort_keys=True).encode
        sources = {s: encode(s) for s in set(self._source)}
        keys = sorted({*_KEYS, *extra})
        line = "{{%s}}\n" % ", ".join(
            encode(k).replace("{", "{{").replace("}", "}}") + ": {}" for k in keys)
        with open(path, "w", encoding="utf-8") as fh:
            for lo in range(0, len(self), _JSONL_CHUNK):
                rows = slice(lo, min(lo + _JSONL_CHUNK, len(self)))
                cells = {
                    "eval_index": map(str, range(rows.start + 1, rows.stop + 1)),
                    "genotype": map('"{}"'.format, format_genotypes(self._genotypes[rows])),
                    "iteration": map(str, self._iteration[rows]),
                    "source": map(sources.__getitem__, self._source[rows]),
                    "values": map(repr, self._values[rows].tolist()),  # json's text if finite
                }
                for key, column in extra.items():
                    part = column[rows]
                    finite = set(map(type, part)) <= {float} and all(map(math.isfinite, part))
                    cells[key] = map(float.__repr__ if finite else encode, part)
                fh.write("".join(map(line.format, *map(cells.get, keys))))


@dataclass(frozen=True, eq=False)
class MeasurementColumns:
    """A measurement JSONL file as columns; row ``i`` of each is one line's fields."""

    eval_index: list[int]
    genotypes: np.ndarray  # (N, n) int64
    values: np.ndarray  # (N, m) float64, finite
    source: list[str]
    iteration: list[int]

    def __len__(self) -> int:
        return len(self.source)


# Keys in the order a line is checked; the first missing one is named.
_KEYS = ("values", "eval_index", "genotype", "source", "iteration")
_fields = itemgetter(*_KEYS)


def _check(column, rule, message: str) -> None:
    """If ``column`` breaks ``rule``, a test of a whole column, raise
    ``ValueError(message.format(x))`` for its first item ``x`` that breaks ``rule`` alone."""
    if not rule(column):
        raise ValueError(message.format(next(x for x in column if not rule([x]))))


def _columns(rows: list[tuple]) -> MeasurementColumns:
    """Check and convert ``rows``, one line's ``_KEYS`` fields each, a column at a time.

    The one statement of the line schema, its rules in line order: ``values``
    is a non-empty list of numbers, in float range, finite; the other fields
    have their exact JSON types (``True`` is not an int); the genotype text
    parses. All rows must share a genotype length and an objective count. A
    broken rule raises ``ValueError`` with a bad line's message, naming the
    first value that breaks it.
    """
    values, eval_index, genotype, source, iteration = list(zip(*rows)) or [()] * len(_KEYS)
    _check(values, lambda c: set(map(type, c)) <= {list} and all(c)
           and set(map(type, chain.from_iterable(c))) <= {int, float},
           "values must be a non-empty list of numbers, got {!r}")
    m = len(values[0]) if values else 0
    if len(set(map(len, values))) > 1:
        raise ValueError("objective counts differ between lines")
    try:
        V = np.fromiter(chain.from_iterable(values), float, len(values) * m).reshape(len(values), m)
    except OverflowError as exc:
        raise ValueError(f"objective value: {exc}") from exc
    finite = np.isfinite(V).all(axis=1)
    if not finite.all():
        raise ValueError(f"non-finite objective values: {tuple(V[finite.argmin()].tolist())}")
    for key, column, kind, what in (
        ("eval_index", eval_index, int, "an int"), ("genotype", genotype, str, "a string"),
        ("source", source, str, "a string"), ("iteration", iteration, int, "an int"),
    ):
        _check(column, lambda c: set(map(type, c)) <= {kind}, f"{key} must be {what}, got {{!r}}")
    return MeasurementColumns(
        list(eval_index), parse_genotypes(genotype), V, list(source), list(iteration)
    )


def _name_first_bad_row(path: str | Path, rows: list[tuple], lines: list[int]) -> None:
    """Raise ``ValueError`` naming the line of the first of ``rows`` that :func:`_columns`
    refuses alone or whose genotype length or objective count differs from row 0's."""
    shape = None
    for ln, row in zip(lines, rows):
        try:
            n, m = _columns([row]).genotypes.shape[1], len(row[0])
            shape = shape or (n, m)
            if n != shape[0]:
                raise ValueError(f"genotype length {n} != {shape[0]} of the first line")
            if m != shape[1]:
                raise ValueError(f"{m} objective values != {shape[1]} of the first line")
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc


def read_measurement_columns(path: str | Path) -> MeasurementColumns:
    """Load a file written by :meth:`EvaluationStore.to_jsonl` as columns.

    Every non-blank line must be a UTF-8 JSON object whose ``_KEYS`` fields
    :func:`_columns` accepts: int ``eval_index`` and ``iteration``, a string
    ``source``, a ``genotype`` string of ASCII decimal indices joined by
    dashes, and ``values``, a non-empty list of finite numbers, with the
    first line's genotype length and objective count. Other keys are
    ignored. The file is read once, and a line must hold one whole JSON value.

    Raises:
        ValueError: ``path:line: ...`` naming the first line that is not
            UTF-8, is not a JSON object with every key, or breaks the schema.
    """
    rows, lines = [], []
    scan = json.JSONDecoder().scan_once
    with open(path, "rb") as fh:
        for ln, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if line:
                    try:
                        obj, end = scan(line, 0)
                    except StopIteration:
                        end = -1
                    if end != len(line):  # raises: strip() left no whitespace for it to skip
                        obj = json.loads(line)
                    if type(obj) is not dict:
                        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                    rows.append(_fields(obj))
                    lines.append(ln)
            except (KeyError, ValueError) as exc:
                _name_first_bad_row(path, rows, lines)
                why = f"missing key {exc}" if type(exc) is KeyError else exc
                raise ValueError(f"{path}:{ln}: {why}") from exc
    try:
        return _columns(rows)
    except ValueError:
        _name_first_bad_row(path, rows, lines)
        raise


def read_measurements_jsonl(path: str | Path) -> list[Measurement]:
    """:func:`read_measurement_columns` as one :class:`Measurement` per line."""
    c = read_measurement_columns(path)
    return list(map(Measurement, c.eval_index, map(tuple, c.genotypes.tolist()),
                    map(tuple, c.values.tolist()), c.source, c.iteration))


def normalize_latency(values) -> np.ndarray:
    """Scale latencies to ``(l - l_min) / l_max``, the min and max of ``values``.

    Raises:
        DegenerateScaleError: if ``l_max`` is 0.
        ValueError: on empty input.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot infer latency bounds from empty input")
    lo = float(np.min(arr))
    hi = float(np.max(arr))
    if hi == 0.0:
        raise DegenerateScaleError("latency scale l_max is 0")
    return (arr - lo) / hi


def _logistic(q: np.ndarray) -> np.ndarray:
    # Split by sign to stay overflow-free for large |q|.
    out = np.empty_like(q)
    pos = q >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-q[pos]))
    eq = np.exp(q[~pos])
    out[~pos] = eq / (1.0 + eq)
    return out


_NOISE_TAG = b"synthetic-accuracy-noise"


@dataclass(frozen=True, eq=False)
class SyntheticLandscape:
    """Deterministic two-objective surrogate over a search space.

    A quality score, linear in unit coordinates plus a sparse pairwise term,
    is squashed through a logistic into the accuracy range. Latency is a
    non-negative weighted average of the same coordinates scaled into the
    latency range. The coupling ``rho`` ties quality weights to cost weights:
    +1 makes every costly choice helpful (maximal conflict between the
    objectives), 0 decouples them, -1 opposes them.

    Coefficients are fully determined by ``(space, seed, rho)``; accuracy
    noise is drawn per canonical genotype from ``(seed, genotype)``, and the
    linear terms are row-wise sums, so a configuration's values agree bit for
    bit across repeated evaluations and whatever batch it is measured in.
    """

    space: SearchSpace
    seed: int
    rho: float
    noise_sd: float
    quality_weights: np.ndarray
    cost_weights: np.ndarray
    pair_indices: tuple[tuple[int, int], ...]
    pair_weights: np.ndarray
    bias: float
    accuracy_range: tuple[float, float] = (70.0, 80.0)
    latency_range: tuple[float, float] = (5.0, 60.0)

    PAIR_WEIGHT_SD = 0.1

    def __post_init__(self) -> None:
        n = self.space.n_variables
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.quality_weights.shape != (n,) or self.cost_weights.shape != (n,):
            raise ValueError("weight vectors must have one entry per variable")
        if np.any(self.cost_weights < 0):
            raise ValueError("cost weights must be non-negative")
        if len(self.pair_indices) != len(self.pair_weights):
            raise ValueError("pair index and weight counts differ")
        for i, j in self.pair_indices:
            if not (0 <= i < j < n):
                raise ValueError(f"bad pair ({i}, {j})")
        for lo, hi in (self.accuracy_range, self.latency_range):
            if not lo < hi:
                raise ValueError(f"range ({lo}, {hi}) is not increasing")

    @classmethod
    def from_seed(
        cls,
        space: SearchSpace,
        seed: int = 0,
        rho: float = 0.8,
        noise_sd: float = 0.0,
        accuracy_range: tuple[float, float] = (70.0, 80.0),
        latency_range: tuple[float, float] = (5.0, 60.0),
    ) -> "SyntheticLandscape":
        """Derive all coefficients from the seed.

        Cost weights are folded normals; quality weights couple to them with
        strength ``rho`` plus an independent normal component, then shrink by
        ``1 / sqrt(n)`` so the quality score's spread is roughly space-size
        independent and the logistic is exercised without saturating. The
        pairwise term touches ``ceil(n/2)`` distinct variable pairs with
        weights an order of magnitude below the linear ones, a perturbation
        rather than the signal.
        """
        if seed < 0:
            raise ValueError("seed must be non-negative")
        n = space.n_variables
        rng = np.random.default_rng(np.random.SeedSequence([0x5C0FE, seed]))
        c_raw = rng.standard_normal(n)
        z = rng.standard_normal(n)
        cost = np.abs(c_raw)
        scale = 1.0 / math.sqrt(n)
        quality = (rho * cost + math.sqrt(1.0 - rho * rho) * z) * scale
        iu, ju = np.triu_indices(n, k=1)
        n_pairs = min(math.ceil(n / 2), iu.size)
        if n_pairs:
            chosen = rng.choice(iu.size, size=n_pairs, replace=False)
            chosen.sort()
            pair_indices = tuple((int(iu[k]), int(ju[k])) for k in chosen)
            pair_weights = rng.normal(0.0, cls.PAIR_WEIGHT_SD * scale, n_pairs)
        else:
            pair_indices = ()
            pair_weights = np.empty(0)
        # Center the quality score at the mid-utility configuration
        # (E[u] = 1/2, E[uu] = 1/4) so the logistic is exercised on both
        # shoulders instead of saturating when coupled weights share a sign.
        bias = float(
            rng.normal(0.0, 1.0)
            - 0.5 * float(np.sum(quality))
            - 0.25 * float(np.sum(pair_weights))
        )
        return cls(
            space=space,
            seed=seed,
            rho=rho,
            noise_sd=noise_sd,
            quality_weights=quality,
            cost_weights=cost,
            pair_indices=pair_indices,
            pair_weights=pair_weights,
            bias=bias,
            accuracy_range=accuracy_range,
            latency_range=latency_range,
        )

    @cached_property
    def _pair_cols(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.pair_indices:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        arr = np.asarray(self.pair_indices, dtype=np.int64)
        return arr[:, 0], arr[:, 1]

    def _quality_batch(self, U: np.ndarray) -> np.ndarray:
        """Pre-squash quality of unit-coordinate rows: bias + linear + pairwise terms."""
        # Row-wise sums, not BLAS mat-vecs, keep each row's value independent
        # of the batch it sits in.
        q = (U * self.quality_weights).sum(axis=1) + self.bias
        pi, pj = self._pair_cols
        if pi.size:
            q = q + (U[:, pi] * U[:, pj] * self.pair_weights).sum(axis=1)
        return q

    def _noise(self, genotype: Genotype) -> float:
        h = hashlib.blake2b(digest_size=16)
        h.update(_NOISE_TAG)
        h.update(self.seed.to_bytes(8, "little", signed=False))
        h.update(np.asarray(genotype, dtype="<i8").tobytes())
        rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
        return float(rng.normal(0.0, self.noise_sd))

    def _accuracy_batch(self, U: np.ndarray) -> np.ndarray:
        lo, hi = self.accuracy_range
        return lo + (hi - lo) * _logistic(self._quality_batch(U))

    def _latency_batch(self, U: np.ndarray) -> np.ndarray:
        lo, hi = self.latency_range
        total = float(np.sum(self.cost_weights))
        frac = (U * self.cost_weights).sum(axis=1) / total if total > 0 else np.zeros(len(U))
        return lo + (hi - lo) * np.clip(frac, 0.0, 1.0)

    def evaluate_batch(self, genotypes) -> np.ndarray:
        """Raw ``(accuracy, latency)`` rows for many genotypes as a ``(B, 2)`` array.

        Raises:
            MalformedGenotypeError: a row of the wrong length or an index
                outside its variable's options.
        """
        canon = self.space.canonicalize_batch(self.space.validate_batch(genotypes))
        U = canon / self.space.unit_denominators
        acc = self._accuracy_batch(U)
        if self.noise_sd > 0:
            acc = acc + np.array([self._noise(tuple(g)) for g in canon])
        return np.column_stack([acc, self._latency_batch(U)])


def _genotype_table(path, space: SearchSpace, where, values) -> dict[Genotype, tuple[float, ...]]:
    """Canonical genotype -> values of parsed ``(line, genotype text)`` rows; a
    ValueError names the first line whose genotype is bad or a canonical repeat."""
    try:
        G = space.validate_batch(parse_genotypes(text for _, text in where))
    except ValueError:
        for i, (ln, text) in enumerate(where):  # name the first bad line
            try:
                space.validate_batch(parse_genotypes([text]))
            except ValueError as exc:
                _genotype_table(path, space, where[:i], values)  # an earlier duplicate first
                raise ValueError(f"{path}:{ln}: {exc}") from exc
        raise
    table: dict[Genotype, tuple[float, ...]] = {}
    keys = map(tuple, space.canonicalize_batch(G).tolist())
    for (ln, text), g, vals in zip(where, keys, values):
        if g in table:
            raise ValueError(f"{path}:{ln}: duplicate canonical genotype {text}")
        table[g] = vals
    return table


class TabularEvaluator:
    """Looks up objective vectors for canonical genotypes in a fixed table.

    Misses either raise (policy ``error``) or come back as an all-NaN row
    (policy ``nearest-reject``), which searches skip; values are never
    substituted from neighbouring rows.
    """

    POLICIES = ("error", "nearest-reject")

    def __init__(
        self,
        space: SearchSpace,
        table: Mapping[Genotype, Sequence[float]],
        n_objectives: int,
        missing_policy: str = "error",
    ):
        if missing_policy not in self.POLICIES:
            raise ValueError(f"missing_policy must be one of {self.POLICIES}")
        if n_objectives < 1:
            raise ValueError("need at least one objective column")
        self.space = space
        self.missing_policy = missing_policy
        self.n_objectives = n_objectives
        keys = space.canonicalize_batch(space.validate_batch(list(table)))
        self._table: dict[Genotype, tuple[float, ...]] = {}
        for g, raw_v in zip(map(tuple, keys.tolist()), table.values()):
            vals = tuple(float(v) for v in raw_v)
            if len(vals) != n_objectives:
                raise ValueError(
                    f"row {format_genotype(g)}: expected {n_objectives} values, got {len(vals)}"
                )
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"row {format_genotype(g)}: non-finite values {vals}")
            if g in self._table and self._table[g] != vals:
                raise ValueError(
                    f"rows collide on canonical genotype {format_genotype(g)} with different values"
                )
            self._table[g] = vals

    def __len__(self) -> int:
        return len(self._table)

    @classmethod
    def from_csv(
        cls, path: str | Path, space: SearchSpace, missing_policy: str = "error"
    ) -> "TabularEvaluator":
        """Load ``genotype,obj_1,...,obj_m`` rows; genotypes are dash-separated indices."""
        with open(path, "rb") as fh:
            reader = csv.reader(line.decode("utf-8") for line in fh)
            where, values = [], []
            try:
                header = next(reader, None)
                if not header or header[0] != "genotype" or len(header) < 2:
                    raise ValueError(f"{path}: header must be genotype,obj_1,...,obj_m")
                m = len(header) - 1
                for ln, row in enumerate(reader, start=2):
                    if not row:
                        continue
                    if len(row) != m + 1:
                        raise ValueError(f"{path}:{ln}: expected {m + 1} cells, got {len(row)}")
                    try:
                        vals = tuple(float(v) for v in row[1:])
                    except ValueError as exc:
                        raise ValueError(f"{path}:{ln}: {exc}") from exc
                    if not all(map(math.isfinite, vals)):
                        raise ValueError(f"{path}:{ln}: non-finite values {vals}")
                    values.append(vals)
                    where.append((ln, row[0]))
            except ValueError as exc:
                _genotype_table(path, space, where, values)  # an earlier line's fault comes first
                if isinstance(exc, UnicodeDecodeError):  # raised by the line read next
                    raise ValueError(f"{path}:{reader.line_num + 1}: {exc}") from exc
                raise
        table = _genotype_table(path, space, where, values)
        return cls(space, table, m, missing_policy)

    def evaluate_batch(self, genotypes) -> np.ndarray:
        """Table rows as a ``(B, m)`` array; a rejected miss is an all-NaN row."""
        G = self.space.canonicalize_batch(self.space.validate_batch(genotypes))
        out = np.full((len(G), self.n_objectives), np.nan)
        for i, g in enumerate(map(tuple, G.tolist())):
            hit = self._table.get(g)
            if hit is not None:
                out[i] = hit
            elif self.missing_policy == "error":
                raise UnknownConfigurationError(
                    f"no table row for genotype {format_genotype(g)}"
                )
        return out

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["genotype"] + [f"obj_{k + 1}" for k in range(self.n_objectives)])
            keys = sorted(self._table)
            for g, text in zip(keys, format_genotypes(keys)):
                writer.writerow([text] + [repr(v) for v in self._table[g]])
