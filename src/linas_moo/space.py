"""Integer-encoded architecture search spaces with dependency masking.

A space is an ordered list of design variables, each with a finite ordered
list of integer option values, plus optional dependency rules. A rule names
one controller variable and says, for every controller option, which
dependent variables are active. Inactive positions are forced to index 0 so
every configuration has exactly one canonical genotype.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

Genotype = tuple[int, ...]


class SpaceValidationError(ValueError):
    """Raised when a space definition violates a structural constraint."""


class MalformedGenotypeError(ValueError):
    """Raised when a genotype does not fit the space it is used with."""


_DASH, _NEWLINE, _ZERO = b"-\n0"
_MAX_DIGITS = 18  # every 18-digit index fits int64
_CHUNK_ROWS = 256  # rows coded at once, which bounds the codec's temporaries


def _format_rows(G: np.ndarray) -> list[str]:
    """:func:`format_genotypes` of one chunk of a non-negative int64 array."""
    n, G = G.shape[1], G.ravel()
    width = np.ones(G.shape, dtype=np.uint8)  # decimal digits per index
    for k in range(1, len(str(G.max()))):
        width += G >= 10**k
    # Every index is followed by one separator: a dash, or a newline after a row's last.
    seps = np.cumsum(width + 1, dtype=np.int64) - 1
    buf = np.full(seps[-1] + 1, _DASH, dtype=np.uint8)
    buf[seps[n - 1 :: n]] = _NEWLINE
    for k in range(int(width.max())):  # k-th digit from the right
        on = np.flatnonzero(width > k) if k else slice(None)
        buf[seps[on] - 1 - k] = _ZERO + G[on] // 10**k % 10
    return buf.tobytes().decode("ascii").split("\n")[:-1]


def format_genotypes(genotypes) -> list[str]:
    """Render each row of a ``(B, n)`` array of non-negative indices as
    dash-separated option indices, e.g. ``0-2-1``, a chunk of rows at a time."""
    G = np.asarray(genotypes, dtype=np.int64)
    if G.size == 0:
        return [""] * len(G)
    if G.min() < 0:
        raise MalformedGenotypeError(f"index {G.min()} is negative")
    out: list[str] = []
    for lo in range(0, len(G), _CHUNK_ROWS):
        out += _format_rows(G[lo : lo + _CHUNK_ROWS])
    return out


def _parse_rows(texts: list[str]) -> np.ndarray | None:
    """:func:`parse_genotypes` of one chunk of well-formed texts; ``None`` if any is not."""
    buf = "\n".join(texts) + "\n"
    if not buf.isascii():
        return None
    buf = np.frombuffer(buf.encode("ascii"), dtype=np.uint8)
    stops = np.flatnonzero(buf - _ZERO >= 10)  # one past each index; bytes below '0' wrap
    row_end = buf[stops] == _NEWLINE
    n = len(stops) // len(texts)
    starts = np.concatenate(([0], stops[:-1] + 1))
    width = stops - starts
    if not (
        len(stops) == n * len(texts)
        and np.count_nonzero(row_end) == len(texts)
        and row_end[n - 1 :: n].all()
        and (row_end | (buf[stops] == _DASH)).all()
        and 1 <= width.min() <= width.max() <= _MAX_DIGITS
    ):
        return None
    G = (buf[starts] - _ZERO).astype(np.int64)
    for k in range(1, int(width.max())):  # Horner, left to right over digit columns
        on = np.flatnonzero(width > k)
        G[on] = G[on] * 10 + (buf[starts[on] + k] - _ZERO)
    return G.reshape(len(texts), n)


def parse_genotypes(texts) -> np.ndarray:
    """Inverse of :func:`format_genotypes`: a ``(B, n)`` int64 array.

    Each text must be ``n`` runs of at most 18 ASCII decimal digits joined by
    single dashes, as the formatter writes them. Signs, spaces, underscores
    and other scripts' digits are refused.

    Raises:
        MalformedGenotypeError: naming the first bad text, and its row if
            ``B > 1``.
    """
    texts = list(texts)
    G = np.empty((0, 0), dtype=np.int64)
    for lo in range(0, len(texts), _CHUNK_ROWS):
        part = _parse_rows(texts[lo : lo + _CHUNK_ROWS])
        if part is None or (lo and part.shape[1] != G.shape[1]):
            raise _first_bad_row(texts)
        if not lo:
            G = np.empty((len(texts), part.shape[1]), dtype=np.int64)
        G[lo : lo + len(part)] = part
    return G


def _first_bad_row(texts: list[str]) -> MalformedGenotypeError:
    """The error :func:`parse_genotypes` raises: texts are parsed one at a
    time until one is malformed or its length differs from row 0's."""
    where = "row {}: " if len(texts) > 1 else ""
    n = None
    for r, text in enumerate(texts):
        g = _parse_rows([text])
        if g is None:
            return MalformedGenotypeError(
                f"{where.format(r)}unparseable genotype string: {text!r}"
            )
        n = n or g.shape[1]
        if g.shape[1] != n:
            return MalformedGenotypeError(
                f"{where.format(r)}genotype length {g.shape[1]} != {n} of row 0"
            )
    raise AssertionError("unreachable: every text parses alone at one length")


def uniform_bound(bounds: np.ndarray):
    """``bounds[0]`` when every entry of a non-empty int array is equal, else ``bounds``.

    ``Generator.integers`` draws the same values, and leaves the generator in
    the same state, for a uniform array bound and for its scalar; the scalar
    form is several times faster.
    """
    return bounds[0] if (bounds == bounds[0]).all() else bounds


def format_genotype(genotype: Genotype) -> str:
    """One-row view of :func:`format_genotypes`."""
    return format_genotypes([genotype])[0]


@dataclass(frozen=True)
class DesignVariable:
    """One categorical design decision.

    Attributes:
        name: Unique identifier within the space.
        options: Ordered, distinct integer values the variable may take.
        group: Free-form label used to organise related variables.
    """

    name: str
    options: tuple[int, ...]
    group: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceValidationError("variable name must be non-empty")
        if len(self.options) == 0:
            raise SpaceValidationError(f"variable {self.name!r} has no options")
        if len(set(self.options)) != len(self.options):
            raise SpaceValidationError(f"variable {self.name!r} has duplicate options")


@dataclass(frozen=True)
class DependencyRule:
    """Activation of dependent variables by one controller variable.

    ``activation[k]`` lists the dependent variable indices that are active
    when the controller sits at option index ``k``. Every controller option
    must have an entry, so ``len(activation)`` equals the controller's option
    count.
    """

    controller: int
    activation: tuple[tuple[int, ...], ...]

    @classmethod
    def from_mapping(cls, controller: int, mapping: Mapping[int, Iterable[int]]) -> "DependencyRule":
        """Build a rule from ``{option_index: dependent_indices}``."""
        keys = sorted(mapping)
        if keys != list(range(len(keys))):
            raise SpaceValidationError(
                f"rule for controller {controller} must cover option indices 0..k-1, got {keys}"
            )
        activation = tuple(tuple(sorted(set(mapping[k]))) for k in keys)
        return cls(controller=controller, activation=activation)

    @property
    def dependents(self) -> frozenset[int]:
        return frozenset(i for entry in self.activation for i in entry)


@dataclass(frozen=True)
class SearchSpace:
    """An integer-genotype search space with single-level dependency rules.

    Attributes:
        name: Space identifier, used in exports and CLI output.
        variables: Ordered design variables; genotype position i indexes
            ``variables[i].options``.
        rules: Dependency rules. Controllers are distinct, no controller is
            a dependent, and every variable is a dependent of at most one
            rule, so masking resolves in a single pass.
    """

    name: str
    variables: tuple[DesignVariable, ...]
    rules: tuple[DependencyRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise SpaceValidationError("space name must be non-empty")
        if len(self.variables) == 0:
            raise SpaceValidationError("space must declare at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SpaceValidationError("variable names must be unique")

        n = len(self.variables)
        controllers: set[int] = set()
        dependents: set[int] = set()
        for rule in self.rules:
            c = rule.controller
            if not 0 <= c < n:
                raise SpaceValidationError(f"rule controller index {c} out of range")
            if c in controllers:
                raise SpaceValidationError(f"variable {c} controls more than one rule")
            if len(rule.activation) != len(self.variables[c].options):
                raise SpaceValidationError(
                    f"rule for controller {c} must map all {len(self.variables[c].options)} options"
                )
            for entry in rule.activation:
                for d in entry:
                    if not 0 <= d < n:
                        raise SpaceValidationError(f"rule dependent index {d} out of range")
                    if d == c:
                        raise SpaceValidationError(f"variable {c} cannot depend on itself")
            for d in rule.dependents:
                if d in dependents:
                    raise SpaceValidationError(f"variable {d} is a dependent of two rules")
                dependents.add(d)
            controllers.add(c)
        overlap = controllers & dependents
        if overlap:
            raise SpaceValidationError(f"variables {sorted(overlap)} are both controller and dependent")

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @cached_property
    def _ruled(self) -> frozenset[int]:
        """Indices governed by some rule (its controller plus dependents)."""
        out: set[int] = set()
        for rule in self.rules:
            out.add(rule.controller)
            out |= rule.dependents
        return frozenset(out)

    @cached_property
    def option_counts(self) -> np.ndarray:
        """Per-variable option counts as an int64 array."""
        return np.array([len(v.options) for v in self.variables], dtype=np.int64)

    @cached_property
    def index_dtype(self) -> np.dtype:
        """The narrowest unsigned dtype that holds every option index (``uint8`` on the built-ins).

        A cast to it is exact only for validated rows: an index outside the
        options may wrap onto another index.
        """
        return np.min_scalar_type(int(self.option_counts.max()) - 1)

    def row_keys(self, genotypes: np.ndarray) -> list[bytes]:
        """One hashable key per row of a ``(B, n)`` index array: the row's bytes
        as :attr:`index_dtype`, ``n * itemsize`` long; equal rows, equal keys.

        Only for validated rows: a narrowing cast would give a row with an
        index outside its options the key of another row.
        """
        G = np.ascontiguousarray(genotypes, dtype=self.index_dtype)
        return G.view(np.dtype((np.void, G.shape[1] * G.itemsize))).ravel().tolist()

    @cached_property
    def _rule_tables(self) -> tuple[tuple[int, np.ndarray], ...]:
        """Per rule: (controller index, bool table[option, variable] of activity)."""
        tables = []
        for rule in self.rules:
            tab = np.ones((len(rule.activation), self.n_variables), dtype=bool)
            for opt, entry in enumerate(rule.activation):
                active = set(entry)
                for d in rule.dependents:
                    tab[opt, d] = d in active
            tables.append((rule.controller, tab))
        return tuple(tables)

    def validate_batch(self, genotypes) -> np.ndarray:
        """Check a ``(B, n)`` batch of genotypes once; return it as int64.

        Raises:
            MalformedGenotypeError: on a row of the wrong length, then an entry
                that is not an int, then an index outside its variable's
                options, naming the first bad row (if ``B > 1``), position and variable.
        """
        B, n, counts = len(genotypes), self.n_variables, self.option_counts
        try:
            G = np.asarray(genotypes)
        except ValueError:  # ragged rows
            G = None
        if G is None or G.shape != (B, n) or not np.issubdtype(G.dtype, np.integer):
            # Unusual input: check row by row, without numpy's coercions.
            for r, row in enumerate(genotypes):
                if len(row) != n:
                    what = f"genotype length {len(row)} != {n} variables"
                    raise self._malformed(r, min(len(row), n), B, what)
                for i, idx in enumerate(row):
                    if not isinstance(idx, (int, np.integer)):
                        raise self._malformed(r, i, B, f"index {idx!r} is not an int")
            G = np.array([tuple(row) for row in genotypes], dtype=object).reshape(B, n)
        bad = (G < 0) | (G >= counts)
        if bad.any():
            r, i = np.argwhere(bad)[0]
            raise self._malformed(r, i, B, f"index {G[r, i]} outside 0..{counts[i] - 1}")
        return G.astype(np.int64, copy=False)

    def _malformed(self, row: int, position: int, batch: int, what: str) -> MalformedGenotypeError:
        name = self.variables[position].name if position < self.n_variables else "past the end"
        where = f"row {row}, position {position}" if batch > 1 else f"position {position}"
        return MalformedGenotypeError(f"{where} ({name}): {what}")

    def is_canonical(self, genotype: Genotype) -> bool:
        """Whether one genotype equals its canonical form.

        Raises:
            MalformedGenotypeError: on a malformed row, as :meth:`validate_batch`.
        """
        return not self.noncanonical_rows(self.validate_batch([genotype])).any()

    def sample_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``(count, n)`` canonical genotypes, each variable index drawn uniformly.

        The distribution is uniform over the raw index grid; each row is the
        canonical representative of its draw. One array-bounded ``integers``
        call yields the same values, and leaves ``rng`` in the same state, as
        one scalar call per variable, row by row; with equal option counts it
        takes the scalar bound (:func:`uniform_bound`), which draws the same.
        """
        raw = rng.integers(0, uniform_bound(self.option_counts), size=(count, self.n_variables))
        return self.canonicalize_batch(raw)

    def active_mask_batch(self, genotypes: np.ndarray) -> np.ndarray:
        """Per-variable activity of a ``(B, n)`` int array under its controller choices.

        Index validity is the caller's responsibility on this hot path.
        """
        G = np.asarray(genotypes, dtype=np.int64)
        mask = np.ones(G.shape, dtype=bool)
        for controller, tab in self._rule_tables:
            mask &= tab[G[:, controller]]
        return mask

    def noncanonical_rows(self, genotypes: np.ndarray) -> np.ndarray:
        """Which rows of a ``(B, n)`` int array hold a nonzero index at an inactive
        position, so differ from their canonical form; no canonical copy is made."""
        G = np.asarray(genotypes, dtype=np.int64)
        return ((G != 0) & ~self.active_mask_batch(G)).any(axis=1)

    def canonicalize_batch(self, genotypes: np.ndarray) -> np.ndarray:
        """Canonical representatives of a ``(B, n)`` int array: inactive entries set to 0.

        Controllers are never dependents, so one masking pass is exact.
        """
        G = np.asarray(genotypes, dtype=np.int64)
        return np.where(self.active_mask_batch(G), G, 0)

    @cached_property
    def unit_denominators(self) -> np.ndarray:
        """``max(k_i - 1, 1)`` per variable, float: canonical ``G / this`` is unit coordinates."""
        return np.maximum(self.option_counts - 1, 1).astype(np.float64)

    def cardinality(self) -> int:
        """Exact count of distinct configurations (exact integer arithmetic).

        Variables untouched by rules contribute their option counts as
        independent factors. Each rule contributes one block factor: the sum
        over controller options of the product of active dependents' option
        counts.
        """
        total = 1
        for i, var in enumerate(self.variables):
            if i not in self._ruled:
                total *= len(var.options)
        for rule in self.rules:
            block = 0
            for entry in rule.activation:
                combos = 1
                for d in entry:
                    combos *= len(self.variables[d].options)
                block += combos
            total *= block
        return total

    def cardinality_magnitude(self) -> int:
        """Nearest order of magnitude, ``round(log10(cardinality))``."""
        card = self.cardinality()
        # math.log10 on huge ints loses no precision that matters at this rounding.
        return round(math.log10(card)) if card > 1 else 0

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "variables": [
                {"name": v.name, "options": list(v.options), "group": v.group}
                for v in self.variables
            ],
            "rules": [
                {
                    "controller": r.controller,
                    "activation": {str(k): list(entry) for k, entry in enumerate(r.activation)},
                }
                for r in self.rules
            ],
        }

    def to_json(self) -> str:
        """Byte-deterministic JSON export (sorted keys, 2-space indent)."""
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "SearchSpace":
        try:
            variables = tuple(
                DesignVariable(
                    name=v["name"],
                    options=tuple(int(o) for o in v["options"]),
                    group=v.get("group", ""),
                )
                for v in obj["variables"]
            )
            rules = tuple(
                DependencyRule.from_mapping(
                    int(r["controller"]),
                    {int(k): [int(d) for d in deps] for k, deps in r["activation"].items()},
                )
                for r in obj.get("rules", [])
            )
            return cls(name=obj["name"], variables=variables, rules=rules)
        except (KeyError, TypeError) as exc:
            raise SpaceValidationError(f"malformed space definition: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        return cls.from_json_obj(json.loads(text))


def _per_layer(prefix: str, count: int, options: tuple[int, ...], group: str) -> list[DesignVariable]:
    return [DesignVariable(f"{prefix}{i + 1}", options, group) for i in range(count)]


def mobilenetv3_space() -> SearchSpace:
    """Inverted-residual CNN space: 5 blocks, each with an elastic depth in
    {2,3,4} gating 4 per-layer kernel-size slots {3,5,7} and 4 per-layer
    expansion-ratio slots {3,4,6}. 45 variables."""
    variables: list[DesignVariable] = []
    rules: list[DependencyRule] = []
    for b in range(5):
        base = len(variables)
        group = f"block{b + 1}"
        variables.append(DesignVariable(f"{group}_depth", (2, 3, 4), group))
        variables.extend(_per_layer(f"{group}_kernel", 4, (3, 5, 7), group))
        variables.extend(_per_layer(f"{group}_expand", 4, (3, 4, 6), group))
        kernels = list(range(base + 1, base + 5))
        expands = list(range(base + 5, base + 9))
        activation = {
            d_idx: kernels[: d_val] + expands[: d_val]
            for d_idx, d_val in enumerate((2, 3, 4))
        }
        rules.append(DependencyRule.from_mapping(base, activation))
    return SearchSpace("mobilenetv3", tuple(variables), tuple(rules))


def resnet50_space() -> SearchSpace:
    """Residual CNN space: 5 per-stage depth offsets {0,1,2}, 25 per-layer
    expansion ratios in permille {200,250,350}, 6 width multipliers in percent
    {65,80,100}. 36 variables, no masking."""
    variables = (
        _per_layer("stage_depth", 5, (0, 1, 2), "depth")
        + _per_layer("expand_pm", 25, (200, 250, 350), "expansion")
        + _per_layer("width_pct", 6, (65, 80, 100), "width")
    )
    return SearchSpace("resnet50", tuple(variables))


def transformer_space() -> SearchSpace:
    """Encoder-decoder transformer space: embedding widths {512,640}, per-layer
    hidden sizes {1024,2048,3072} and head counts {4,8}, encoder fixed at 6
    layers, decoder depth 1..6 gating its per-layer variables, plus a 3-way
    per-layer cross-attention span choice. 40 variables."""
    variables: list[DesignVariable] = [
        DesignVariable("enc_embed", (512, 640), "encoder"),
        DesignVariable("dec_embed", (512, 640), "decoder"),
        DesignVariable("enc_layers", (6,), "encoder"),
    ]
    variables += _per_layer("enc_hidden", 6, (1024, 2048, 3072), "encoder")
    variables += _per_layer("enc_heads", 6, (4, 8), "encoder")
    dec_layers_idx = len(variables)
    variables.append(DesignVariable("dec_layers", (1, 2, 3, 4, 5, 6), "decoder"))
    dec_groups: list[list[int]] = []
    for prefix, options in (
        ("dec_hidden", (1024, 2048, 3072)),
        ("dec_self_heads", (4, 8)),
        ("dec_cross_heads", (4, 8)),
        ("dec_cross_span", (1, 2, 3)),
    ):
        start = len(variables)
        variables += _per_layer(prefix, 6, options, "decoder")
        dec_groups.append(list(range(start, start + 6)))
    activation = {
        d_idx: [slot for grp in dec_groups for slot in grp[: d_idx + 1]]
        for d_idx in range(6)
    }
    rule = DependencyRule.from_mapping(dec_layers_idx, activation)
    return SearchSpace("transformer", tuple(variables), (rule,))


def ncf_space() -> SearchSpace:
    """Collaborative-filtering space: two embedding widths {8..128}, an MLP
    depth 1..6 gating 6 per-layer hidden sizes {8..1024}. 9 variables."""
    embed = (8, 16, 32, 64, 128)
    hidden = (8, 16, 32, 64, 128, 256, 512, 1024)
    variables: list[DesignVariable] = [
        DesignVariable("gmf_embed", embed, "embedding"),
        DesignVariable("mlp_embed", embed, "embedding"),
        DesignVariable("mlp_layers", (1, 2, 3, 4, 5, 6), "mlp"),
    ]
    hidden_idx = len(variables)
    variables += _per_layer("mlp_hidden", 6, hidden, "mlp")
    activation = {
        d_idx: list(range(hidden_idx, hidden_idx + d_idx + 1)) for d_idx in range(6)
    }
    rule = DependencyRule.from_mapping(2, activation)
    return SearchSpace("ncf", tuple(variables), (rule,))


BUILTIN_SPACES = {
    "mobilenetv3": mobilenetv3_space,
    "resnet50": resnet50_space,
    "transformer": transformer_space,
    "ncf": ncf_space,
}


def builtin_space(name: str) -> SearchSpace:
    """Look up a built-in space by name.

    Raises:
        KeyError: if ``name`` is not a built-in space.
    """
    try:
        return BUILTIN_SPACES[name]()
    except KeyError:
        raise KeyError(
            f"unknown space {name!r}; built-ins: {sorted(BUILTIN_SPACES)}"
        ) from None
