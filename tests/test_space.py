"""Search-space invariants, checked against exhaustive and closed-form oracles."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from scipy import stats

from conftest import canonical_oracle, enumerate_canonicals, make_free_space, make_masked_space
from linas_moo.space import (
    BUILTIN_SPACES,
    DependencyRule,
    DesignVariable,
    MalformedGenotypeError,
    SearchSpace,
    SpaceValidationError,
    builtin_space,
    format_genotype,
    format_genotypes,
    parse_genotypes,
)

# Closed forms computed by hand, independent of SearchSpace.cardinality:
# mobilenetv3: per block, sum over depth d in {2,3,4} of (3 kernels * 3 expands)^d,
# five independent blocks.
MOBILENETV3_BLOCK = 9**2 + 9**3 + 9**4
MOBILENETV3_CARDINALITY = MOBILENETV3_BLOCK**5
# ncf: two 5-option embeddings, MLP depth 1..6 over 8-option hidden slots.
NCF_CARDINALITY = 5 * 5 * sum(8**d for d in range(1, 7))
# transformer: fixed 6-layer encoder (2 embed * 3^6 hidden * 2^6 heads), decoder
# embed, decoder depth 1..6 over (3*2*2*3)-option layer bundles.
TRANSFORMER_CARDINALITY = (2 * 3**6 * 2**6) * 2 * sum(36**d for d in range(1, 7))
RESNET50_CARDINALITY = 3**36


class TestConstructionValidation:
    def test_empty_options_rejected(self):
        with pytest.raises(SpaceValidationError):
            DesignVariable("x", ())

    def test_duplicate_options_rejected(self):
        with pytest.raises(SpaceValidationError):
            DesignVariable("x", (3, 3))

    def test_duplicate_names_rejected(self):
        v = DesignVariable("x", (1, 2))
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", (v, DesignVariable("x", (4, 5))))

    def test_rule_must_cover_every_option(self):
        vs = (DesignVariable("d", (1, 2, 3)), DesignVariable("s", (0, 1)))
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", vs, (DependencyRule.from_mapping(0, {0: [1], 1: [1]}),))

    def test_self_dependency_rejected(self):
        vs = (DesignVariable("d", (1, 2)),)
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", vs, (DependencyRule.from_mapping(0, {0: [], 1: [0]}),))

    def test_dependent_of_two_rules_rejected(self):
        vs = (
            DesignVariable("c1", (1, 2)),
            DesignVariable("c2", (1, 2)),
            DesignVariable("s", (0, 1)),
        )
        rules = (
            DependencyRule.from_mapping(0, {0: [], 1: [2]}),
            DependencyRule.from_mapping(1, {0: [], 1: [2]}),
        )
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", vs, rules)

    def test_controller_cannot_be_dependent(self):
        vs = (
            DesignVariable("c1", (1, 2)),
            DesignVariable("c2", (1, 2)),
            DesignVariable("s", (0, 1)),
        )
        rules = (
            DependencyRule.from_mapping(0, {0: [], 1: [1]}),
            DependencyRule.from_mapping(1, {0: [], 1: [2]}),
        )
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", vs, rules)

    def test_dependent_index_out_of_range(self):
        vs = (DesignVariable("d", (1, 2)), DesignVariable("s", (0, 1)))
        with pytest.raises(SpaceValidationError):
            SearchSpace("s", vs, (DependencyRule.from_mapping(0, {0: [], 1: [5]}),))


class TestGenotypeChecks:
    def test_wrong_length_rejected(self, free_space):
        message = "position 2 (c): genotype length 2 != 3 variables"
        with pytest.raises(MalformedGenotypeError, match=f"^{re.escape(message)}$"):
            free_space.validate_batch([(0, 0)])

    def test_out_of_range_index_rejected(self, free_space):
        message = "position 1 (b): index 3 outside 0..2"
        with pytest.raises(MalformedGenotypeError, match=f"^{re.escape(message)}$"):
            free_space.validate_batch([(0, 3, 0)])

    def test_non_integer_rejected(self, free_space):
        message = "position 0 (a): index 0.5 is not an int"
        with pytest.raises(MalformedGenotypeError, match=f"^{re.escape(message)}$"):
            free_space.validate_batch([(0.5, 0, 0)])

    @pytest.mark.parametrize(
        "batch, message",
        [
            ([(0, 0)], "position 2 (c): genotype length 2 != 3 variables"),
            ([(0, 0, 0), (0, 0)], "row 1, position 2 (c): genotype length 2 != 3 variables"),
            ([(0, 0.5, 0)], "position 1 (b): index 0.5 is not an int"),
            ([(0, 0, 0), (3, 2, 1), (0, 3, 0)], "row 2, position 1 (b): index 3 outside 0..2"),
        ],
        ids=["wrong-length", "ragged", "half", "out-of-range-row-2"],
    )
    def test_validate_batch_names_first_bad_position(self, free_space, batch, message):
        with pytest.raises(MalformedGenotypeError, match=re.escape(message)):
            free_space.validate_batch(batch)

    def test_validate_batch_returns_int64_rows(self, free_space):
        G = free_space.validate_batch([(0, 0, 0), (3, 2, 1)])
        assert G.dtype == np.int64 and G.tolist() == [[0, 0, 0], [3, 2, 1]]
        assert free_space.validate_batch([]).shape == (0, 3)

    def test_row_keys_are_exact_past_one_byte(self):
        # 300 options need uint16: 299 and 43 share their low byte.
        space = SearchSpace(
            "wide", (DesignVariable("w", tuple(range(300))), DesignVariable("b", (0, 1)))
        )
        assert space.index_dtype == np.uint16
        G = np.array([[299, 1], [43, 1], [299, 1], [256, 0], [0, 0]])
        keys = space.row_keys(G)
        assert all(len(k) == space.n_variables * 2 for k in keys)
        assert keys[0] == keys[2]
        assert len(set(keys)) == 4
        assert space.row_keys(G[:0]) == []
        assert builtin_space("mobilenetv3").index_dtype == np.uint8

    def test_format_parse_roundtrip(self):
        assert format_genotype((0, 2, 1)) == "0-2-1"
        assert parse_genotypes(["0-2-1"]).tolist() == [[0, 2, 1]]
        with pytest.raises(MalformedGenotypeError):
            parse_genotypes(["0-x-1"])


class TestGenotypeCodec:
    """The batch genotype text codec against per-row ``str``/``int`` references."""

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 700])
    def test_batch_matches_per_row_reference(self, rows):
        rng = np.random.default_rng(rows)
        G = rng.integers(0, 10 ** rng.integers(1, 13, size=(rows, 1)), size=(rows, 7))
        G[rng.random(G.shape) < 0.3] = 0
        G[0, 0] = 10**12
        texts = format_genotypes(G)
        assert texts == ["-".join(map(str, row)) for row in G.tolist()]
        assert parse_genotypes(texts).tolist() == [[int(t) for t in x.split("-")] for x in texts]
        assert parse_genotypes(texts).dtype == np.int64

    def test_one_row_views(self):
        G = np.array([[0, 12, 3], [4, 0, 999_999_999_999]])
        assert [format_genotype(tuple(g)) for g in G.tolist()] == format_genotypes(G)
        assert format_genotypes(np.empty((0, 3), dtype=np.int64)) == []
        assert parse_genotypes([]).shape == (0, 0)

    @pytest.mark.parametrize(
        "text",
        ["", "-", "1-", "-1", "1--2", "+2-1", "1_0-1", "\u0661-1", " 1-2", "1-2 ", "1\n2",
         "1.0-2", "1-2-", "1234567890123456789-1"],
    )
    def test_only_ascii_digit_runs_parse(self, text):
        message = f"unparseable genotype string: {text!r}"
        with pytest.raises(MalformedGenotypeError, match=f"^{re.escape(message)}$"):
            parse_genotypes([text])
        message = f"row 2: unparseable genotype string: {text!r}"
        with pytest.raises(MalformedGenotypeError, match=re.escape(message)):
            parse_genotypes(["0-1", "2-3", text, "4-5"])

    def test_lengths_must_agree(self):
        texts = ["1-2"] * 300 + ["1-2-3"]  # the odd row sits in the second chunk
        with pytest.raises(MalformedGenotypeError, match="row 300: genotype length 3 != 2 of row"):
            parse_genotypes(texts)

    def test_negative_index_is_not_formatted(self):
        with pytest.raises(MalformedGenotypeError, match="index -1 is negative"):
            format_genotype((0, -1))


class TestCanonicalization:
    def test_inactive_positions_zeroed(self, masked_space):
        # depth index 0 (value 1) leaves slot 2 inactive; depth index 1 (value 2) keeps both.
        G = masked_space.canonicalize_batch([(0, 2, 1, 1), (1, 2, 1, 1)])
        assert G.tolist() == [[0, 2, 0, 1], [1, 2, 1, 1]]

    def test_matches_loop_oracle(self, masked_space):
        axes = [range(len(v.options)) for v in masked_space.variables]
        raws = list(itertools.product(*axes))
        got = masked_space.canonicalize_batch(raws).tolist()
        assert list(map(tuple, got)) == [canonical_oracle(masked_space, raw) for raw in raws]
        rng = np.random.default_rng(13)
        for name in BUILTIN_SPACES:
            space = builtin_space(name)
            raws = rng.integers(0, space.option_counts, size=(200, space.n_variables)).tolist()
            got = space.canonicalize_batch(raws).tolist()
            assert list(map(tuple, got)) == [canonical_oracle(space, raw) for raw in raws]

    def test_idempotent(self, masked_space):
        rng = np.random.default_rng(11)
        raw = rng.integers(0, masked_space.option_counts, size=(200, masked_space.n_variables))
        once = masked_space.canonicalize_batch(raw)
        assert np.array_equal(masked_space.canonicalize_batch(once), once)

    def test_masked_flip_is_invisible(self, masked_space):
        # Changing an inactive slot must not change the canonical form.
        G = masked_space.canonicalize_batch([(0, 1, idx2, 0) for idx2 in range(3)])
        assert (G == G[0]).all()

    def test_rule_free_space_is_untouched(self, free_space):
        raws = list(itertools.product(range(4), range(3), range(2)))
        assert free_space.canonicalize_batch(raws).tolist() == [list(raw) for raw in raws]

    def test_noncanonical_rows_match_the_oracle(self):
        rng = np.random.default_rng(19)
        for space in [make_masked_space(), *map(builtin_space, BUILTIN_SPACES)]:
            raws = rng.integers(0, space.option_counts, size=(200, space.n_variables))
            want = [canonical_oracle(space, raw) != tuple(raw) for raw in raws.tolist()]
            assert space.noncanonical_rows(raws).tolist() == want
            assert not space.noncanonical_rows(space.canonicalize_batch(raws)).any()

    def test_is_canonical_checks_one_row(self, masked_space):
        assert not masked_space.is_canonical((0, 2, 1, 1))
        assert all(masked_space.is_canonical(g) for g in enumerate_canonicals(masked_space))
        with pytest.raises(MalformedGenotypeError, match="position 1 \\(s1\\): index 3 outside 0..2"):
            masked_space.is_canonical((0, 3, 0, 0))


class TestCardinality:
    def test_matches_exhaustive_oracle_free(self, free_space):
        assert free_space.cardinality() == len(enumerate_canonicals(free_space)) == 24

    def test_matches_exhaustive_oracle_masked(self, masked_space):
        assert (
            masked_space.cardinality() == len(enumerate_canonicals(masked_space)) == 24
        )

    def test_matches_exhaustive_oracle_ncf_shrunk(self):
        # Same block structure as ncf, shrunk so exhaustive enumeration is cheap.
        space = SearchSpace(
            "ncf_shrunk",
            (
                DesignVariable("e1", (8, 16)),
                DesignVariable("e2", (8, 16)),
                DesignVariable("layers", (1, 2, 3)),
                DesignVariable("h1", (8, 16, 32)),
                DesignVariable("h2", (8, 16, 32)),
                DesignVariable("h3", (8, 16, 32)),
            ),
            (DependencyRule.from_mapping(2, {0: [3], 1: [3, 4], 2: [3, 4, 5]}),),
        )
        expected = 2 * 2 * (3 + 3**2 + 3**3)
        assert space.cardinality() == len(enumerate_canonicals(space)) == expected

    def test_single_option_variables_count_once(self):
        space = SearchSpace(
            "frozen", (DesignVariable("x", (6,)), DesignVariable("y", (1, 2)))
        )
        assert space.cardinality() == 2


def reference_draw(space, rng):
    """One scalar ``integers`` call per variable, then the loop oracle's canonical form."""
    raw = tuple(int(rng.integers(0, len(v.options))) for v in space.variables)
    return canonical_oracle(space, raw)


SAMPLED_SPACES = [builtin_space(name) for name in BUILTIN_SPACES] + [
    make_masked_space(),
    make_free_space(),
]


class TestSampling:
    @pytest.mark.parametrize("space", SAMPLED_SPACES, ids=lambda s: s.name)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_sample_batch_matches_per_variable_draws(self, space, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for k in (1, 5, 64, 0):
            G = space.sample_batch(rng, k)
            assert G.dtype == np.int64 and G.shape == (k, space.n_variables)
            want = [reference_draw(space, ref_rng) for _ in range(k)]
            assert list(map(tuple, G.tolist())) == want
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_samples_are_canonical_and_valid(self, masked_space):
        G = masked_space.sample_batch(np.random.default_rng(5), 500)
        assert np.array_equal(masked_space.validate_batch(G), G)
        rows = list(map(tuple, G.tolist()))
        assert [canonical_oracle(masked_space, g) for g in rows] == rows

    def test_rule_free_marginals_chi_square(self, free_space):
        # 20k draws; each marginal must look uniform (alpha = 1e-3).
        rng = np.random.default_rng(1234)
        draws = free_space.sample_batch(rng, 20_000)
        for i, var in enumerate(free_space.variables):
            counts = np.bincount(draws[:, i], minlength=len(var.options))
            _, p = stats.chisquare(counts)
            assert p > 1e-3, f"variable {var.name} marginal not uniform (p={p})"

    def test_deterministic_given_seed(self, masked_space):
        a = [masked_space.sample_batch(np.random.default_rng(9), 1).tolist() for _ in range(10)]
        b = [masked_space.sample_batch(np.random.default_rng(9), 1).tolist() for _ in range(10)]
        # One generator drawn through ten samples, twice from the same seed.
        rng1, rng2 = np.random.default_rng(10), np.random.default_rng(10)
        c = [masked_space.sample_batch(rng1, 1).tolist() for _ in range(10)]
        d = [masked_space.sample_batch(rng2, 1).tolist() for _ in range(10)]
        assert a == b and c == d


class TestBuiltinSpaces:
    def test_variable_counts(self):
        assert builtin_space("mobilenetv3").n_variables == 45
        assert builtin_space("transformer").n_variables == 40
        assert builtin_space("resnet50").n_variables == 36
        assert builtin_space("ncf").n_variables == 9

    def test_cardinalities_against_closed_forms(self):
        assert builtin_space("mobilenetv3").cardinality() == MOBILENETV3_CARDINALITY
        assert builtin_space("ncf").cardinality() == NCF_CARDINALITY == 7_489_800
        assert builtin_space("transformer").cardinality() == TRANSFORMER_CARDINALITY
        assert builtin_space("resnet50").cardinality() == RESNET50_CARDINALITY

    def test_orders_of_magnitude(self):
        assert builtin_space("mobilenetv3").cardinality_magnitude() == 19
        assert builtin_space("ncf").cardinality_magnitude() == 7
        assert builtin_space("transformer").cardinality_magnitude() == 15
        assert builtin_space("resnet50").cardinality_magnitude() == 17

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            builtin_space("vgg")

    def test_all_builtins_self_consistent(self):
        # Sampled genotypes validate and canonicalize idempotently.
        for name in BUILTIN_SPACES:
            space = builtin_space(name)
            G = space.sample_batch(np.random.default_rng(42), 50)
            assert np.array_equal(space.validate_batch(G), G)
            assert np.array_equal(space.canonicalize_batch(G), G)


class TestJsonRoundTrip:
    def test_roundtrip_equality(self, masked_space):
        again = SearchSpace.from_json(masked_space.to_json())
        assert again == masked_space

    def test_export_is_byte_deterministic(self):
        a = make_masked_space().to_json()
        b = make_masked_space().to_json()
        assert a == b
        assert SearchSpace.from_json(a).to_json() == a

    def test_builtin_roundtrip(self):
        for name in BUILTIN_SPACES:
            space = builtin_space(name)
            assert SearchSpace.from_json(space.to_json()) == space

    def test_malformed_definition_raises(self):
        with pytest.raises(SpaceValidationError):
            SearchSpace.from_json('{"name": "x"}')


def test_free_and_masked_fixture_builders_agree():
    assert make_free_space() == make_free_space()
    assert make_masked_space() == make_masked_space()
