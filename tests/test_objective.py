"""Evaluator and store behaviour, including the synthetic landscape geometry."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from conftest import enumerate_canonicals, make_free_space, make_masked_space
from linas_moo import objective
from linas_moo.objective import (
    MAXIMIZE,
    MINIMIZE,
    DegenerateScaleError,
    EvaluationStore,
    Measurement,
    ObjectiveSpec,
    StoreContractError,
    SyntheticLandscape,
    TabularEvaluator,
    UnknownConfigurationError,
    normalize_latency,
    oriented_values,
    read_measurement_columns,
    read_measurements_jsonl,
)
from linas_moo.predictor import featurize_batch
from linas_moo.space import DesignVariable, MalformedGenotypeError, SearchSpace, builtin_space


def two_objectives():
    return (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


class TestObjectiveSpec:
    def test_direction_validated(self):
        with pytest.raises(ValueError):
            ObjectiveSpec("x", "up")

    def test_orientation_negates_maximized_columns(self):
        arr = oriented_values([[1.0, 2.0], [3.0, 4.0]], two_objectives())
        assert np.array_equal(arr, [[-1.0, 2.0], [-3.0, 4.0]])


class TestEvaluationStore:
    def make_store(self):
        return EvaluationStore(make_masked_space(), two_objectives())

    def test_eval_indices_gapless_and_one_based(self):
        store = self.make_store()
        space = store.space
        rng = np.random.default_rng(3)
        while len(store) < 15:
            # Batches with repeats and stored genotypes keep indices gapless.
            batch = space.sample_batch(rng, 4)
            store.insert_batch(batch, [(1.0, 2.0)] * 4, source="t")
        assert [m.eval_index for m in store] == list(range(1, len(store) + 1))

    def test_duplicate_reported_not_stored(self):
        store = self.make_store()
        assert store.insert_batch([(0, 1, 0, 0)], [(1.0, 2.0)], source="t") == 1
        assert store.insert_batch([(0, 1, 0, 0)], [(9.0, 9.0)], source="t") == 0
        assert store.values_matrix().tolist() == [[1.0, 2.0]]
        assert len(store) == 1

    def test_stored_and_repeated_genotypes_skipped(self):
        store = self.make_store()
        store.insert_batch([(0, 1, 0, 0)], [(1.0, 2.0)], source="t")
        new = store.insert_batch(
            [(0, 1, 0, 0), (1, 2, 1, 0), (0, 2, 0, 1), (1, 2, 1, 0)],
            [(9.0, 9.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0)],
            source="t",
            iteration=2,
        )
        assert new == 2
        assert [(m.eval_index, m.genotype, m.values, m.iteration) for m in store][1:] == [
            (2, (1, 2, 1, 0), (3.0, 4.0), 2),
            (3, (0, 2, 0, 1), (5.0, 6.0), 2),
        ]
        assert store.genotype_matrix().tolist() == [[0, 1, 0, 0], [1, 2, 1, 0], [0, 2, 0, 1]]
        assert store.values_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_non_canonical_insert_rejected(self):
        store = self.make_store()
        # depth index 0 leaves slot 2 inactive, so index 1 there is not canonical.
        with pytest.raises(StoreContractError, match="0-1-1-0 is not canonical"):
            store.insert_batch([(0, 1, 0, 0), (0, 1, 1, 0)], [(1.0, 2.0)] * 2, source="t")
        assert len(store) == 0

    def test_arity_and_finiteness_enforced(self):
        store = self.make_store()
        with pytest.raises(StoreContractError):
            store.insert_batch([(0, 1, 0, 0)], [(1.0,)], source="t")
        with pytest.raises(StoreContractError):
            store.insert_batch([(0, 1, 0, 0)], [(1.0, 2.0)] * 2, source="t")
        with pytest.raises(StoreContractError, match="non-finite"):
            store.insert_batch(
                [(0, 1, 0, 0), (1, 2, 1, 0)], [(1.0, 2.0), (float("nan"), 2.0)], source="t"
            )
        assert len(store) == 0

    def test_bad_index_raises_malformed_and_stores_nothing(self):
        store = self.make_store()
        with pytest.raises(MalformedGenotypeError, match=r"row 1, position 1 \(s1\)"):
            store.insert_batch([(0, 1, 0, 0), (0, 3, 0, 0)], [(1.0, 2.0)] * 2, source="t")
        assert len(store) == 0

    @pytest.mark.parametrize(
        "tags, message",
        [
            ({"source": 3}, "source must be a string, got 3"),
            ({"iteration": True}, "iteration must be an int, got True"),
            ({"iteration": 1.5}, "iteration must be an int, got 1.5"),
            ({"iteration": np.int64(2)}, "iteration must be an int, got np.int64(2)"),
        ],
        ids=["int-source", "bool-iteration", "float-iteration", "numpy-iteration"],
    )
    def test_tags_the_file_cannot_hold_are_refused(self, tags, message):
        space = builtin_space("mobilenetv3")
        store = EvaluationStore(space, two_objectives())
        G = space.sample_batch(np.random.default_rng(0), 3)
        with pytest.raises(StoreContractError, match=re.escape(message)):
            store.insert_batch(G, np.ones((3, 2)), **({"source": "t"} | tags))
        assert len(store) == 0

    def test_rows_match_a_dict_and_list_reference_across_growths(self):
        space = builtin_space("mobilenetv3")
        store = EvaluationStore(space, two_objectives())
        rng = np.random.default_rng(5)
        pool = space.sample_batch(rng, 120)  # drawn with replacement below: repeats
        position, rows = {}, []
        for it in range(40):
            G = pool[rng.integers(0, len(pool), rng.integers(1, 30))]
            V = rng.normal(size=(len(G), 2))
            new = 0
            for g, v in zip(map(tuple, G.tolist()), V.tolist()):
                if g not in position:
                    position[g] = len(rows)
                    rows.append((len(rows) + 1, g, tuple(v), f"s{it % 3}", it))
                    new += 1
            assert store.insert_batch(G, V, source=f"s{it % 3}", iteration=it) == new
        assert len(store) == len(rows) == len(position) > 64  # several doublings
        assert [tuple(vars(m).values()) for m in store] == rows
        assert store.genotype_matrix().tolist() == [list(r[1]) for r in rows]
        assert store.values_matrix().tolist() == [list(r[2]) for r in rows]
        assert all(key in store for key in space.row_keys(np.array(list(position))))

    def test_lookups_take_row_keys_only(self):
        store = self.make_store()
        store.insert_batch([(0, 1, 0, 0)], [(1.0, 2.0)], source="t")
        key, other = store.space.row_keys(np.array([(0, 1, 0, 0), (1, 2, 1, 0)]))
        assert key in store and other not in store
        # A genotype is no key: it raises rather than read as unseen.
        for row in ((0, 1, 0, 0), np.array([0, 1, 0, 0])):
            with pytest.raises(TypeError, match="row key"):
                row in store

    def test_values_matrix_is_a_read_only_view_that_keeps_its_rows(self):
        store = self.make_store()
        store.insert_batch([(0, 1, 0, 0), (1, 2, 1, 0)], [(1.0, 2.0), (3.0, 4.0)], source="t")
        first = store.values_matrix()
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 9.0
        store.insert_batch([(0, 2, 0, 1)], [(5.0, 6.0)], source="t")  # the arrays grow
        second = store.values_matrix()
        store.insert_batch([(1, 0, 2, 1)], [(7.0, 8.0)], source="t")  # appends in place
        assert first.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert second.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert store.values_matrix().tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]

    def test_genotype_matrix_is_int64_on_a_wide_space(self):
        wide = SearchSpace(
            "wide", (DesignVariable("x", tuple(range(10_001))), DesignVariable("y", (0, 1, 2)))
        )
        store = EvaluationStore(wide, two_objectives())
        store.insert_batch([(10_000, 2), (256, 1), (255, 0)], np.ones((3, 2)), source="t")
        G = store.genotype_matrix()
        assert G.dtype == np.int64
        assert G.tolist() == [[10_000, 2], [256, 1], [255, 0]]

    def test_jsonl_roundtrip_and_determinism(self, tmp_path):
        store = self.make_store()
        rng = np.random.default_rng(7)
        while len(store) < 10:
            g = store.space.sample_batch(rng, 1)[0]
            store.insert_batch(
                [g], [(float(rng.normal()), float(rng.normal()))], source="t", iteration=2
            )
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        store.to_jsonl(p1)
        store.to_jsonl(p2)
        assert p1.read_bytes() == p2.read_bytes()
        back = read_measurements_jsonl(p1)
        assert back == list(store)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("{not json", "bad.jsonl:2: Expecting property name"),
            ('{"eval_index": 2, "genotype": "0-1-0-0", "source": "t", "iteration": 0}',
             "bad.jsonl:2: missing key 'values'"),
            ('{"eval_index": 2, "genotype": "0-x-0-0", "values": [1.0, 2.0], '
             '"source": "t", "iteration": 0}',
             "bad.jsonl:2: unparseable genotype"),
        ],
        ids=["malformed", "missing-key", "bad-genotype"],
    )
    def test_jsonl_reader_reports_path_and_line(self, tmp_path, line, message):
        store = self.make_store()
        store.insert_batch([(1, 2, 1, 0)], [(75.5, 12.25)], source="alg")
        path = tmp_path / "bad.jsonl"
        store.to_jsonl(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=message):
            read_measurements_jsonl(path)

    def test_jsonl_line_schema(self, tmp_path):
        store = self.make_store()
        store.insert_batch([(1, 2, 1, 0)], [(75.5, 12.25)], source="alg", iteration=3)
        path = tmp_path / "m.jsonl"
        store.to_jsonl(path)
        obj = json.loads(path.read_text().splitlines()[0])
        assert obj == {
            "eval_index": 1,
            "genotype": "1-2-1-0",
            "iteration": 3,
            "source": "alg",
            "values": [75.5, 12.25],
        }


def reference_jsonl(store, extra=None) -> str:
    """The writer's bytes by definition: ``json.dumps(obj, sort_keys=True)`` per record."""
    extra = extra or {}
    return "".join(
        json.dumps(
            {
                "eval_index": m.eval_index,
                "genotype": "-".join(map(str, m.genotype)),
                "values": list(m.values),
                "source": m.source,
                "iteration": m.iteration,
            }
            | {key: column[i] for key, column in extra.items()},
            sort_keys=True,
        )
        + "\n"
        for i, m in enumerate(store)
    )


def landscape_store(size: int, seed: int = 0) -> EvaluationStore:
    """``size`` distinct mobilenetv3 configurations measured on a synthetic landscape."""
    space = builtin_space("mobilenetv3")
    land = SyntheticLandscape.from_seed(space, seed=seed)
    store = EvaluationStore(space, two_objectives())
    rng = np.random.default_rng(seed)
    while len(store) < size:
        G = space.sample_batch(rng, size - len(store))
        store.insert_batch(G, land.evaluate_batch(G), source="nsga2", iteration=len(store) % 7)
    return store


def schema_breaks(n: int) -> list[tuple[dict, str]]:
    """Changes to a good line (genotype length ``n``, 2 objectives), each with the
    message of the schema rule it breaks."""
    rest = "-0" * (n - 2)
    return [
        ({"values": "75"}, "values must be a non-empty list of numbers, got '75'"),
        ({"values": []}, "values must be a non-empty list of numbers, got []"),
        ({"values": [True, 1.0]}, "values must be a non-empty list of numbers"),
        ({"values": [1.0, None]}, "values must be a non-empty list of numbers"),
        ({"values": [10**400, 1.0]}, "objective value: int too large"),
        ({"eval_index": True}, "eval_index must be an int, got True"),
        ({"eval_index": 2.7}, "eval_index must be an int, got 2.7"),
        ({"iteration": 1.0}, "iteration must be an int, got 1.0"),
        ({"iteration": False}, "iteration must be an int, got False"),
        ({"source": 3}, "source must be a string, got 3"),
        ({"genotype": 10}, "genotype must be a string, got 10"),
        ({"genotype": f"+1-1{rest}"}, f"unparseable genotype string: '+1-1{rest}'"),
        ({"genotype": f"0-1_0{rest}"}, f"unparseable genotype string: '0-1_0{rest}'"),
        ({"genotype": f"0-\u0661{rest}"}, "unparseable genotype string"),
        ({"genotype": f" 0-1{rest}"}, "unparseable genotype string"),
        ({"genotype": f"0-1{rest[2:]}"}, f"genotype length {n - 1} != {n} of the first line"),
        ({"values": [1.0, 2.0, 3.0]}, "3 objective values != 2 of the first line"),
    ]


def big_file(tmp_path, change: dict | None = None):
    """A 2,000-row store file; line 1,500 gets ``change`` merged in, if given."""
    path = tmp_path / "big.jsonl"
    landscape_store(2000).to_jsonl(path)
    if change is not None:
        lines = path.read_text().splitlines()
        lines[1499] = json.dumps(json.loads(lines[1499]) | change, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
    return path


class TestJsonlCodec:
    GOOD = {"eval_index": 2, "genotype": "0-1-0-0", "values": [1.0, 2.0], "source": "t",
            "iteration": 0}

    def written(self, tmp_path, *extra_lines: str):
        """A one-row store file with ``extra_lines`` appended from line 2 on."""
        store = EvaluationStore(make_masked_space(), two_objectives())
        store.insert_batch([(1, 2, 1, 0)], [(75.5, 12.25)], source="alg")
        path = tmp_path / "bad.jsonl"
        store.to_jsonl(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.writelines(line + "\n" for line in extra_lines)
        return path

    def test_writer_bytes_equal_per_row_json_dumps(self, tmp_path):
        wide = SearchSpace(
            "wide", (DesignVariable("x", tuple(range(10_001))), DesignVariable("y", (0, 1, 2)))
        )
        store = EvaluationStore(wide, two_objectives())
        special = [-0.0, 5e-324, 1e-300, 1e16, 1.7976931348623157e308, -1.5, 75.0]
        store.insert_batch(
            [(i, i % 3) for i in range(len(special))], [(v, -v) for v in special],
            source='say "hi" \\ back', iteration=1,
        )
        store.insert_batch([(10_000, 2), (999, 1)], [(1.0, 2.0), (3.0, 4.0)],
                           source="naïve ☃\ttab", iteration=2)
        rng = np.random.default_rng(4)  # more rows than one write chunk
        store.insert_batch(
            np.column_stack([rng.integers(0, 10_001, 700), rng.integers(0, 3, 700)]),
            rng.normal(size=(700, 2)) * 10.0 ** rng.integers(-300, 300, size=(700, 1)),
            source="plain",
        )
        n = len(store)
        extra = {
            "a": [None if i % 2 else f"é{i}" for i in range(n)],
            "latency_normalized": [i / 7 for i in range(n)],
            "zz": [[i, {"k": -0.0}] for i in range(n)],
        }
        for ext in (None, extra):
            path = tmp_path / "w.jsonl"
            store.to_jsonl(path, ext)
            assert path.read_text(encoding="utf-8") == reference_jsonl(store, ext)
        assert read_measurements_jsonl(path) == list(store)

    def test_writer_keys_and_cells_follow_json_dumps(self, tmp_path):
        store = landscape_store(300)
        n = len(store)
        extra = {
            "{b}": [math.nan if i == 7 else i / 3 for i in range(n)],
            "source": np.arange(n) / 9.0,
            "Z": [math.inf] * n,
        }
        path = tmp_path / "w.jsonl"
        store.to_jsonl(path, extra)
        assert path.read_text(encoding="utf-8") == reference_jsonl(store, extra)
        with pytest.raises(ValueError, match="every extra column needs 300 values, one per row"):
            store.to_jsonl(path, {"Z": [1.0] * (n - 1)})

    @pytest.mark.parametrize(
        "lines, message",
        [
            ([json.dumps(GOOD) + ", " + json.dumps(GOOD)], "bad.jsonl:2: Extra data"),
            ([json.dumps(GOOD) + json.dumps(GOOD)], "bad.jsonl:2: Extra data"),
            ([json.dumps(GOOD)[:17], json.dumps(GOOD)[17:]],
             "bad.jsonl:2: Expecting property name enclosed in double quotes"),
        ],
        ids=["two-objects", "two-objects-no-space", "split-object"],
    )
    def test_each_line_holds_one_whole_object(self, tmp_path, lines, message):
        path = self.written(tmp_path, *lines)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_measurement_columns(path)

    @pytest.mark.parametrize(
        "change, message",
        schema_breaks(4),
        ids=lambda x: x if isinstance(x, str) else None,
    )
    def test_reader_accepts_only_what_the_writer_writes(self, tmp_path, change, message):
        path = self.written(tmp_path, json.dumps(self.GOOD | change))
        with pytest.raises(ValueError, match=re.escape(f"bad.jsonl:2: {message}")):
            read_measurements_jsonl(path)

    @pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"text"', "str"), ("7", "int")])
    def test_line_must_be_an_object(self, tmp_path, line, kind):
        path = self.written(tmp_path, line)
        with pytest.raises(ValueError, match=f"bad.jsonl:2: expected a JSON object, got {kind}"):
            read_measurements_jsonl(path)

    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path):
        bad_schema = json.dumps(self.GOOD | {"eval_index": 2.5})
        path = self.written(tmp_path, bad_schema, "{not json")
        with pytest.raises(ValueError, match="bad.jsonl:2: eval_index"):
            read_measurements_jsonl(path)
        path = self.written(tmp_path, "{not json", bad_schema)
        with pytest.raises(ValueError, match="bad.jsonl:2: Expecting property name"):
            read_measurements_jsonl(path)

    @pytest.mark.parametrize(
        "change",
        [
            ({"genotype": "0-1_0-0"}, "unparseable genotype string: '0-1_0-0'"),
            ({"values": [1.0]}, "1 objective values != 2 of the first line"),
        ]
        + schema_breaks(builtin_space("mobilenetv3").n_variables),
    )
    def test_bad_line_named_deep_in_a_large_file(self, tmp_path, change):
        change, message = change
        path = big_file(tmp_path, change)
        with pytest.raises(ValueError, match=re.escape(f"big.jsonl:1500: {message}")):
            read_measurements_jsonl(path)

    def test_file_is_opened_once_to_name_a_bad_line(self, tmp_path, monkeypatch):
        path = big_file(tmp_path, {"source": 3})
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(objective, "open", counting_open, raising=False)
        with pytest.raises(ValueError, match="big.jsonl:1500: source must be a string, got 3"):
            read_measurement_columns(path)
        assert opened == [path]

    def test_undecodable_byte_is_named_by_its_line(self, tmp_path):
        path = big_file(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert b'"source": "nsga2"' in lines[1499]
        lines[1499] = lines[1499].replace(b'"nsga2"', b'"nsg\xff"')
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="big.jsonl:1500: 'utf-8' codec can't decode byte"):
            read_measurements_jsonl(path)
        lines[1000] = b"{not json\n"  # an earlier bad line is named first
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="big.jsonl:1001: Expecting property name"):
            read_measurements_jsonl(path)

    def test_blank_lines_and_crlf_count_as_lines(self, tmp_path):
        store = landscape_store(40)
        path = tmp_path / "crlf.jsonl"
        store.to_jsonl(path)
        lines = []
        for i, line in enumerate(path.read_text().splitlines()):
            lines += [line, "", "  \t"] if i % 3 == 0 else [line]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert read_measurements_jsonl(path) == list(store)
        lines[20] = "{not json"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        with pytest.raises(ValueError, match="crlf.jsonl:21: Expecting property name"):
            read_measurements_jsonl(path)

    def test_large_round_trip_and_columns(self, tmp_path):
        store = landscape_store(20_000, seed=3)
        path = tmp_path / "big.jsonl"
        store.to_jsonl(path)
        assert read_measurements_jsonl(path) == list(store)
        cols = read_measurement_columns(path)
        assert cols.genotypes.dtype == np.int64 and cols.values.dtype == np.float64
        assert np.array_equal(cols.genotypes, [m.genotype for m in store])
        assert np.array_equal(cols.values, store.values_matrix())
        assert cols.eval_index == list(range(1, 20_001))
        assert cols.iteration == [m.iteration for m in store]

    def test_empty_file_reads_as_no_rows(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n \n")
        assert read_measurements_jsonl(path) == []
        assert len(read_measurement_columns(path)) == 0


class TestNormalizeLatency:
    def test_hand_values(self):
        # min 10, max 40: (l - 10) / 40.
        out = normalize_latency([10.0, 20.0, 40.0])
        assert np.allclose(out, [0.0, 0.25, 0.75])

    def test_zero_scale_raises(self):
        with pytest.raises(DegenerateScaleError):
            normalize_latency([0.0, 0.0])

    def test_empty_without_bounds_raises(self):
        with pytest.raises(ValueError):
            normalize_latency([])


def values_of(evaluator, *genotypes):
    """``evaluate_batch`` rows as tuples, one per genotype."""
    return [tuple(row) for row in evaluator.evaluate_batch(list(genotypes))]


def accuracy_of(land, genotype):
    return float(land.evaluate_batch([genotype])[0, 0])


def latency_of(land, genotype):
    return float(land.evaluate_batch([genotype])[0, 1])


def constant_landscape(space, **overrides):
    """All-zero coefficients: accuracy flat at the range midpoint."""
    n = space.n_variables
    kwargs = dict(
        space=space,
        seed=0,
        rho=0.0,
        noise_sd=0.0,
        quality_weights=np.zeros(n),
        cost_weights=np.zeros(n),
        pair_indices=(),
        pair_weights=np.empty(0),
        bias=0.0,
    )
    kwargs.update(overrides)
    return SyntheticLandscape(**kwargs)


class TestSyntheticLandscape:
    def test_coefficients_reproducible(self):
        space = make_free_space()
        a = SyntheticLandscape.from_seed(space, seed=17, rho=0.5)
        b = SyntheticLandscape.from_seed(space, seed=17, rho=0.5)
        assert np.array_equal(a.quality_weights, b.quality_weights)
        assert np.array_equal(a.cost_weights, b.cost_weights)
        assert a.pair_indices == b.pair_indices
        assert np.array_equal(a.pair_weights, b.pair_weights)
        assert a.bias == b.bias
        g = (1, 2, 0)
        assert values_of(a, g) == values_of(b, g)

    def test_different_seeds_differ(self):
        space = make_free_space()
        a = SyntheticLandscape.from_seed(space, seed=1)
        b = SyntheticLandscape.from_seed(space, seed=2)
        assert not np.array_equal(a.quality_weights, b.quality_weights)

    def test_all_zero_coefficients_hit_midpoint(self):
        space = make_free_space()
        land = constant_landscape(space)
        for g in [(0, 0, 0), (3, 2, 1), (1, 0, 1)]:
            (acc, lat), = values_of(land, g)
            assert acc == pytest.approx(75.0)
            assert lat == pytest.approx(5.0)

    def test_latency_endpoints(self):
        space = make_free_space()
        land = constant_landscape(space, cost_weights=np.array([1.0, 2.0, 0.5]))
        assert latency_of(land, (0, 0, 0)) == pytest.approx(5.0)
        assert latency_of(land, (3, 2, 1)) == pytest.approx(60.0)

    def test_latency_monotone_in_costly_variable(self):
        space = make_free_space()
        land = constant_landscape(space, cost_weights=np.array([1.0, 0.0, 0.0]))
        lats = [latency_of(land, (i, 0, 0)) for i in range(4)]
        assert lats == sorted(lats)
        assert lats[0] < lats[-1]

    def test_accuracy_monotone_when_single_positive_weight(self):
        space = SearchSpace("one", (DesignVariable("x", (0, 1, 2, 3, 4)),))
        land = constant_landscape(space, quality_weights=np.array([2.0]))
        accs = [accuracy_of(land, (i,)) for i in range(5)]
        assert accs == sorted(accs)
        assert accs[0] < accs[-1]

    def test_masked_positions_do_not_matter(self):
        space = make_masked_space()
        land = SyntheticLandscape.from_seed(space, seed=5, rho=0.3)
        # depth index 0 masks slot 2: any raw index there evaluates identically.
        vals = set(values_of(land, *[(0, 2, j, 1) for j in range(3)]))
        assert len(vals) == 1

    def test_full_coupling_aligns_quality_and_cost(self):
        space = make_free_space()
        land = SyntheticLandscape.from_seed(space, seed=3, rho=1.0)
        # rho = 1 leaves no independent component: quality is a positive
        # multiple of cost, so the objectives conflict at every variable.
        scale = 1.0 / np.sqrt(space.n_variables)
        assert np.allclose(land.quality_weights, scale * land.cost_weights)

    def test_positive_coupling_gives_positive_correlation(self):
        # rho = +1: quality score and latency rise together over 10k samples.
        space = make_free_space()
        land = SyntheticLandscape.from_seed(space, seed=11, rho=1.0)
        rng = np.random.default_rng(0)
        G = space.sample_batch(rng, 10_000)
        q = land._quality_batch(featurize_batch(space, G))
        lat = land.evaluate_batch(G)[:, 1]
        r = np.corrcoef(q, lat)[0, 1]
        assert r > 0.5

    def test_noise_frozen_per_genotype(self):
        space = make_free_space()
        land = SyntheticLandscape.from_seed(space, seed=2, rho=0.0, noise_sd=0.5)
        g = (2, 1, 0)
        assert accuracy_of(land, g) == accuracy_of(land, g)
        clean = SyntheticLandscape.from_seed(space, seed=2, rho=0.0, noise_sd=0.0)
        assert accuracy_of(land, g) != accuracy_of(clean, g)
        # Latency stays deterministic and noise-free.
        assert latency_of(land, g) == latency_of(clean, g)

    def test_noise_scale_roughly_sigma(self):
        space = make_free_space()
        sigma = 0.3
        noisy = SyntheticLandscape.from_seed(space, seed=9, rho=0.0, noise_sd=sigma)
        clean = SyntheticLandscape.from_seed(space, seed=9, rho=0.0, noise_sd=0.0)
        rng = np.random.default_rng(1)
        gs = list(set(map(tuple, space.sample_batch(rng, 500).tolist())))
        deltas = noisy.evaluate_batch(gs)[:, 0] - clean.evaluate_batch(gs)[:, 0]
        assert abs(float(np.mean(deltas))) < 0.1
        assert 0.8 * sigma < float(np.std(deltas)) < 1.2 * sigma

    @pytest.mark.parametrize("noise_sd", [0.0, 0.2])
    @pytest.mark.parametrize("size", [2, 7, 50, 2000])
    def test_values_do_not_depend_on_the_batch(self, size, noise_sd):
        space = make_masked_space()
        land = SyntheticLandscape.from_seed(space, seed=4, rho=0.7, noise_sd=noise_sd)
        rng = np.random.default_rng(8)
        G = space.sample_batch(rng, size)
        batch = land.evaluate_batch(G)
        for i in range(size):
            assert np.array_equal(batch[i], land.evaluate_batch(G[i : i + 1])[0])

    def test_malformed_rows_are_refused(self):
        space = builtin_space("ncf")
        land = SyntheticLandscape.from_seed(space, seed=0)
        good = [0] * space.n_variables
        assert space.option_counts[0] == 5
        for bad in ([-1] + good[1:], [9] + good[1:], good[:3]):
            with pytest.raises(MalformedGenotypeError):
                land.evaluate_batch([good, bad])

    def test_pair_count_rule(self):
        space = make_free_space()  # 3 variables -> ceil(3/2) = 2 pairs
        land = SyntheticLandscape.from_seed(space, seed=0)
        assert len(land.pair_indices) == 2
        one = SearchSpace("single", (DesignVariable("x", (0, 1)),))
        assert SyntheticLandscape.from_seed(one, seed=0).pair_indices == ()

    def test_parameter_validation(self):
        space = make_free_space()
        with pytest.raises(ValueError):
            SyntheticLandscape.from_seed(space, seed=0, rho=1.5)
        with pytest.raises(ValueError):
            SyntheticLandscape.from_seed(space, seed=-1)
        with pytest.raises(ValueError):
            constant_landscape(space, noise_sd=-0.1)
        with pytest.raises(ValueError):
            constant_landscape(space, cost_weights=np.array([-1.0, 0.0, 0.0]))


class TestTabularEvaluator:
    def make_table(self, space):
        rows = {}
        for raw in [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 2, 1)]:
            rows[raw] = (70.0 + raw[0], 5.0 + raw[1])
        return rows

    def test_lookup_and_canonical_keying(self):
        space = make_masked_space()
        # Raw keys canonicalize: (0, 1, 2, 0) and (0, 1, 0, 0) are the same config.
        ev = TabularEvaluator(space, {(0, 1, 2, 0): (1.0, 2.0)}, 2)
        assert values_of(ev, (0, 1, 0, 0), (0, 1, 1, 0)) == [(1.0, 2.0), (1.0, 2.0)]

    def test_conflicting_duplicate_rows_raise(self):
        space = make_masked_space()
        with pytest.raises(ValueError):
            TabularEvaluator(
                space, {(0, 1, 2, 0): (1.0, 2.0), (0, 1, 1, 0): (3.0, 4.0)}, 2
            )

    def test_error_policy_raises_on_miss(self):
        space = make_free_space()
        ev = TabularEvaluator(space, self.make_table(space), 2, missing_policy="error")
        with pytest.raises(UnknownConfigurationError):
            ev.evaluate_batch([(0, 0, 0), (0, 2, 1)])

    def test_reject_policy_signals_skip(self):
        space = make_free_space()
        ev = TabularEvaluator(
            space, self.make_table(space), 2, missing_policy="nearest-reject"
        )
        out = ev.evaluate_batch([(0, 0, 0), (0, 2, 1), (1, 0, 0)])
        assert np.array_equal(out[[0, 2]], [[70.0, 5.0], [71.0, 5.0]])
        assert np.isnan(out[1]).all()

    def test_malformed_row_raises(self):
        space = make_free_space()
        ev = TabularEvaluator(space, self.make_table(space), 2, missing_policy="nearest-reject")
        with pytest.raises(MalformedGenotypeError, match=r"row 1, position 1 \(b\)"):
            ev.evaluate_batch([(0, 0, 0), (0, 3, 0)])
        # A non-integer key is rejected, not truncated to (0, 1, 0).
        with pytest.raises(MalformedGenotypeError, match="index 0.5 is not an int"):
            TabularEvaluator(space, {(0.5, 1, 0): (1.0, 2.0)}, 2)

    def test_csv_roundtrip(self, tmp_path):
        space = make_free_space()
        ev = TabularEvaluator(space, self.make_table(space), 2)
        path = tmp_path / "table.csv"
        ev.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "genotype,obj_1,obj_2"
        back = TabularEvaluator.from_csv(path, space)
        assert back._table == ev._table

    def test_malformed_csv_reports_line(self, tmp_path):
        space = make_free_space()
        path = tmp_path / "bad.csv"
        path.write_text("genotype,obj_1,obj_2\n0-0-0,1.0,oops\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            TabularEvaluator.from_csv(path, space)
        # A non-finite cell is named by its line, before any genotype error.
        for cell, value in (("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf"), ("NaN", "nan")):
            path.write_text(f"genotype,obj_1,obj_2\n0-0-0,1.0,2.0\n1-0-0,{cell},2.0\n0-3-0,1,2\n")
            with pytest.raises(
                ValueError, match=re.escape(f"bad.csv:3: non-finite values ({value}, 2.0)")
            ):
                TabularEvaluator.from_csv(path, space)

    def test_undecodable_byte_in_csv_is_named_by_its_line(self, tmp_path):
        store = landscape_store(2000)
        table = {m.genotype: m.values for m in store}
        path = tmp_path / "table.csv"
        TabularEvaluator(store.space, table, 2).write_csv(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1499] = lines[1499].replace(b",", b",\xff", 1)
        path.write_bytes(b"".join(lines))
        with pytest.raises(ValueError, match="table.csv:1500: 'utf-8' codec can't decode byte"):
            TabularEvaluator.from_csv(path, store.space)
        path.write_bytes(b"genotype,obj_\xff,obj_2\r\n" + b"".join(lines[1:1499]))
        with pytest.raises(ValueError, match="table.csv:1: 'utf-8' codec can't decode byte 0xff"):
            TabularEvaluator.from_csv(path, store.space)

    @pytest.mark.parametrize("n_rows", [3, 24])
    def test_csv_load_checks_genotypes_in_two_batch_calls(self, tmp_path, monkeypatch, n_rows):
        space = make_masked_space()
        rows = sorted(enumerate_canonicals(space))[:n_rows]
        path = tmp_path / "table.csv"
        path.write_text(
            "genotype,obj_1,obj_2\n"
            + "".join(f"{'-'.join(map(str, g))},{i}.0,1.0\n" for i, g in enumerate(rows))
        )
        calls = []
        check = SearchSpace.validate_batch

        def counting(self, genotypes):
            calls.append(len(genotypes))
            return check(self, genotypes)

        monkeypatch.setattr(SearchSpace, "validate_batch", counting)
        ev = TabularEvaluator.from_csv(path, space)
        assert len(ev) == n_rows
        assert calls == [n_rows, n_rows]

    def test_malformed_csv_index_reports_line(self, tmp_path):
        space = make_free_space()
        path = tmp_path / "bad.csv"
        # Line 3's index is named first, whatever the fault of line 4.
        for line_4 in ("1-0", "1-0-0,1.0", "1-0,1.0,2.0"):
            path.write_text(f"genotype,obj_1,obj_2\n0-0-0,1.0,2.0\n0-3-0,1.0,2.0\n{line_4}\n")
            with pytest.raises(
                ValueError, match=r"bad.csv:3: position 1 \(b\): index 3 outside 0..2"
            ):
                TabularEvaluator.from_csv(path, space)

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("+1-0-0", "unparseable genotype string: '+1-0-0'"),
            ("1_0-0-0", "unparseable genotype string: '1_0-0-0'"),
            ("0-0", "position 2 (c): genotype length 2 != 3 variables"),
        ],
    )
    def test_csv_genotype_cells_use_the_strict_codec(self, tmp_path, cell, message):
        space = make_free_space()
        path = tmp_path / "bad.csv"
        path.write_text(f"genotype,obj_1,obj_2\n0-0-0,1.0,2.0\n{cell},1.0,2.0\n1-0-0,1.0,2.0\n")
        with pytest.raises(ValueError, match=re.escape(f"bad.csv:3: {message}")):
            TabularEvaluator.from_csv(path, space)

    def test_duplicate_csv_row_raises(self, tmp_path):
        space = make_free_space()
        path = tmp_path / "dup.csv"
        path.write_text("genotype,obj_1,obj_2\n0-0-0,1.0,2.0\n0-0-0,1.0,2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            TabularEvaluator.from_csv(path, space)
        # The repeat is named before a later line's bad genotype or bad value.
        for line_4 in ("0-9-0,1.0,2.0", "1-0-0,x,2.0"):
            path.write_text(f"genotype,obj_1,obj_2\n0-0-0,1.0,2.0\n0-0-0,1.0,2.0\n{line_4}\n")
            with pytest.raises(ValueError, match="dup.csv:3: duplicate canonical genotype 0-0-0"):
                TabularEvaluator.from_csv(path, space)

    @pytest.mark.parametrize("second", ["2.0", "9.0"])
    def test_canonical_twins_rejected_in_either_order(self, tmp_path, second):
        space = make_masked_space()
        # depth index 0 masks slot 2: 0-1-2-0 and 0-1-0-0 are one config.
        for first_row, second_row in (("0-1-2-0", "0-1-0-0"), ("0-1-0-0", "0-1-2-0")):
            path = tmp_path / "twins.csv"
            path.write_text(
                f"genotype,obj_1,obj_2\n{first_row},1.0,2.0\n{second_row},1.0,{second}\n"
            )
            with pytest.raises(ValueError, match="twins.csv:3: duplicate canonical genotype"):
                TabularEvaluator.from_csv(path, space)

    def test_bad_policy_rejected(self):
        space = make_free_space()
        with pytest.raises(ValueError):
            TabularEvaluator(space, {}, 2, missing_policy="nearest")
