"""The benchmark tracer's extractors read the search path's return values.

``perfbench/tracing.py`` records ``len()`` of what ``sample_fresh_into_store``
and ``select_best_unique`` return (``linas.topped_up`` and ``linas.promoted``);
it is imported here read-only and run on real results.
"""

import importlib.util
from pathlib import Path

import numpy as np

from linas_moo.linas import LinasConfig, run_linas, select_best_unique
from linas_moo.moea import sample_fresh_into_store, search_rng
from linas_moo.objective import MAXIMIZE, MINIMIZE, EvaluationStore, ObjectiveSpec
from linas_moo.objective import SyntheticLandscape
from linas_moo.space import builtin_space

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

ACC_LAT = (ObjectiveSpec("accuracy", MAXIMIZE), ObjectiveSpec("latency", MINIMIZE))


def test_extractors_count_the_returned_rows():
    space = builtin_space("ncf")
    land = SyntheticLandscape.from_seed(space, seed=0)
    store = EvaluationStore(space, ACC_LAT)
    args = (space, land, store, search_rng(0), 12)
    kwargs = {"source": "linas", "iteration": 2}
    rows = sample_fresh_into_store(*args, **kwargs)
    assert tracing.EXTRACTORS["moea.sample_fresh_into_store"](args, kwargs, rows) == (2, 12)

    fresh = space.sample_batch(np.random.default_rng(1), 20)
    pool = np.concatenate([store.genotype_matrix()[:6], fresh])  # 6 seen rows, then unseen
    args = (space, pool, land.evaluate_batch(pool), 5, store)
    picks = select_best_unique(*args)
    assert tracing.EXTRACTORS["linas.select_best_unique"](args, {}, picks) == len(picks) == 5


def test_traced_run_records_promotions_and_top_ups():
    space = builtin_space("ncf")
    land = SyntheticLandscape.from_seed(space, seed=0)
    cfg = LinasConfig(population_size=10, iterations=3, inner_evaluations=200, seed=0)
    with tracing.Tracer() as tracer:
        out = run_linas(space, land, ACC_LAT, cfg)
    info = {}
    for sid, lid in enumerate(tracer.label):
        name, _ = tracer.labels[lid]
        if sid in tracer.info:
            info.setdefault(name, []).append(tracer.info[sid])
    promoted = info["linas.select_best_unique"]
    top_ups = info["moea.sample_fresh_into_store"]
    assert len(promoted) == cfg.iterations - 1
    assert [it for it, _ in top_ups] == list(range(1, cfg.iterations + 1))
    # Every real measurement is either promoted or drawn uniformly.
    assert sum(promoted) + sum(count for _, count in top_ups) == len(out.store) == 30
