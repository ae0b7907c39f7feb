"""In-memory span tracing around every public call into the linas_moo layers.

A :class:`Tracer` replaces each public function at every module attribute
that names it (so ``linas.run_nsga2`` is wrapped where ``linas`` looks it up,
as well as ``moea.run_nsga2``) and each public method of the package's
classes with a wrapper that records one span: name, call site, start, end
and parent span id. Spans stay in memory until :meth:`Tracer.write` dumps
them as CSV. Leaving the ``with`` block restores every original attribute.

Spans nest strictly because the package runs in one thread, so a span's
self time is its duration minus the summed durations of its direct
children.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
import types

LAYERS = ("space", "objective", "predictor", "moea", "linas", "metrics", "cli")
PACKAGE = "linas_moo"


# Extra facts recorded per span, keyed by span name:
# f(args, kwargs, result) -> a small value stored in Tracer.info[span id].
EXTRACTORS = {
    "objective.EvaluationStore.insert": lambda a, k, r: r[1],
    "objective.SyntheticLandscape.evaluate": lambda a, k, r: 1,
    "objective.SyntheticLandscape.evaluate_batch": lambda a, k, r: len(r),
    "linas.PredictorEvaluator.evaluate": lambda a, k, r: 1,
    "linas.PredictorEvaluator.evaluate_batch": lambda a, k, r: len(r),
    "predictor.RidgeModel.fit": lambda a, k, r: (len(a[1]),),
    "predictor.StackedModel.fit": lambda a, k, r: (len(a[1]),),
    "predictor.SvrRbfModel.fit": lambda a, k, r: (
        len(a[1]), r.n_iter_, r.converged_, r.kkt_gap_,
    ),
    "predictor.RidgeModel.predict": lambda a, k, r: len(r),
    "predictor.SvrRbfModel.predict": lambda a, k, r: len(r),
    "predictor.StackedModel.predict": lambda a, k, r: len(r),
    "moea.run_nsga2": lambda a, k, r: r.generations,
    "moea.fast_nondominated_sort": lambda a, k, r: len(a[0]),
    "metrics.nondominated_mask": lambda a, k, r: tuple(a[0].shape),
    "linas.run_linas": lambda a, k, r: (a[3].population_size, a[3].iterations),
    "linas.select_best_unique": lambda a, k, r: len(r),
    "moea.sample_fresh_into_store": lambda a, k, r: (k.get("iteration", 0), len(r)),
    "cli.main": lambda a, k, r: (a[0][0] if a else k["argv"][0], r),
}


class Tracer:
    """Records spans around the package's public calls while installed."""

    def __init__(self) -> None:
        self.labels: list[tuple[str, str]] = []  # label id -> (name, site)
        self.label = []  # per span: label id
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.info: dict[int, object] = {}
        self._current = -1
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, fn, name: str, site: str):
        lid = len(self.labels)
        self.labels.append((name, site))
        label, start, end, parent, info = (
            self.label, self.start, self.end, self.parent, self.info,
        )
        extract = EXTRACTORS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            label.append(lid)
            parent.append(tracer._current)
            end.append(0.0)
            tracer._current = sid
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                tracer._current = parent[sid]
            if extract is not None:
                info[sid] = extract(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, fn, name: str, site: str) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, site))

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        own_classes = {}
        for module in modules:
            site = module.__name__.rpartition(".")[2]
            for attr, value in list(vars(module).items()):
                origin = getattr(value, "__module__", "") or ""
                if not origin.startswith(PACKAGE + ".") or attr.startswith("_"):
                    continue
                layer = origin.rpartition(".")[2]
                if isinstance(value, types.FunctionType):
                    self._patch(module, attr, value, f"{layer}.{value.__name__}", site)
                elif isinstance(value, type) and not issubclass(value, BaseException):
                    own_classes[value] = layer
        for cls, layer in own_classes.items():
            for attr, value in list(vars(cls).items()):
                if isinstance(value, types.FunctionType) and (
                    not attr.startswith("_") or attr == "__contains__"
                ):
                    name = f"{layer}.{cls.__name__}.{attr}"
                    self._patch(cls, attr, value, name, cls.__name__)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        """Dump every span as CSV: id, name, site, start, end, parent."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "site", "start", "end", "parent"])
            for sid, lid in enumerate(self.label):
                name, site = self.labels[lid]
                writer.writerow(
                    [sid, name, site, repr(self.start[sid]), repr(self.end[sid]),
                     self.parent[sid]]
                )
