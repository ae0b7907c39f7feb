"""Time two source checkouts side by side in one process, pair by pair.

    python3 tools/ab_inprocess.py --parent DIR --change DIR [--case NAME ...] [--pairs 10]

``DIR`` is the root of a source checkout (it holds ``src/linas_moo``). Each
checkout's package is imported under its own name (``linas_moo_parent`` and
``linas_moo_change``), so its relative imports resolve within that copy.
Each case builds its inputs once per side, untimed, and runs once per side
untimed to warm up. Pair ``i`` then times one run of each side, the parent
first when ``i`` is even and the change first when it is odd. BLAS runs one
thread when this file runs as a script (numpy is first imported here).

Per case it prints each side's median and quartiles
(``statistics.quantiles(n=4)``), the median change/parent ratio of the pairs,
how many pairs the change ran faster, and whether both sides' outputs were
equal bit for bit in every run: a digest of the returned arrays, or of a
store's JSONL bytes.

Cases (default: every case but ``linas_tiny``):

- ``linas_paper_ridge``, ``linas_paper_stacked``: ``run_linas`` on the paper
  setup (mobilenetv3, landscape seed 0, rho 0.8, 50 x 5, 20k inner queries)
  with ridge predictors and seed 0, or a stacked accuracy and a ridge latency
  predictor and seed 1.
- ``selection``: ``environmental_selection`` on each of the 400 pools of the
  first inner search of ``linas_paper_ridge``, recorded once with the
  parent's package and handed to both sides; one run takes every pool 5 times.
- ``linas_tiny``: ``run_linas`` on ncf, 10 x 3, 200 inner queries; a quick check.

Timings in one process resolve smaller differences than whole benchmark
runs, which drift between processes; they do not replace ``BENCH_<pr>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change")


def load(checkout: Path, side: str):
    """Import ``checkout/src/linas_moo`` afresh as the package ``linas_moo_<side>``."""
    name = f"linas_moo_{side}"
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    root = Path(checkout).resolve() / "src" / "linas_moo"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def objectives(pkg) -> tuple:
    return (pkg.ObjectiveSpec("accuracy", pkg.MAXIMIZE), pkg.ObjectiveSpec("latency", pkg.MINIMIZE))


def linas_config(pkg, kinds, seed, population=50, iterations=5, inner=20_000):
    return pkg.LinasConfig(
        population_size=population, iterations=iterations, inner_evaluations=inner,
        predictor_kinds=kinds, seed=seed,
    )


def store_digest(store) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "store.jsonl"
        store.to_jsonl(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def linas_case(space_name, kinds, seed, **sizes):
    """A ``run_linas`` case; its output is the store's JSONL digest."""

    def setup(pkg, _shared):
        space = pkg.builtin_space(space_name)
        land = pkg.SyntheticLandscape.from_seed(space, seed=0, rho=0.8)
        config = linas_config(pkg, kinds, seed, **sizes)
        return lambda: pkg.run_linas(space, land, objectives(pkg), config).store, store_digest

    return None, setup


def record_pools(pkg) -> list:
    """The pools ``nsga2_core`` selects from in the first inner search of ``linas_paper_ridge``."""
    pools, real = [], pkg.moea.environmental_selection

    def recording(G, F, pop_size):
        pools.append((G.copy(), F.copy(), pop_size))
        return real(G, F, pop_size)

    pkg.moea.environmental_selection = recording
    try:
        space = pkg.builtin_space("mobilenetv3")
        land = pkg.SyntheticLandscape.from_seed(space, seed=0, rho=0.8)
        config = linas_config(pkg, ("ridge",), 0, iterations=2)
        pkg.run_linas(space, land, objectives(pkg), config)
    finally:
        pkg.moea.environmental_selection = real
    return pools


def arrays_digest(results) -> str:
    h = hashlib.sha256()
    for arrays in results:
        for a in arrays:
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def selection_setup(pkg, pools):
    select = pkg.environmental_selection
    return lambda: [select(G, F, p) for _ in range(5) for G, F, p in pools], arrays_digest


CASES = {
    "linas_paper_ridge": linas_case("mobilenetv3", ("ridge",), 0),
    "linas_paper_stacked": linas_case("mobilenetv3", ("stacked", "ridge"), 1),
    "selection": (record_pools, selection_setup),
    "linas_tiny": linas_case("ncf", ("ridge",), 0, population=10, iterations=3, inner=200),
}
DEFAULT_CASES = [name for name in CASES if name != "linas_tiny"]


def timed(run) -> tuple[float, object]:
    gc.collect()
    start = time.perf_counter()
    out = run()
    return time.perf_counter() - start, out


def stats(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles(n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(packages: dict, case: str, pairs: int) -> dict:
    """Time ``case`` on both sides for ``pairs`` alternating pairs."""
    prepare, setup = CASES[case]
    shared = prepare(packages["parent"]) if prepare else None
    runs = {side: setup(packages[side], shared) for side in SIDES}
    seconds = {side: [] for side in SIDES}
    digests = {side: set() for side in SIDES}
    for i in range(-1, pairs):  # pair -1 warms up, untimed
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            run, digest = runs[side]
            elapsed, out = timed(run)
            digests[side].add(digest(out))
            if i >= 0:
                seconds[side].append(elapsed)
    ratios = [c / p for p, c in zip(seconds["parent"], seconds["change"])]
    return {
        "case": case,
        "pairs": pairs,
        **{side: stats(seconds[side]) for side in SIDES},
        "median_ratio": statistics.median(ratios),
        "change_faster": sum(c < p for p, c in zip(seconds["parent"], seconds["change"])),
        "outputs_equal": len(digests["parent"]) == 1 and digests["parent"] == digests["change"],
    }


def format_row(r: dict) -> str:
    sides = "  ".join(
        f"{r[side]['median']:.4f} [{r[side]['q1']:.4f}, {r[side]['q3']:.4f}]" for side in SIDES
    )
    outputs = "equal" if r["outputs_equal"] else "DIFFER"
    return (f"{r['case']:<20} {sides}  {r['median_ratio']:.3f}  "
            f"{r['change_faster']}/{r['pairs']}  {outputs}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--case", action="append", choices=sorted(CASES), dest="cases")
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.pairs < 1:
        print("--pairs must be positive", file=sys.stderr)
        return 2
    packages = {"parent": load(args.parent, "parent"), "change": load(args.change, "change")}
    print(f"{'case':<20} parent median [q1, q3] s     change median [q1, q3] s     "
          "ratio  faster  outputs")
    for case in args.cases or DEFAULT_CASES:
        print(format_row(compare(packages, case, args.pairs)), flush=True)
    return 0


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.exit(main())
