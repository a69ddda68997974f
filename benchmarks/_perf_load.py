"""Wall-clock benchmark: bulk graph loading vs the scalar data path.

Not a pytest benchmark (hence the underscore — the collector skips it):
this harness measures **real** wall-clock seconds, best-of-k, loading
seeded R-MAT graphs into the memory cloud two ways:

* scalar — one ``add_edge`` call per edge, one TSL encode and one
  ``cloud.put`` per node at finalize;
* bulk — one ``add_edges`` call with the whole numpy edge array, one
  batch-encoded ``cloud.bulk_put`` at finalize.

After timing, a cross-check loads the same graph once more through each
path and asserts the two clouds are bit-identical: same stored cells in
every trunk and identical per-machine trunk accounting.  Results land in
``benchmarks/results/BENCH_load.json``.

Usage::

    PYTHONPATH=src python benchmarks/_perf_load.py            # full run
    PYTHONPATH=src python benchmarks/_perf_load.py --smoke    # CI-sized

``--smoke`` also compares against the committed baseline JSON and prints
a GitHub Actions ``::warning::`` (never a failure) when the measured
speedup regressed by more than 2x.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.config import ClusterConfig                  # noqa: E402
from repro.generators import rmat_edges                 # noqa: E402
from repro.graph import GraphBuilder                    # noqa: E402
from repro.graph.model import plain_graph_schema        # noqa: E402
from repro.memcloud import MemoryCloud                  # noqa: E402
from repro.obs import MetricsRegistry                   # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_load.json"

MACHINES = 4
TRUNK_BITS = 6
SEED = 42


def make_cloud() -> MemoryCloud:
    return MemoryCloud(
        ClusterConfig(machines=MACHINES, trunk_bits=TRUNK_BITS),
        MetricsRegistry(),
    )


def load_scalar(edges):
    """The reference path: per-edge ingest, per-node encode + put."""
    cloud = make_cloud()
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    start = time.perf_counter()
    for src, dst in edges.tolist():
        builder.add_edge(src, dst)
    ingest = time.perf_counter() - start
    start = time.perf_counter()
    builder.finalize(bulk=False)
    finalize = time.perf_counter() - start
    return cloud, ingest, finalize


def load_bulk(edges):
    """The batched path: vectorized ingest, batch encode + bulk_put."""
    cloud = make_cloud()
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    start = time.perf_counter()
    builder.add_edges(edges)
    ingest = time.perf_counter() - start
    start = time.perf_counter()
    builder.finalize(bulk=True)
    finalize = time.perf_counter() - start
    return cloud, ingest, finalize


def _best_of(loader, edges, repeats):
    best_total = float("inf")
    best = None
    for _ in range(repeats):
        _, ingest, finalize = loader(edges)
        if ingest + finalize < best_total:
            best_total = ingest + finalize
            best = (ingest, finalize)
    return best


def cross_check(edges) -> dict:
    """Load once through each path and assert the clouds are identical.

    Bit-identical stored cells per trunk, identical per-machine trunk
    accounting.
    """
    scalar_cloud = make_cloud()
    builder = GraphBuilder(scalar_cloud, plain_graph_schema(directed=True))
    for src, dst in edges.tolist():
        builder.add_edge(src, dst)
    builder.finalize(bulk=False)

    bulk_cloud = make_cloud()
    builder = GraphBuilder(bulk_cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges)
    builder.finalize(bulk=True, cross_check=True)

    cells = 0
    for trunk_id, trunk in bulk_cloud.trunks.items():
        mine = dict(trunk.dump_cells())
        theirs = dict(scalar_cloud.trunks[trunk_id].dump_cells())
        if mine != theirs:
            raise AssertionError(
                f"trunk {trunk_id}: bulk path stored different cells "
                f"({len(mine)} vs {len(theirs)})"
            )
        cells += len(mine)
    for machine in range(MACHINES):
        bulk_stats = bulk_cloud.machine_stats(machine)
        scalar_stats = scalar_cloud.machine_stats(machine)
        if bulk_stats != scalar_stats:
            raise AssertionError(
                f"machine {machine}: trunk accounting diverges\n"
                f"  bulk:   {bulk_stats}\n"
                f"  scalar: {scalar_stats}"
            )
    return {"cells_compared": cells, "machines_compared": MACHINES}


def run_bench(scales: list[int], avg_degree: int, repeats: int) -> dict:
    bench = {
        "generator": {"kind": "rmat", "avg_degree": avg_degree,
                      "seed": SEED},
        "machines": MACHINES,
        "trunk_bits": TRUNK_BITS,
        "repeats": repeats,
        "python": platform.python_version(),
        "results": {},
    }
    for scale in scales:
        edges = rmat_edges(scale=scale, avg_degree=avg_degree, seed=SEED)
        check = cross_check(edges)
        scalar_ingest, scalar_finalize = _best_of(load_scalar, edges,
                                                  repeats)
        bulk_ingest, bulk_finalize = _best_of(load_bulk, edges, repeats)
        scalar_total = scalar_ingest + scalar_finalize
        bulk_total = bulk_ingest + bulk_finalize
        speedup = scalar_total / bulk_total if bulk_total else float("inf")
        bench["results"][f"scale_{scale}"] = {
            "nodes": int(len(set(edges.reshape(-1).tolist()))),
            "edges": int(len(edges)),
            "scalar": {"ingest_seconds": scalar_ingest,
                       "finalize_seconds": scalar_finalize,
                       "total_seconds": scalar_total},
            "bulk": {"ingest_seconds": bulk_ingest,
                     "finalize_seconds": bulk_finalize,
                     "total_seconds": bulk_total},
            "speedup": speedup,
            "cross_check": check,
        }
        print(f"scale {scale:2d}  edges {len(edges):9d}   "
              f"scalar {scalar_total * 1e3:9.1f} ms   "
              f"bulk {bulk_total * 1e3:9.1f} ms   "
              f"speedup {speedup:6.2f}x")
    return bench


def check_regression(bench: dict, baseline_path: pathlib.Path) -> None:
    """Warn (never fail) when a speedup regressed >2x vs the baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return
    baseline = json.loads(baseline_path.read_text())
    for name, entry in bench["results"].items():
        base = baseline.get("results", {}).get(name)
        if not base:
            continue
        if entry["speedup"] * 2.0 < base["speedup"]:
            print(f"::warning::perf-smoke: {name} load speedup "
                  f"{entry['speedup']:.2f}x is more than 2x below the "
                  f"committed baseline {base['speedup']:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized graphs; compares against the "
                             "committed baseline and warns on regression")
    parser.add_argument("--scale", type=int, default=None,
                        help="run a single R-MAT scale (2^scale nodes)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-k repetitions (default 3, smoke 2)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output JSON path (default BENCH_load.json; "
                             "smoke writes BENCH_load_smoke.json)")
    args = parser.parse_args()

    if args.scale is not None:
        scales = [args.scale]
    elif args.smoke:
        scales = [10, 14]
    else:
        scales = [10, 12, 14]
    repeats = args.repeats or (2 if args.smoke else 3)
    bench = run_bench(scales=scales, avg_degree=8, repeats=repeats)

    out = args.out or (RESULTS_DIR / "BENCH_load_smoke.json"
                       if args.smoke else BENCH_PATH)
    if args.smoke:
        # Compare against the committed smoke baseline (same scales)
        # before overwriting it.
        check_regression(bench, out)
    RESULTS_DIR.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
