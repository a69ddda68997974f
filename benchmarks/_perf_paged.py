"""Wall-clock benchmark: resident vs paged trunk storage.

Not a pytest benchmark (hence the underscore — the collector skips it):
this harness measures **real** wall-clock seconds loading a streamed
social graph (``repro.generators.stream_social_edges`` — the full edge
list never materialises) into two otherwise-identical clouds:

* resident — the in-RAM tier (anonymous arenas);
* paged — the mmap'd page-file tier with a page budget deliberately
  smaller than the graph's arena bytes, so the load and every query
  fault, evict and write back pages continuously.

After timing, a cross-check runs the same people-search queries on
both clouds and asserts bit-identical answers, then records the
``trunk.page.*`` counters that prove the paged run actually paged.
Results land in ``benchmarks/results/BENCH_paged.json``.

Usage::

    PYTHONPATH=src python benchmarks/_perf_paged.py            # full run
    PYTHONPATH=src python benchmarks/_perf_paged.py --smoke    # CI-sized

``--smoke`` also compares against the committed baseline JSON and
prints a GitHub Actions ``::warning::`` (never a failure) when the
paged slowdown regressed by more than 2x.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms.people_search import people_search  # noqa: E402
from repro.config import ClusterConfig, MemoryParams      # noqa: E402
from repro.generators import stream_build_social_graph    # noqa: E402
from repro.memcloud import MemoryCloud                    # noqa: E402
from repro.net.simnet import SimNetwork                   # noqa: E402
from repro.obs import MetricsRegistry                     # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_paged.json"

MACHINES = 2
TRUNK_BITS = 4
SEED = 42
PAGE_SIZE = 4096
PAGE_BUDGET = 2          # 8 KiB resident per trunk: far below the graph
QUERY_SEEDS = (0, 1, 2, 3)


def make_memory(storage: str) -> MemoryParams:
    return MemoryParams(trunk_size=4 * 1024 * 1024, storage=storage,
                        storage_page_size=PAGE_SIZE,
                        page_budget=PAGE_BUDGET)


def load_streamed(storage: str, n: int, avg_degree: float):
    """Stream-load one cloud; returns (cloud, graph, edges, seconds)."""
    registry = MetricsRegistry()
    cloud = MemoryCloud(
        ClusterConfig(machines=MACHINES, trunk_bits=TRUNK_BITS,
                      memory=make_memory(storage)),
        registry,
    )
    start = time.perf_counter()
    graph, edge_count = stream_build_social_graph(
        cloud, n, avg_degree=avg_degree, seed=SEED)
    elapsed = time.perf_counter() - start
    return cloud, graph, edge_count, elapsed


def run_queries(graph) -> tuple[list, float]:
    """People-search sweep; returns (results, seconds)."""
    start = time.perf_counter()
    results = [people_search(graph, seed, "David", hops=3,
                             network=SimNetwork(), batch=True)
               for seed in QUERY_SEEDS]
    return results, time.perf_counter() - start


def page_metrics(cloud) -> dict:
    """Sum the trunk.page.* series the paged storage tier emitted."""
    snap = cloud.obs.snapshot()

    def total(name: str) -> int:
        series = snap.get(name, {}).get("series", [])
        return int(sum(s["value"] for s in series))

    return {
        "fault": total("trunk.page.fault.total"),
        "evict": total("trunk.page.evict.total"),
        "writeback": total("trunk.page.writeback.total"),
        "span_fallback": total("trunk.page.span_fallback.total"),
    }


def arena_footprint(cloud) -> dict:
    """Live arena bytes vs the bytes the page budget lets stay resident."""
    live = sum(t.stats().live_bytes for t in cloud.trunks.values())
    budget = len(cloud.trunks) * PAGE_BUDGET * PAGE_SIZE
    resident = sum(
        getattr(t.storage, "resident_pages", 0) * PAGE_SIZE
        for t in cloud.trunks.values())
    return {"live_bytes": int(live), "budget_bytes": int(budget),
            "resident_bytes": int(resident)}


def run_one_scale(n: int, avg_degree: float) -> dict:
    res_cloud, res_graph, res_edges, res_load = load_streamed(
        "resident", n, avg_degree)
    pag_cloud, pag_graph, pag_edges, pag_load = load_streamed(
        "paged", n, avg_degree)
    try:
        if res_edges != pag_edges:
            raise AssertionError(
                f"streamed edge counts diverge: {res_edges} vs {pag_edges}")

        res_results, res_query = run_queries(res_graph)
        pag_results, pag_query = run_queries(pag_graph)
        for seed, a, b in zip(QUERY_SEEDS, res_results, pag_results):
            if sorted(a.matches) != sorted(b.matches) or \
                    a.visited != b.visited:
                raise AssertionError(
                    f"seed {seed}: paged answer diverges from resident")

        footprint = arena_footprint(pag_cloud)
        if footprint["live_bytes"] <= PAGE_BUDGET * PAGE_SIZE:
            print(f"::warning::perf-paged: n={n} graph fits one trunk's "
                  f"page budget; sweep is not exercising eviction")
        metrics = page_metrics(pag_cloud)
        slowdown = ((pag_load + pag_query) / (res_load + res_query)
                    if res_load + res_query else float("inf"))
        return {
            "nodes": n,
            "edges": int(res_edges),
            "resident": {"load_seconds": res_load,
                         "query_seconds": res_query},
            "paged": {"load_seconds": pag_load,
                      "query_seconds": pag_query,
                      "page_metrics": metrics,
                      "footprint": footprint},
            "slowdown": slowdown,
            "cross_check": {"queries_compared": len(QUERY_SEEDS),
                            "identical": True},
        }
    finally:
        res_cloud.release_arenas()
        pag_cloud.release_arenas()


def run_bench(sizes: list[int], avg_degree: float) -> dict:
    bench = {
        "generator": {"kind": "streamed-chung-lu",
                      "avg_degree": avg_degree, "seed": SEED},
        "machines": MACHINES,
        "trunk_bits": TRUNK_BITS,
        "page_size": PAGE_SIZE,
        "page_budget": PAGE_BUDGET,
        "python": platform.python_version(),
        "results": {},
    }
    for n in sizes:
        entry = run_one_scale(n, avg_degree)
        bench["results"][f"n_{n}"] = entry
        m = entry["paged"]["page_metrics"]
        print(f"n {n:7d}  edges {entry['edges']:8d}   "
              f"resident {(entry['resident']['load_seconds'] + entry['resident']['query_seconds']) * 1e3:8.1f} ms   "
              f"paged {(entry['paged']['load_seconds'] + entry['paged']['query_seconds']) * 1e3:8.1f} ms   "
              f"slowdown {entry['slowdown']:5.2f}x   "
              f"faults {m['fault']:6d}  evicts {m['evict']:6d}  "
              f"writebacks {m['writeback']:6d}")
    return bench


def check_regression(bench: dict, baseline_path: pathlib.Path) -> None:
    """Warn (never fail) when paged slowdown regressed >2x vs baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return
    baseline = json.loads(baseline_path.read_text())
    for name, entry in bench["results"].items():
        base = baseline.get("results", {}).get(name)
        if not base:
            continue
        if entry["slowdown"] > base["slowdown"] * 2.0:
            print(f"::warning::perf-paged: {name} slowdown "
                  f"{entry['slowdown']:.2f}x is more than 2x above the "
                  f"committed baseline {base['slowdown']:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized graphs; compares against the "
                             "committed baseline and warns on regression")
    parser.add_argument("--nodes", type=int, default=None,
                        help="run a single graph size")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output JSON path (default BENCH_paged.json)")
    args = parser.parse_args()

    if args.nodes is not None:
        sizes = [args.nodes]
    elif args.smoke:
        sizes = [4000]
    else:
        sizes = [4000, 8000, 20000]
    bench = run_bench(sizes=sizes, avg_degree=8.0)

    out = args.out or BENCH_PATH
    if args.smoke:
        # Compare against the committed baseline before overwriting it.
        check_regression(bench, out)
    RESULTS_DIR.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
