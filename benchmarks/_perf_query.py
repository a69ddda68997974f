"""Wall-clock benchmark: batched online traversal vs the scalar path.

Not a pytest benchmark (hence the underscore — the collector skips it):
this harness measures **real** wall-clock seconds, best-of-k, running
the online queries of Section 5 over a seeded named R-MAT social graph
two ways:

* scalar — one ``cloud.get`` plus one whole-cell decode per frontier
  node (``batch=False``);
* batch — per hop, one vectorized ownership pass plus one
  ``bulk_get_spans``/CSR column decode per machine group (``batch=True``).

Workloads: 3-hop people search from a set of start nodes, and a
multi-hop TQL query.  Before timing, every workload runs once with
``cross_check=True`` — the batched path shadow-replays the scalar path
and raises on any divergence — so the timed numbers are known to
compute identical answers.  Results land in
``benchmarks/results/BENCH_query.json``.

Usage::

    PYTHONPATH=src python benchmarks/_perf_query.py            # full run
    PYTHONPATH=src python benchmarks/_perf_query.py --smoke    # CI-sized

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

from _harness import build_social_graph                    # noqa: E402
from repro.algorithms.people_search import people_search   # noqa: E402
from repro.net.simnet import SimNetwork                    # noqa: E402
from repro.tql.engine import execute_tql                   # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_query.json"

MACHINES = 4
TRUNK_BITS = 4  # 4 trunks per machine: keeps per-trunk batches large
SEED = 42
HOPS = 3
STARTS = [0, 3, 17, 101]
TQL_QUERY = ("MATCH (a = 0) -[Friends*1..3]-> (b {Name: 'David'}) "
             "RETURN b")


def build_graph(scale: int, avg_degree: float):
    return build_social_graph(scale, avg_degree, machines=MACHINES,
                              trunk_bits=TRUNK_BITS, seed=SEED)


def time_people_search(graph, batch: bool, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for node in STARTS:
            people_search(graph, node, "David", hops=HOPS,
                          network=SimNetwork(), batch=batch)
        best = min(best, time.perf_counter() - start)
    return best


def time_tql(graph, batch: bool, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        execute_tql(graph, TQL_QUERY, network=SimNetwork(), batch=batch)
        best = min(best, time.perf_counter() - start)
    return best


def cross_check(graph) -> dict:
    """Run every timed workload once with the scalar shadow replay on.

    ``cross_check=True`` raises DivergenceError if the batched path
    ever disagrees with the scalar one — on matches, visited sets,
    messages, rows, cost accounting, or simulated time.
    """
    total_matches = 0
    for node in STARTS:
        result = people_search(graph, node, "David", hops=HOPS,
                               network=SimNetwork(), batch=True,
                               cross_check=True)
        total_matches += len(result.matches)
    tql = execute_tql(graph, TQL_QUERY, network=SimNetwork(),
                      batch=True, cross_check=True)
    return {
        "people_search_starts": len(STARTS),
        "people_search_matches": total_matches,
        "tql_rows": len(tql.rows),
    }


def run_bench(scales: list[int], avg_degree: float, repeats: int) -> dict:
    bench = {
        "generator": {"kind": "rmat", "avg_degree": avg_degree,
                      "seed": SEED},
        "machines": MACHINES,
        "trunk_bits": TRUNK_BITS,
        "hops": HOPS,
        "repeats": repeats,
        "python": platform.python_version(),
        "results": {},
    }
    for scale in scales:
        graph, edge_count = build_graph(scale, avg_degree)
        check = cross_check(graph)
        ps_scalar = time_people_search(graph, batch=False, repeats=repeats)
        ps_batch = time_people_search(graph, batch=True, repeats=repeats)
        tql_scalar = time_tql(graph, batch=False, repeats=repeats)
        tql_batch = time_tql(graph, batch=True, repeats=repeats)
        ps_speedup = ps_scalar / ps_batch if ps_batch else float("inf")
        tql_speedup = tql_scalar / tql_batch if tql_batch else float("inf")
        bench["results"][f"scale_{scale}"] = {
            "nodes": 1 << scale,
            "edges": edge_count,
            "people_search": {
                "scalar_seconds": ps_scalar,
                "batch_seconds": ps_batch,
                "speedup": ps_speedup,
            },
            "tql": {
                "scalar_seconds": tql_scalar,
                "batch_seconds": tql_batch,
                "speedup": tql_speedup,
            },
            "cross_check": check,
        }
        print(f"scale {scale:2d}  edges {edge_count:8d}   "
              f"people-search {ps_scalar * 1e3:8.1f} -> "
              f"{ps_batch * 1e3:7.1f} ms ({ps_speedup:5.2f}x)   "
              f"tql {tql_scalar * 1e3:8.1f} -> "
              f"{tql_batch * 1e3:7.1f} ms ({tql_speedup:5.2f}x)")
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
        for workload in ("people_search", "tql"):
            measured = entry[workload]["speedup"]
            committed = base.get(workload, {}).get("speedup")
            if committed and measured * 2.0 < committed:
                print(f"::warning::perf-smoke: {name} {workload} speedup "
                      f"{measured:.2f}x is more than 2x below the "
                      f"committed baseline {committed:.2f}x")


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
                        help="output JSON path (default BENCH_query.json; "
                             "smoke writes BENCH_query_smoke.json)")
    args = parser.parse_args()

    if args.scale is not None:
        scales = [args.scale]
    elif args.smoke:
        scales = [10]
    else:
        scales = [10, 12, 14]
    repeats = args.repeats or (2 if args.smoke else 3)
    bench = run_bench(scales=scales, avg_degree=8, repeats=repeats)

    out = args.out or (RESULTS_DIR / "BENCH_query_smoke.json"
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
