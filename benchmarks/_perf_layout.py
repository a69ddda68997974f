"""Wall-clock + footprint benchmark: raw vs adaptive adjacency layouts.

Not a pytest benchmark (hence the underscore — the collector skips it):
this harness loads the same seeded R-MAT social graph under the raw
fixed-width layout policy and the adaptive per-cell one
(``MemoryParams(layout_policy="adaptive")`` — delta-varint and bitmap
codecs chosen per cell by degree/id-span stats), then measures

* the stored adjacency footprint per layout tag (the win the adaptive
  policy exists for), and
* hub-heavy online query latency — people-search flood from the
  highest-degree vertices plus a multi-hop TQL traversal — raw vs
  adaptive, batch path (the decode cost the codecs must not regress),
  and
* the same hub-heavy people-search through the serving layer (PR 7:
  fusion windows + the epoch-valid hub-adjacency cache), which is the
  deployment shape the adaptive layouts target: hot hub lists decode
  once per epoch and are then served from cache, so the extra varint
  passes amortize to parity while the footprint win stands.

Before timing, every workload runs once with ``cross_check=True`` on
all four configs {resident, paged} x {raw, adaptive}, and the answers
are compared across configs: the layout dimension must be invisible to
results.  Results land in ``benchmarks/results/BENCH_layout.json``.

Usage::

    PYTHONPATH=src python benchmarks/_perf_layout.py            # full run
    PYTHONPATH=src python benchmarks/_perf_layout.py --smoke    # CI-sized

``--smoke`` also compares against the committed baseline JSON and
prints a GitHub Actions ``::warning::`` (never a failure) when the
adaptive/raw query ratio regressed by more than 2x or the footprint
win shrank below the baseline's by more than a third.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np                                         # noqa: E402

from repro.algorithms.people_search import people_search   # noqa: E402
from repro.config import ClusterConfig, MemoryParams       # noqa: E402
from repro.generators import rmat_edges                    # noqa: E402
from repro.generators.names import sample_names            # noqa: E402
from repro.graph import GraphBuilder                       # noqa: E402
from repro.graph.model import social_graph_schema          # noqa: E402
from repro.memcloud import MemoryCloud                     # noqa: E402
from repro.net.simnet import SimNetwork                    # noqa: E402
from repro.obs import MetricsRegistry                      # noqa: E402
from repro.serve import (                                  # noqa: E402
    PeopleSearchQuery,
    QueryServer,
    ServeConfig,
)
from repro.tql.engine import execute_tql                   # noqa: E402
from repro.tsl import (                                    # noqa: E402
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    AdjacencyListType,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_layout.json"

MACHINES = 4
TRUNK_BITS = 4
SEED = 42
HOPS = 3
HUB_STARTS = 4           # people-search floods from the top-degree hubs
SERVE_HUBS = 8           # distinct hub starts in the served stream
SERVE_ROUNDS = 6         # each hub start repeats this often in the stream
TARGET_NAME = "David"

CONFIGS = [(storage, policy)
           for storage in ("resident", "paged")
           for policy in ("raw", "adaptive")]

_LAYOUT_NAMES = {LAYOUT_RAW: "raw", LAYOUT_DELTA_VARINT: "delta_varint",
                 LAYOUT_BITMAP: "bitmap"}


def build_graph(scale: int, avg_degree: float, storage: str, policy: str):
    """Seeded named R-MAT friendship graph under one layout policy."""
    cloud = MemoryCloud(
        ClusterConfig(machines=MACHINES, trunk_bits=TRUNK_BITS,
                      memory=MemoryParams(trunk_size=64 * 1024 * 1024,
                                          storage=storage,
                                          layout_policy=policy)),
        MetricsRegistry(),
    )
    n = 1 << scale
    edges = rmat_edges(scale, avg_degree=avg_degree, seed=SEED)
    builder = GraphBuilder(cloud, social_graph_schema())
    for node_id, name in enumerate(sample_names(n, seed=SEED + 1)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges.tolist())
    return cloud, builder.finalize(), int(len(edges))


def adjacency_footprint(graph) -> dict:
    """Stored adjacency bytes and list counts per layout tag."""
    node_type = graph.graph_schema.node_type
    fields = [(name, tsl_type) for name, tsl_type in node_type.fields
              if isinstance(tsl_type, AdjacencyListType)]
    bytes_by = dict.fromkeys(_LAYOUT_NAMES.values(), 0)
    lists_by = dict.fromkeys(_LAYOUT_NAMES.values(), 0)
    for uid in graph.node_ids:
        blob = graph.cloud.get(uid)
        for name, tsl_type in fields:
            offset = node_type.field_offset(blob, name)
            end = tsl_type.skip(blob, offset)
            layout = _LAYOUT_NAMES[tsl_type.stored_layout(blob, offset)]
            bytes_by[layout] += end - offset
            lists_by[layout] += 1
    return {"total_bytes": sum(bytes_by.values()),
            "bytes": bytes_by, "lists": lists_by}


def hub_nodes(graph, count: int) -> list[int]:
    node_ids = np.asarray(sorted(graph.node_ids), dtype=np.int64)
    degrees = graph.degree_batch(node_ids)
    order = np.argsort(degrees)[::-1][:count]
    return [int(node_ids[i]) for i in order]


def tql_query(hub: int) -> str:
    return (f"MATCH (a = {hub}) -[Friends*1..{HOPS}]-> "
            f"(b {{Name: '{TARGET_NAME}'}}) RETURN b")


def run_workloads(graph, hubs, cross_check: bool) -> dict:
    """One pass of both workloads; returns comparable answer signatures."""
    signatures = {}
    for hub in hubs:
        result = people_search(graph, hub, TARGET_NAME, hops=HOPS,
                               network=SimNetwork(), batch=True,
                               cross_check=cross_check)
        signatures[f"ps_{hub}"] = (sorted(result.matches), result.visited)
    tql = execute_tql(graph, tql_query(hubs[0]), network=SimNetwork(),
                      batch=True, cross_check=cross_check)
    signatures["tql"] = sorted(map(str, tql.rows))
    return signatures


def time_people_search(graph, hubs, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for hub in hubs:
            people_search(graph, hub, TARGET_NAME, hops=HOPS,
                          network=SimNetwork(), batch=True)
        best = min(best, time.perf_counter() - start)
    return best


def time_tql(graph, hubs, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        execute_tql(graph, tql_query(hubs[0]), network=SimNetwork(),
                    batch=True)
        best = min(best, time.perf_counter() - start)
    return best


def time_served_people_search(graph, hubs, repeats: int
                              ) -> tuple[float, list]:
    """Best wall-clock for a hub-heavy served query stream.

    Submits ``SERVE_ROUNDS`` rounds of people-search over the hub
    starts through :class:`QueryServer` with fusion and the hub
    adjacency cache on (the result cache stays off so every query
    actually traverses).  Returns ``(best_seconds, signatures)`` —
    the answers, for cross-config comparison.
    """
    best, signatures = float("inf"), None
    for _ in range(repeats):
        config = ServeConfig(result_cache=False, hub_cache=True)
        server = QueryServer(graph, config, registry=MetricsRegistry())
        start = time.perf_counter()
        tickets = [server.submit(PeopleSearchQuery(hub, TARGET_NAME,
                                                   hops=HOPS))
                   for _ in range(SERVE_ROUNDS) for hub in hubs]
        server.run()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
        signatures = [(tuple(t.result["matches"]), t.result["visited"])
                      for t in tickets]
    return best, signatures


def run_one_scale(scale: int, avg_degree: float, repeats: int) -> dict:
    clouds, graphs = {}, {}
    try:
        edge_count = None
        for storage, policy in CONFIGS:
            cloud, graph, edges = build_graph(scale, avg_degree,
                                              storage, policy)
            clouds[(storage, policy)] = cloud
            graphs[(storage, policy)] = graph
            if edge_count is None:
                edge_count = edges
            elif edges != edge_count:
                raise AssertionError("edge counts diverge across configs")

        hubs = hub_nodes(graphs[("resident", "raw")], HUB_STARTS)

        # Bit-identity sweep: cross_check=True shadow-replays the scalar
        # path inside each config; comparing signatures across configs
        # then pins raw == adaptive and resident == paged.
        reference = None
        for key in CONFIGS:
            signature = run_workloads(graphs[key], hubs, cross_check=True)
            if reference is None:
                reference = signature
            elif signature != reference:
                raise AssertionError(
                    f"{key[0]}/{key[1]}: answers diverge from "
                    f"resident/raw on the same graph")

        footprint = {policy: adjacency_footprint(
            graphs[("resident", policy)]) for policy in ("raw", "adaptive")}
        raw_bytes = footprint["raw"]["total_bytes"]
        adaptive_bytes = footprint["adaptive"]["total_bytes"]
        reduction = 1.0 - adaptive_bytes / raw_bytes if raw_bytes else 0.0

        serve_hubs = hub_nodes(graphs[("resident", "raw")], SERVE_HUBS)
        timings, served_sigs = {}, {}
        for policy in ("raw", "adaptive"):
            graph = graphs[("resident", policy)]
            served_seconds, served_sigs[policy] = time_served_people_search(
                graph, serve_hubs, repeats)
            timings[policy] = {
                "people_search_seconds": time_people_search(graph, hubs,
                                                            repeats),
                "tql_seconds": time_tql(graph, hubs, repeats),
                "served_people_search_seconds": served_seconds,
            }
        if served_sigs["adaptive"] != served_sigs["raw"]:
            raise AssertionError(
                "served people-search answers diverge raw vs adaptive")
        ps_ratio = (timings["adaptive"]["people_search_seconds"]
                    / timings["raw"]["people_search_seconds"])
        tql_ratio = (timings["adaptive"]["tql_seconds"]
                     / timings["raw"]["tql_seconds"])
        served_ratio = (timings["adaptive"]["served_people_search_seconds"]
                        / timings["raw"]["served_people_search_seconds"])

        return {
            "scale": scale,
            "nodes": 1 << scale,
            "edges": edge_count,
            "hub_starts": hubs,
            "footprint": {
                "raw": footprint["raw"],
                "adaptive": footprint["adaptive"],
                "adjacency_reduction": reduction,
            },
            "timings": timings,
            "people_search_adaptive_over_raw": ps_ratio,
            "tql_adaptive_over_raw": tql_ratio,
            "served_people_search_adaptive_over_raw": served_ratio,
            "serve_stream": {
                "hub_starts": serve_hubs,
                "rounds": SERVE_ROUNDS,
                "queries": SERVE_ROUNDS * len(serve_hubs),
            },
            "cross_check": {
                "configs": [f"{s}/{p}" for s, p in CONFIGS],
                "workloads": ["people_search", "tql",
                              "served_people_search"],
                "identical": True,
            },
        }
    finally:
        for cloud in clouds.values():
            cloud.release_arenas()


def run_bench(scales: list[int], avg_degree: float, repeats: int) -> dict:
    bench = {
        "generator": {"kind": "rmat-social", "avg_degree": avg_degree,
                      "seed": SEED},
        "machines": MACHINES,
        "trunk_bits": TRUNK_BITS,
        "hops": HOPS,
        "python": platform.python_version(),
        "results": {},
    }
    for scale in scales:
        entry = run_one_scale(scale, avg_degree, repeats)
        bench["results"][f"scale_{scale}"] = entry
        fp = entry["footprint"]
        print(f"scale {scale:2d}  edges {entry['edges']:8d}   "
              f"adjacency {fp['raw']['total_bytes']:9,d} -> "
              f"{fp['adaptive']['total_bytes']:9,d} B "
              f"({fp['adjacency_reduction'] * 100:5.1f}% saved)   "
              f"ps x{entry['people_search_adaptive_over_raw']:.2f}  "
              f"served x{entry['served_people_search_adaptive_over_raw']:.2f}"
              f"  tql x{entry['tql_adaptive_over_raw']:.2f}")
        if fp["adjacency_reduction"] < 0.25 and scale >= 14:
            print(f"::warning::perf-layout: scale {scale} adjacency "
                  f"reduction {fp['adjacency_reduction'] * 100:.1f}% is "
                  f"below the 25% target")
        served = entry["served_people_search_adaptive_over_raw"]
        if served > 1.10 and scale >= 14:
            print(f"::warning::perf-layout: scale {scale} served "
                  f"people-search is x{served:.2f} adaptive/raw — the "
                  f"hub cache should amortize decode to parity")
    return bench


def check_regression(bench: dict, baseline_path: pathlib.Path) -> None:
    """Warn (never fail) on regression against the committed baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return
    baseline = json.loads(baseline_path.read_text())
    for name, entry in bench["results"].items():
        base = baseline.get("results", {}).get(name)
        if not base:
            continue
        for key in ("people_search_adaptive_over_raw",
                    "served_people_search_adaptive_over_raw",
                    "tql_adaptive_over_raw"):
            if key not in base:
                continue
            if entry[key] > base[key] * 2.0:
                print(f"::warning::perf-layout: {name} {key} "
                      f"{entry[key]:.2f} is more than 2x above the "
                      f"committed baseline {base[key]:.2f}")
        got = entry["footprint"]["adjacency_reduction"]
        want = base["footprint"]["adjacency_reduction"]
        if got < want * (2 / 3):
            print(f"::warning::perf-layout: {name} adjacency reduction "
                  f"{got * 100:.1f}% shrank vs the committed baseline "
                  f"{want * 100:.1f}%")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized graph; compares against the "
                             "committed baseline and warns on regression")
    parser.add_argument("--scale", type=int, default=None,
                        help="run a single graph scale")
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output JSON path (default BENCH_layout.json)")
    args = parser.parse_args()

    if args.scale is not None:
        scales = [args.scale]
    elif args.smoke:
        scales = [10]
    else:
        scales = [12, 14]
    repeats = args.repeats or (2 if args.smoke else 3)
    bench = run_bench(scales=scales, avg_degree=13.0, repeats=repeats)

    out = args.out or (RESULTS_DIR / "BENCH_layout_smoke.json"
                       if args.smoke else BENCH_PATH)
    if args.smoke:
        # Compare against the committed baseline before overwriting it.
        check_regression(bench, out)
    RESULTS_DIR.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
