"""Offline analytics: PageRank over an R-MAT web graph (Section 5.3).

Runs ``PageRankProgram`` on the vertex-centric BSP engine — the one way
an analytic runs here (``repro.algorithms.pagerank`` is this same run).
The program declares the ``sum`` combiner and both batch kernels, so the
engine runs it on the vectorized fast path (dense combined-inbox arrays,
one numpy kernel per machine slice); passing ``vectorize=False`` forces
the per-vertex reference path, which this example times for contrast
(identical values and identical simulated accounting, very different
wall clock).  Then compares against the Giraph cost simulator to
illustrate the Figure 12(d) gap.

Run:  python examples/web_pagerank.py
"""

import time

import numpy as np

from repro import ClusterConfig, MemoryParams
from repro.algorithms import PageRankProgram
from repro.baselines.giraph import giraph_from_topology
from repro.compute import BspEngine
from repro.generators import rmat_edges
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud

SCALE = 12           # 4096 pages
MACHINES = 8
ITERATIONS = 10


def main() -> None:
    edges = rmat_edges(scale=SCALE, avg_degree=13, seed=7)
    print(f"R-MAT web graph: 2^{SCALE} pages, {len(edges)} links")
    cloud = MemoryCloud(ClusterConfig(
        machines=MACHINES, trunk_bits=8,
        memory=MemoryParams(trunk_size=16 * 1024 * 1024),
    ))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges.tolist())
    graph = builder.finalize()
    topology = CsrTopology(graph)

    # --- vertex-centric engine (the programming model) -------------------
    # PageRankProgram declares combiner="sum" and both batch kernels, so
    # this runs on the vectorized fast path by default.
    engine = BspEngine(topology)
    start = time.perf_counter()
    result = engine.run(PageRankProgram(iterations=ITERATIONS),
                        max_supersteps=ITERATIONS + 1)
    fast_wall = time.perf_counter() - start
    engine_ranks = np.array(result.values)
    per_superstep = result.elapsed / result.superstep_count
    print(f"\nBSP engine (vectorized): {result.superstep_count} "
          f"supersteps, simulated {result.elapsed * 1e3:.1f} ms total, "
          f"wall {fast_wall * 1e3:.0f} ms")
    first = result.supersteps[0]
    print(f"  superstep 0: {first.messages} messages, "
          f"{first.remote_transfers} wire transfers after hub buffering")

    # The per-vertex reference path: same values bit-for-bit, same
    # simulated accounting, interpreter-bound wall clock.
    reference_engine = BspEngine(topology, vectorize=False)
    start = time.perf_counter()
    reference = reference_engine.run(PageRankProgram(iterations=ITERATIONS),
                                     max_supersteps=ITERATIONS + 1)
    ref_wall = time.perf_counter() - start
    identical = np.array_equal(np.array(reference.values), engine_ranks)
    print(f"  per-vertex reference path: wall {ref_wall * 1e3:.0f} ms "
          f"({ref_wall / fast_wall:.1f}x slower), values bit-identical: "
          f"{identical}")

    top = np.argsort(-engine_ranks)[:5]
    print("\ntop pages by rank:")
    for dense in top:
        print(f"  page {int(topology.node_ids[dense]):6d}  "
              f"rank {engine_ranks[dense]:.5f}")

    # --- the Figure 12(d) contrast ----------------------------------------
    giraph = giraph_from_topology(topology).run_pagerank(
        supersteps=ITERATIONS
    )
    print(f"\nGiraph cost model on the same graph/machines: "
          f"{giraph.time_per_superstep:.1f} s per superstep "
          f"(Hadoop scheduling dominates at this scale) vs Trinity's "
          f"{per_superstep * 1e3:.2f} ms")


if __name__ == "__main__":
    main()
