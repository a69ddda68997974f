"""Triangle counting — a standard restrictive vertex-centric workload.

Along with PageRank and shortest paths, triangle counting is one of the
well-known algorithms expressible in the restrictive model (each vertex
talks only to its neighbors): every vertex sends its neighbor list to
its higher-id neighbors, which intersect it with their own.  The
vectorised runner uses the standard ordered-adjacency merge over the CSR
snapshot with the same traffic accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.simnet import SimNetwork
from ..compute.vertex import VertexProgram
from ._traffic import TrafficModel


class TriangleProgram(VertexProgram):
    """Vertex-centric triangle counting over an undirected topology.

    Superstep 0: every vertex sends its higher-id neighbor set to each
    higher-id neighbor.  Superstep 1: each vertex intersects the
    received sets with its own adjacency and accumulates the global
    count in the ``triangles`` aggregator (each triangle is counted
    exactly once, at its middle vertex).
    """

    restrictive = True
    uniform_messages = True  # the same neighbor set goes to everyone

    def compute(self, ctx, vertex: int, messages: list) -> None:
        neighbors = [int(v) for v in ctx.out_neighbors()]
        higher = sorted(v for v in set(neighbors) if v > vertex)
        if ctx.superstep == 0:
            ctx.set_value(vertex, 0)
            if higher:
                for target in higher:
                    ctx.send(target, (vertex, tuple(higher)))
        else:
            mine = set(higher)
            found = 0
            for sender, candidates in messages:
                for candidate in candidates:
                    if candidate > vertex and candidate in mine:
                        found += 1
            if found:
                ctx.set_value(vertex, found)
                ctx.aggregate("triangles", float(found))
        ctx.vote_to_halt()

    def after_superstep(self, ctx) -> None:
        pass


@dataclass
class TriangleRun:
    count: int
    per_vertex: np.ndarray = field(default=None)
    elapsed: float = 0.0


def count_triangles(topology, network: SimNetwork | None = None) -> TriangleRun:
    """Vectorised triangle count over a symmetric (undirected) CSR.

    Classic merge-intersection on sorted higher-id adjacency; traffic is
    charged as one superstep of neighbor-set exchange along the edges to
    higher-id endpoints.
    """
    network = network or SimNetwork()
    n = topology.n
    # Sorted, deduplicated higher-id adjacency per vertex.
    higher: list[np.ndarray] = []
    for vertex in range(n):
        neighbors = np.unique(topology.out_neighbors(vertex))
        higher.append(neighbors[neighbors > vertex])

    per_vertex = np.zeros(n, dtype=np.int64)
    total = 0
    for u in range(n):
        adjacency_u = higher[u]
        set_u = set(adjacency_u.tolist())
        for v in adjacency_u:
            common = set_u.intersection(higher[int(v)].tolist())
            if common:
                per_vertex[int(v)] += len(common)
                total += len(common)

    traffic = TrafficModel(topology, hub_buffering=True)
    pair_counts = traffic.full_broadcast_traffic()
    active = traffic.per_machine_vertices()
    edges = traffic.per_machine_edges()
    elapsed = traffic.charge_superstep(
        network, active, edges, pair_counts
    )
    return TriangleRun(count=total, per_vertex=per_vertex, elapsed=elapsed)
