"""Triangle counting — a standard restrictive vertex-centric workload.

Along with PageRank and shortest paths, triangle counting is one of the
well-known algorithms expressible in the restrictive model (each vertex
talks only to its neighbors): every vertex sends its neighbor list to
its higher-id neighbors, which intersect it with their own.
:func:`count_triangles` runs :class:`TriangleProgram` on the BSP engine;
it has no combiner (a vertex reads each neighbor set), so it takes the
engine's per-vertex path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compute.bsp import BspEngine
from ..compute.vertex import VertexProgram
from ..net.simnet import SimNetwork


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


@dataclass
class TriangleRun:
    count: int
    per_vertex: np.ndarray = field(default=None)
    elapsed: float = 0.0


def count_triangles(topology, network: SimNetwork | None = None) -> TriangleRun:
    """Triangle count over a symmetric (undirected) CSR:
    :class:`TriangleProgram` on a :class:`BspEngine`.

    ``per_vertex`` credits each triangle to its middle vertex.
    """
    # Superstep 0 sends the neighbor sets; superstep 1 intersects them
    # and sends nothing.
    result = BspEngine(topology, network=network).run(
        TriangleProgram(), max_supersteps=2)
    per_vertex = np.asarray(result.values, dtype=np.int64)
    return TriangleRun(count=int(per_vertex.sum()), per_vertex=per_vertex,
                       elapsed=result.elapsed)
