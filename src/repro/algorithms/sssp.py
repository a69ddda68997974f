"""Single-source shortest paths — the paper's second canonical
restrictive workload ("PageRank and shortest path", Section 5.3).

:class:`SsspProgram` is the classic Pregel SSSP (Bellman-Ford waves over
optionally weighted edges); :func:`sssp` runs it on the BSP engine.
With unit weights it degenerates to BFS, which the tests exploit for
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compute.bsp import BspEngine
from ..compute.vertex import VertexProgram
from ..errors import ComputeError
from ..net.simnet import SimNetwork

INFINITY = float("inf")


class SsspProgram(VertexProgram):
    """Vertex-centric SSSP (Bellman-Ford waves).

    ``edge_weights`` aligns with ``topology.out_indices`` (one weight per
    directed edge, in CSR order); ``None`` means unit weights.  Negative
    weights are rejected: the waves assume monotone relaxation.

    Not uniform-message (each neighbor gets dist + its own edge weight),
    so hub buffering does not apply — an intentional contrast with
    PageRank in the ablation benchmarks.  Declares the ``min`` combiner.
    """

    restrictive = True
    uniform_messages = False
    combiner = "min"

    def __init__(self, root: int, edge_weights: np.ndarray | None = None):
        self.root = root
        if edge_weights is not None:
            edge_weights = np.asarray(edge_weights, dtype=np.float64)
            if (edge_weights < 0).any():
                raise ComputeError(
                    "negative edge weights are not supported"
                )
        self.edge_weights = edge_weights

    def init(self, ctx, vertex: int) -> None:
        ctx.set_value(vertex, 0.0 if vertex == self.root else INFINITY)

    def init_batch(self, ctx, block) -> None:
        block.values[:] = INFINITY
        block.values[block.ids == self.root] = 0.0

    def compute(self, ctx, vertex: int, messages: list) -> None:
        best = min(messages) if messages else INFINITY
        improved = best < ctx.value
        if improved:
            ctx.value = best
        if ctx.superstep == 0 and vertex == self.root:
            improved = True
        if improved:
            start, _ = ctx.out_edge_range()
            for offset, dst in enumerate(ctx.out_neighbors()):
                weight = (1.0 if self.edge_weights is None
                          else float(self.edge_weights[start + offset]))
                ctx.send(int(dst), ctx.value + weight)
        ctx.vote_to_halt()

    def compute_batch(self, ctx, block) -> None:
        values = block.values
        improved = block.combined < values
        values[improved] = block.combined[improved]
        if ctx.superstep == 0:
            improved |= block.ids == self.root
        if improved.any():
            distances = np.repeat(values[improved], block.degrees[improved])
            if self.edge_weights is not None:
                _, positions = block.out_edges(improved)
                messages = distances + self.edge_weights[positions]
            else:
                messages = distances + 1.0
            block.send_along_edges(improved, messages)
        block.halt()


@dataclass
class SsspRun:
    """Result of an :func:`sssp` run: distances (``inf`` where
    unreached) and each superstep's simulated time."""

    distances: np.ndarray
    iteration_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.iteration_times)

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.distances).sum())


def sssp(topology, root: int, edge_weights: np.ndarray | None = None,
         network: SimNetwork | None = None) -> SsspRun:
    """Shortest distances from dense vertex ``root``:
    :class:`SsspProgram` on a :class:`BspEngine`.

    ``edge_weights`` aligns with ``topology.out_indices`` (one weight per
    directed edge); ``None`` means unit weights.  Negative weights are
    rejected.
    """
    n = topology.n
    if not 0 <= root < n:
        raise ComputeError(f"root {root} out of range [0, {n})")
    if edge_weights is not None and len(edge_weights) != topology.num_edges:
        raise ComputeError("edge_weights must align with out_indices")
    program = SsspProgram(root, edge_weights=edge_weights)
    # With non-negative weights a distance improves only along a simple
    # path, of fewer than n edges: the last improvement is sent by
    # superstep n - 1 and superstep n sends nothing.
    result = BspEngine(topology, network=network).run(
        program, max_supersteps=n + 1)
    return SsspRun(
        distances=result.values,
        iteration_times=[step.elapsed for step in result.supersteps],
    )
