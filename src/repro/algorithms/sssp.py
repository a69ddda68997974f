"""Single-source shortest paths — the paper's second canonical
restrictive workload ("PageRank and shortest path", Section 5.3).

:class:`SsspProgram` is the classic Pregel SSSP; :func:`sssp` is a
vectorised frontier (Bellman-Ford) runner over optionally weighted edges.
With unit weights it degenerates to BFS, which the tests exploit for
cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ComputeError
from ..net.simnet import SimNetwork
from ..compute.vertex import VertexProgram
from ._traffic import TrafficModel

INFINITY = float("inf")


class SsspProgram(VertexProgram):
    """Vertex-centric SSSP with per-edge weight lookup.

    Weights come in one of two forms (mutually exclusive):

    * ``weights`` — a dict mapping (src, dst) dense pairs to edge weight,
      missing pairs defaulting to 1; general but unvectorizable, so such
      instances veto the batch kernel (:attr:`batch_eligible`) and run
      per-vertex (still on the combined-inbox fast path);
    * ``edge_weights`` — an array aligned with ``topology.out_indices``
      (one weight per directed edge in CSR order), which the batch kernel
      gathers directly.

    Not uniform-message (each neighbor gets dist + its own edge weight),
    so hub buffering does not apply — an intentional contrast with
    PageRank in the ablation benchmarks.  Declares the ``min`` combiner.
    """

    restrictive = True
    uniform_messages = False
    combiner = "min"

    def __init__(self, root: int, weights: dict | None = None,
                 edge_weights: np.ndarray | None = None):
        if weights and edge_weights is not None:
            raise ComputeError(
                "pass either a weights dict or an edge_weights array, "
                "not both"
            )
        self.root = root
        self.weights = weights or {}
        if edge_weights is not None:
            edge_weights = np.asarray(edge_weights, dtype=np.float64)
            if (edge_weights < 0).any():
                raise ComputeError(
                    "negative edge weights are not supported"
                )
        self.edge_weights = edge_weights

    @property
    def batch_eligible(self) -> bool:
        # A (src, dst) -> weight dict cannot be gathered vectorially.
        return not self.weights

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
            if self.edge_weights is not None:
                start, _ = ctx.out_edge_range()
                for offset, dst in enumerate(ctx.out_neighbors()):
                    ctx.send(int(dst), ctx.value
                             + float(self.edge_weights[start + offset]))
            else:
                for dst in ctx.out_neighbors():
                    dst = int(dst)
                    weight = self.weights.get((vertex, dst), 1.0)
                    ctx.send(dst, ctx.value + weight)
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
    distances: np.ndarray
    iteration_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.iteration_times)

    @property
    def reached(self) -> int:
        return int(np.isfinite(self.distances).sum())


def sssp(topology, root: int, edge_weights: np.ndarray | None = None,
         network: SimNetwork | None = None,
         traffic: TrafficModel | None = None) -> SsspRun:
    """Vectorised frontier Bellman-Ford.

    ``edge_weights`` aligns with ``topology.out_indices`` (one weight per
    directed edge); ``None`` means unit weights.  Negative weights are
    rejected — the frontier schedule assumes monotone relaxation.
    """
    n = topology.n
    if not 0 <= root < n:
        raise ComputeError(f"root {root} out of range [0, {n})")
    network = network or SimNetwork()
    traffic = traffic or TrafficModel(topology)
    edge_src = traffic.edge_src
    edge_dst = topology.out_indices
    if edge_weights is None:
        edge_weights = np.ones(len(edge_dst))
    else:
        edge_weights = np.asarray(edge_weights, dtype=np.float64)
        if len(edge_weights) != len(edge_dst):
            raise ComputeError("edge_weights must align with out_indices")
        if (edge_weights < 0).any():
            raise ComputeError("negative edge weights are not supported")

    distances = np.full(n, INFINITY)
    distances[root] = 0.0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    run = SsspRun(distances=distances)

    while frontier.any():
        pair_counts = traffic.frontier_traffic(frontier)
        active = traffic.per_machine_vertices(frontier)
        edges = traffic.per_machine_edges(frontier)

        relax = frontier[edge_src]
        candidates = distances[edge_src[relax]] + edge_weights[relax]
        new_distances = distances.copy()
        np.minimum.at(new_distances, edge_dst[relax], candidates)
        frontier = new_distances < distances
        distances = new_distances

        elapsed = traffic.charge_superstep(
            network, active, edges, pair_counts
        )
        run.iteration_times.append(elapsed)
    run.distances = distances
    return run
