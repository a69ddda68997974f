"""Breadth-first search (Fig 12c, Fig 13; Graph 500's kernel).

:class:`BfsProgram` gives the vertex-centric reference; :func:`bfs` is
the vectorised level-synchronous runner whose per-level costs follow the
frontier (only frontier vertices compute and send — the level structure
is what makes BFS cheaper than PageRank per superstep but latency-bound
on diameter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ComputeError
from ..net.simnet import SimNetwork
from ..compute.vertex import VertexProgram
from ._traffic import TrafficModel

UNREACHED = -1


class BfsProgram(VertexProgram):
    """Vertex-centric BFS: value is the node's level (or -1).

    Declares the ``min`` combiner (a vertex only consumes
    ``min(messages)``); :meth:`compute_batch` is the vectorized kernel
    with identical semantics.
    """

    restrictive = True
    uniform_messages = True
    message_bytes = 12  # dst id + level
    combiner = "min"
    value_dtype = np.int64

    def __init__(self, root: int):
        self.root = root

    def init(self, ctx, vertex: int) -> None:
        ctx.set_value(vertex, 0 if vertex == self.root else UNREACHED)

    def init_batch(self, ctx, block) -> None:
        block.values[:] = UNREACHED
        block.values[block.ids == self.root] = 0

    def compute(self, ctx, vertex: int, messages: list) -> None:
        if ctx.superstep == 0:
            if vertex == self.root:
                ctx.send_to_neighbors(1)
            ctx.vote_to_halt()
            return
        if ctx.value == UNREACHED and messages:
            level = min(messages)
            ctx.value = level
            ctx.send_to_neighbors(level + 1)
        ctx.vote_to_halt()

    def compute_batch(self, ctx, block) -> None:
        if ctx.superstep == 0:
            roots = block.ids == self.root
            block.send_to_neighbors(
                roots, np.ones(np.count_nonzero(roots), dtype=np.int64))
            block.halt()
            return
        fresh = block.received & (block.values == UNREACHED)
        levels = block.combined[fresh]
        block.values[fresh] = levels
        block.send_to_neighbors(fresh, levels + 1)
        block.halt()


@dataclass
class BfsRun:
    """Result of a vectorised BFS."""

    levels: np.ndarray
    level_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.level_times)

    @property
    def depth(self) -> int:
        reached = self.levels[self.levels >= 0]
        return int(reached.max()) if len(reached) else 0

    @property
    def reached(self) -> int:
        return int((self.levels >= 0).sum())


def bfs(topology, root: int, network: SimNetwork | None = None,
        traffic: TrafficModel | None = None,
        hub_buffering: bool = True) -> BfsRun:
    """Level-synchronous BFS from dense vertex ``root``.

    Each level is one BSP superstep: the frontier scans its adjacency and
    messages undiscovered neighbors; cost is charged per level from the
    actual frontier (so early small levels are cheap and the big middle
    levels dominate, the classic BFS cost profile).
    """
    n = topology.n
    if not 0 <= root < n:
        raise ComputeError(f"root {root} out of range [0, {n})")
    network = network or SimNetwork()
    traffic = traffic or TrafficModel(
        topology, hub_buffering=hub_buffering, message_bytes=12
    )

    levels = np.full(n, UNREACHED, dtype=np.int64)
    levels[root] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    run = BfsRun(levels=levels)

    level = 0
    while frontier.any():
        # Discover the next frontier from the current one.
        frontier_idx = np.nonzero(frontier)[0]
        starts = topology.out_indptr[frontier_idx]
        ends = topology.out_indptr[frontier_idx + 1]
        total = int((ends - starts).sum())
        if total:
            gather = np.concatenate([
                topology.out_indices[s:e] for s, e in zip(starts, ends)
            ]) if len(frontier_idx) else np.empty(0, dtype=np.int64)
            fresh = np.unique(gather[levels[gather] == UNREACHED])
        else:
            fresh = np.empty(0, dtype=np.int64)

        pair_counts = traffic.frontier_traffic(frontier)
        active = traffic.per_machine_vertices(frontier)
        edges = traffic.per_machine_edges(frontier)
        elapsed = traffic.charge_superstep(
            network, active, edges, pair_counts
        )
        run.level_times.append(elapsed)

        level += 1
        levels[fresh] = level
        frontier = np.zeros(n, dtype=bool)
        frontier[fresh] = True
    run.levels = levels
    return run
