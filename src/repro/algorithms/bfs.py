"""Breadth-first search (Fig 12c, Fig 13; Graph 500's kernel).

:class:`BfsProgram` is the vertex program; :func:`bfs` runs it on the
BSP engine, one superstep per level.  Per-level costs follow the
frontier (only frontier vertices compute and send — the level structure
is what makes BFS cheaper than PageRank per superstep but latency-bound
on diameter).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compute.bsp import BspEngine
from ..compute.vertex import VertexProgram
from ..errors import ComputeError
from ..net.simnet import SimNetwork

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
    """Result of a :func:`bfs` run: levels and each superstep's
    simulated time."""

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


def bfs(topology, root: int, network: SimNetwork | None = None) -> BfsRun:
    """Level-synchronous BFS from dense vertex ``root``:
    :class:`BfsProgram` on a :class:`BspEngine`.

    Each level is one superstep: only the frontier scans its adjacency
    and sends, so early small levels are cheap and the big middle levels
    dominate, the classic BFS cost profile.
    """
    n = topology.n
    if not 0 <= root < n:
        raise ComputeError(f"root {root} out of range [0, {n})")
    engine = BspEngine(topology, network=network)
    # Superstep d sets and sends level d < n; the superstep after the
    # last level sends nothing, so the run quiesces within n + 1.
    result = engine.run(BfsProgram(root), max_supersteps=n + 1)
    return BfsRun(
        levels=result.values,
        level_times=[step.elapsed for step in result.supersteps],
    )
