"""PageRank: the paper's flagship offline analytics workload (Fig 12b).

:class:`PageRankProgram` is a restrictive, uniform-message vertex
program; :func:`pagerank` runs it on the BSP engine and reports the
ranks with each superstep's simulated time.  :func:`pagerank_async` is
the asynchronous (delta) formulation on the async engine.

Dangling vertices redistribute their rank mass uniformly, the standard
formulation (and what makes the rank vector a probability distribution,
which the property tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compute.bsp import BspEngine
from ..compute.vertex import VertexProgram
from ..errors import ComputeError
from ..net.simnet import SimNetwork


class PageRankProgram(VertexProgram):
    """Vertex-centric PageRank for :class:`~repro.compute.bsp.BspEngine`.

    Runs a fixed number of power iterations; dangling mass is collected
    through the ``dangling`` aggregator and folded in next superstep.

    Declares the ``sum`` combiner (a vertex only ever consumes
    ``sum(messages)``), so the engine runs it on the vectorized path;
    :meth:`compute_batch` is the numpy kernel with identical semantics,
    bit for bit (the equivalence tests and a checked run assert this).
    """

    restrictive = True
    uniform_messages = True
    combiner = "sum"

    def __init__(self, damping: float = 0.85, iterations: int = 10):
        if not 0.0 < damping < 1.0:
            raise ComputeError("damping must be in (0, 1)")
        self.damping = damping
        self.iterations = iterations

    def init(self, ctx, vertex: int) -> None:
        ctx.set_value(vertex, 1.0 / ctx.num_vertices)

    def init_batch(self, ctx, block) -> None:
        block.values[:] = 1.0 / ctx.num_vertices

    def compute(self, ctx, vertex: int, messages: list) -> None:
        n = ctx.num_vertices
        if ctx.superstep > 0:
            dangling = ctx.aggregated("dangling") / n
            ctx.value = ((1.0 - self.damping) / n
                         + self.damping * (sum(messages) + dangling))
        if ctx.superstep < self.iterations:
            degree = ctx.out_degree()
            if degree:
                ctx.send_to_neighbors(ctx.value / degree)
            else:
                ctx.aggregate("dangling", ctx.value)
        else:
            ctx.vote_to_halt()

    def compute_batch(self, ctx, block) -> None:
        n = ctx.num_vertices
        values = block.values
        if ctx.superstep > 0:
            dangling = ctx.aggregated("dangling") / n
            values[:] = ((1.0 - self.damping) / n
                         + self.damping * (block.combined + dangling))
        if ctx.superstep < self.iterations:
            degrees = block.degrees
            # The whole block broadcasts: a vertex without out-edges
            # sends to nobody, so its share (divided by 1) is never read.
            block.send_to_neighbors(None, values / np.maximum(degrees, 1))
            # One sequential fold in vertex order: the same
            # left-to-right float accumulation the per-vertex path makes.
            ctx.aggregate("dangling", values[degrees == 0])
        else:
            block.halt()


@dataclass
class PageRankRun:
    """Result of a :func:`pagerank` run: the ranks and each superstep's
    simulated time (``iterations`` broadcasts, then the final apply)."""

    ranks: np.ndarray
    iteration_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.iteration_times)

    @property
    def time_per_iteration(self) -> float:
        if not self.iteration_times:
            return 0.0
        return self.elapsed / len(self.iteration_times)


def pagerank(topology, damping: float = 0.85, iterations: int = 10,
             network: SimNetwork | None = None) -> PageRankRun:
    """PageRank: :class:`PageRankProgram` on a :class:`BspEngine`, with
    the simulated time of every superstep.

    PageRank's communication is a full broadcast every superstep, so the
    engine builds one send plan and re-applies it — the "predictable
    iteration after iteration" property Section 5.3 exploits.
    """
    if iterations < 1:
        raise ComputeError("iterations must be >= 1")
    engine = BspEngine(topology, network=network)
    # Supersteps 0 .. iterations - 1 broadcast; superstep ``iterations``
    # applies the last sums and halts every vertex.
    result = engine.run(PageRankProgram(damping, iterations),
                        max_supersteps=iterations + 1)
    return PageRankRun(
        ranks=result.values,
        iteration_times=[step.elapsed for step in result.supersteps],
    )


def pagerank_async(topology, damping: float = 0.85,
                   tolerance: float = 1e-10,
                   network: SimNetwork | None = None,
                   engine=None, max_updates: int = 5_000_000):
    """Asynchronous delta-PageRank (the GraphChi-style model, Section 5.3).

    Instead of synchronous power iterations, each vertex accumulates a
    residual; updating a vertex folds its residual into its rank and
    pushes ``damping * residual / degree`` to each out-neighbor, waking
    neighbors whose residual crossed ``tolerance``.  Runs on the
    :class:`~repro.compute.async_engine.AsyncEngine` — no barriers, with
    Safra-certified termination — and converges to the same fixed point
    as the synchronous implementation (asserted in the tests).

    Returns ``(ranks, AsyncResult)``.
    """
    from ..compute.async_engine import AsyncEngine

    n = topology.n
    if engine is None:
        engine = AsyncEngine(topology, network=network)
    # Push-method invariant: x = ranks + (I - dM)^-1 residual, so ranks
    # start at zero and the whole teleport mass sits in the residual.
    # A vertex's value is (rank, residual): the engine's state is the
    # whole state, so a rollback restores it.
    base = (1.0 - damping) / n
    degrees = topology.out_degrees()

    def update(values, vertex, topo):
        rank, delta = values[vertex]
        if delta <= tolerance:
            return ()
        values[vertex] = (rank + delta, 0.0)
        degree = degrees[vertex]
        if not degree:
            return ()
        share = damping * delta / degree
        wake = []
        for neighbor in topo.out_neighbors(vertex):
            neighbor = int(neighbor)
            other, before = values[neighbor]
            values[neighbor] = (other, before + share)
            if before <= tolerance < before + share:
                wake.append(neighbor)
        return wake

    result = engine.run(update, [(0.0, base)] * n, range(n),
                        max_updates=max_updates)
    # Delta-PageRank computes the unnormalised fixed point
    # r = (1-d)/n + d A r; normalise to a distribution like the
    # synchronous run reports.
    ranks = np.array([rank for rank, _ in result.values])
    total = ranks.sum()
    return ranks / total, result
