"""PageRank: the paper's flagship offline analytics workload (Fig 12b).

Two implementations with identical semantics:

* :class:`PageRankProgram` — a restrictive, uniform-message vertex program
  for the BSP engine (reference semantics; used by tests and small runs).
* :func:`pagerank` — a vectorised runner for benchmark scales, charging
  each superstep through the shared :class:`~repro.algorithms._traffic.
  TrafficModel` so the simulated times match the engine's accounting.

Dangling vertices redistribute their rank mass uniformly, the standard
formulation (and what makes the rank vector a probability distribution,
which the property tests assert).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ComputeParams
from ..errors import ComputeError
from ..net.simnet import SimNetwork
from ..compute.vertex import VertexProgram
from ._traffic import TrafficModel


class PageRankProgram(VertexProgram):
    """Vertex-centric PageRank for :class:`~repro.compute.bsp.BspEngine`.

    Runs a fixed number of power iterations; dangling mass is collected
    through the ``dangling`` aggregator and folded in next superstep.

    Declares the ``sum`` combiner (a vertex only ever consumes
    ``sum(messages)``), so the engine runs it on the vectorized path;
    :meth:`compute_batch` is the numpy kernel with identical semantics,
    bit for bit (the equivalence tests and ``cross_check`` assert this).
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

    def init_batch(self, ctx) -> None:
        ctx.values[:] = 1.0 / ctx.num_vertices

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

    def compute_batch(self, ctx, vertices, combined, received) -> None:
        n = ctx.num_vertices
        values = ctx.values
        if ctx.superstep > 0:
            dangling = ctx.aggregated("dangling") / n
            values[vertices] = ((1.0 - self.damping) / n
                                + self.damping * (combined + dangling))
        if ctx.superstep < self.iterations:
            degrees = ctx.out_degrees(vertices)
            has_edges = degrees > 0
            senders = vertices[has_edges]
            if len(senders):
                ctx.send_to_neighbors(senders,
                                      values[senders] / degrees[has_edges])
            # One sequential fold in vertex order: the same
            # left-to-right float accumulation the per-vertex path makes.
            ctx.aggregate("dangling", values[vertices[~has_edges]])
        else:
            ctx.halt(vertices)


@dataclass
class PageRankRun:
    """Result of a vectorised PageRank run."""

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
             network: SimNetwork | None = None,
             params: ComputeParams | None = None,
             traffic: TrafficModel | None = None,
             hub_buffering: bool = True) -> PageRankRun:
    """Vectorised PageRank with per-superstep simulated-time accounting.

    Because PageRank's communication is a full broadcast every superstep,
    the traffic matrix is computed once and reused — exactly the
    "predictable iteration after iteration" property Section 5.3 exploits.
    """
    if iterations < 1:
        raise ComputeError("iterations must be >= 1")
    network = network or SimNetwork()
    params = params or ComputeParams()
    traffic = traffic or TrafficModel(topology, hub_buffering=hub_buffering)

    n = topology.n
    degrees = topology.out_degrees().astype(np.float64)
    dangling_mask = degrees == 0
    edge_src = traffic.edge_src
    edge_dst = topology.out_indices

    ranks = np.full(n, 1.0 / n)
    pair_counts = traffic.full_broadcast_traffic()
    active = traffic.per_machine_vertices()
    edges = traffic.per_machine_edges()

    run = PageRankRun(ranks=ranks)
    for _ in range(iterations):
        contribution = np.where(dangling_mask, 0.0, ranks / np.maximum(degrees, 1.0))
        incoming = np.bincount(
            edge_dst, weights=contribution[edge_src], minlength=n
        )
        dangling_mass = float(ranks[dangling_mask].sum())
        ranks = ((1.0 - damping) / n
                 + damping * (incoming + dangling_mass / n))
        elapsed = traffic.charge_superstep(
            network, params, active, edges, pair_counts
        )
        run.iteration_times.append(elapsed)
    run.ranks = ranks
    return run


def pagerank_async(topology, damping: float = 0.85,
                   tolerance: float = 1e-10,
                   network: SimNetwork | None = None,
                   params: ComputeParams | None = None,
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
        engine = AsyncEngine(topology, network=network,
                             compute_params=params)
    # Push-method invariant: x = ranks + (I - dM)^-1 residual, so ranks
    # start at zero and the whole teleport mass sits in the residual.
    base = (1.0 - damping) / n
    ranks = np.zeros(n)
    residual = np.full(n, base)
    degrees = topology.out_degrees()

    def update(values, vertex, topo):
        delta = residual[vertex]
        if delta <= tolerance:
            return ()
        residual[vertex] = 0.0
        ranks[vertex] += delta
        degree = degrees[vertex]
        if not degree:
            return ()
        share = damping * delta / degree
        wake = []
        for neighbor in topo.out_neighbors(vertex):
            neighbor = int(neighbor)
            before = residual[neighbor]
            residual[neighbor] = before + share
            if before <= tolerance < residual[neighbor]:
                wake.append(neighbor)
        return wake

    result = engine.run(update, [0.0] * n, range(n),
                        max_updates=max_updates)
    # Delta-PageRank computes the unnormalised fixed point
    # r = (1-d)/n + d A r; normalise to a distribution like the
    # synchronous runner reports.
    total = ranks.sum()
    return ranks / total, result
