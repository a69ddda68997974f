"""Weakly connected components via HashMin label propagation.

A standard restrictive vertex-centric workload: every vertex repeatedly
adopts the minimum component label among itself and its (in+out)
neighbors.  Convergence takes O(component diameter) supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..net.simnet import SimNetwork
from ..compute.vertex import VertexProgram
from ._traffic import TrafficModel


class WccProgram(VertexProgram):
    """Vertex-centric HashMin components (value = min label seen).

    Declares the ``min`` combiner; :meth:`compute_batch` is the
    vectorized kernel with identical semantics.
    """

    restrictive = True
    uniform_messages = True
    combiner = "min"
    value_dtype = np.int64

    def init(self, ctx, vertex: int) -> None:
        ctx.set_value(vertex, vertex)

    def init_batch(self, ctx, block) -> None:
        block.values[:] = block.ids

    def compute(self, ctx, vertex: int, messages: list) -> None:
        best = min(messages) if messages else ctx.value
        if ctx.superstep == 0 or best < ctx.value:
            if best < ctx.value:
                ctx.value = best
            ctx.send_to_neighbors(ctx.value)
        ctx.vote_to_halt()

    def compute_batch(self, ctx, block) -> None:
        values = block.values
        better = block.received & (block.combined < values)
        values[better] = block.combined[better]
        if ctx.superstep == 0:
            block.send_to_neighbors(None, values)
        else:
            block.send_to_neighbors(better, values[better])
        block.halt()


@dataclass
class WccRun:
    labels: np.ndarray
    iteration_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.iteration_times)

    @property
    def component_count(self) -> int:
        return int(len(np.unique(self.labels)))


def wcc(topology, network: SimNetwork | None = None,
        traffic: TrafficModel | None = None) -> WccRun:
    """Vectorised HashMin over the symmetrised edge set.

    Direction is ignored (weak connectivity), so each directed edge
    propagates labels both ways; traffic is charged per active frontier
    like the vertex engine would.
    """
    network = network or SimNetwork()
    traffic = traffic or TrafficModel(topology)
    n = topology.n
    edge_src = traffic.edge_src
    edge_dst = topology.out_indices

    labels = np.arange(n, dtype=np.int64)
    changed = np.ones(n, dtype=bool)
    run = WccRun(labels=labels)
    while changed.any():
        pair_counts = traffic.frontier_traffic(changed)
        active = traffic.per_machine_vertices(changed)
        edges = traffic.per_machine_edges(changed)
        # Propagate both directions (weak connectivity).
        new_labels = labels.copy()
        np.minimum.at(new_labels, edge_dst, labels[edge_src])
        np.minimum.at(new_labels, edge_src, labels[edge_dst])
        changed = new_labels < labels
        labels = new_labels
        elapsed = traffic.charge_superstep(
            network, active, edges, pair_counts
        )
        run.iteration_times.append(elapsed)
    run.labels = labels
    return run
