"""Weakly connected components via HashMin label propagation.

A standard restrictive vertex-centric workload: every vertex repeatedly
adopts the minimum component label among itself and its neighbors.
:class:`WccProgram` follows out-edges only; :func:`wcc` runs it on a
symmetric snapshot (every edge in both directions), which makes the
result weak connectivity on a directed graph.  Convergence takes
O(component diameter) supersteps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compute.bsp import BspEngine
from ..compute.vertex import VertexProgram
from ..graph.csr import CsrTopology
from ..net.simnet import SimNetwork


class WccProgram(VertexProgram):
    """Vertex-centric HashMin components (value = min label seen).

    Labels travel along out-edges only, so the components are weak ones
    only on a symmetric topology (each edge in both directions; see
    :func:`wcc`).  Declares the ``min`` combiner; :meth:`compute_batch`
    is the vectorized kernel with identical semantics.
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
    """Result of a :func:`wcc` run: each vertex's component label (the
    smallest dense id in its component) and each superstep's simulated
    time."""

    labels: np.ndarray
    iteration_times: list[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return sum(self.iteration_times)

    @property
    def component_count(self) -> int:
        return int(len(np.unique(self.labels)))


def wcc(topology, network: SimNetwork | None = None) -> WccRun:
    """Weakly connected components: :class:`WccProgram` on a
    :class:`BspEngine` over ``topology`` with every edge in both
    directions, so direction is ignored."""
    symmetric = _both_directions(topology)
    # A label crosses one edge a superstep: the last change lands by
    # superstep n - 1 and the superstep after it sends nothing.
    result = BspEngine(symmetric, network=network).run(
        WccProgram(), max_supersteps=topology.n + 1)
    return WccRun(
        labels=result.values,
        iteration_times=[step.elapsed for step in result.supersteps],
    )


def _both_directions(topology) -> CsrTopology:
    """``topology`` with each edge also reversed: the same vertices, ids
    and placement."""
    src = np.repeat(np.arange(topology.n, dtype=np.int64),
                    topology.out_degrees())
    dst = topology.out_indices
    symmetric = CsrTopology.from_arrays(
        np.stack([np.concatenate([src, dst]), np.concatenate([dst, src])],
                 axis=1),
        machines=topology.machine_count, num_nodes=topology.n)
    symmetric.node_ids = topology.node_ids
    symmetric.index_of = topology.index_of
    symmetric.machine = topology.machine
    return symmetric
