"""Compressed-sparse-row topology snapshots for analytics.

Offline engines iterate the whole edge set every superstep; decoding each
node's blob per superstep would make the Python host cost swamp the
simulation.  ``CsrTopology`` decodes the adjacency **once** into numpy
index arrays — the moral equivalent of Trinity keeping the graph topology
memory-resident (Section 1) — and the BSP engine then works from the
snapshot while simulated costs are still charged per cell access.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..errors import QueryError


class CsrTopology:
    """CSR adjacency (out-edges, optionally in-edges) plus placement.

    ``index_of`` maps a 64-bit node id to a dense [0, n) index; all arrays
    are aligned with that dense indexing.
    """

    def __init__(self, graph, include_inlinks: bool = False):
        self.node_ids = np.asarray(graph.node_ids, dtype=np.int64)
        self.n = len(self.node_ids)
        self.index_of = {
            uid: i for i, uid in enumerate(self.node_ids.tolist())
        }
        order = np.argsort(self.node_ids)
        self.out_indptr, self.out_indices = self._build(
            graph.outlinks_batch, order
        )
        if include_inlinks and graph.directed:
            self.in_indptr, self.in_indices = self._build(
                graph.inlinks_batch, order
            )
        else:
            self.in_indptr = None
            self.in_indices = None
        self.machine = graph.machine_of_batch(self.node_ids).astype(np.int32)
        self.machine_count = graph.cloud.config.machines

    @classmethod
    def from_arrays(cls, edges: np.ndarray, machines: int = 4,
                    num_nodes: int | None = None) -> "CsrTopology":
        """Build a topology straight from an ``(m, 2)`` edge array.

        Skips the memory cloud entirely — node ``i`` is its own dense
        index and id, placed on machine ``i % machines`` (the addressing
        layer's modulo placement).  Meant for benchmark harnesses, where
        building a cloud-resident graph at millions of edges would
        dominate the run without exercising anything the benchmark
        measures.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if num_nodes is None:
            num_nodes = int(edges.max()) + 1 if len(edges) else 0
        topo = cls.__new__(cls)
        topo.n = num_nodes
        topo.node_ids = np.arange(num_nodes, dtype=np.int64)
        topo.index_of = {i: i for i in range(num_nodes)}
        order = np.argsort(edges[:, 0], kind="stable")
        src = edges[order, 0]
        topo.out_indices = edges[order, 1]
        topo.out_indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes),
                  out=topo.out_indptr[1:])
        topo.in_indptr = None
        topo.in_indices = None
        topo.machine = (topo.node_ids % machines).astype(np.int32)
        topo.machine_count = machines
        return topo

    def _build(self, neighbors_batch, order):
        """One batched read of every node's neighbour list, the ids
        mapped to dense indices by one ``searchsorted`` against the
        sorted node ids (``order`` sorts them)."""
        indptr, neighbors = neighbors_batch(self.node_ids)
        ranked = self.node_ids[order]
        slots = np.minimum(np.searchsorted(ranked, neighbors), self.n - 1)
        stray = ranked[slots] != neighbors
        if stray.any():
            raise KeyError(int(neighbors[np.argmax(stray)]))
        return indptr, order[slots]

    # -- accessors ---------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.out_indptr[-1])

    def out_neighbors(self, index: int) -> np.ndarray:
        """Dense out-neighbor indices of dense node ``index``."""
        return self.out_indices[self.out_indptr[index]:self.out_indptr[index + 1]]

    def in_neighbors(self, index: int) -> np.ndarray:
        if self.in_indices is None:
            raise QueryError("topology was built without inlinks")
        return self.in_indices[self.in_indptr[index]:self.in_indptr[index + 1]]

    def out_degrees(self) -> np.ndarray:
        return np.diff(self.out_indptr)

    def nodes_of_machine(self, machine_id: int) -> np.ndarray:
        """Dense indices of the nodes placed on one machine."""
        return np.nonzero(self.machine == machine_id)[0]

    def cut_edges(self) -> int:
        """Edges whose endpoints live on different machines — the traffic
        the message-passing optimisations of Section 5.4 target."""
        src = np.repeat(np.arange(self.n), np.diff(self.out_indptr))
        return int(np.sum(self.machine[src] != self.machine[self.out_indices]))

    def hub_threshold(self, hub_fraction: float) -> float:
        """Out-degree from which a vertex counts as a hub (Section 5.4):
        the top ``hub_fraction`` by out-degree, never below 2; infinite
        (no hubs) for a zero fraction or an empty graph."""
        if not (self.n and hub_fraction > 0):
            return float("inf")
        return max(2.0, float(np.quantile(self.out_degrees(),
                                          1.0 - hub_fraction)))

    @cached_property
    def machine_fanout(self) -> np.ndarray:
        """``(n, machines)`` table: out-edges of each vertex per
        destination machine, in the narrowest unsigned dtype that holds
        its largest entry.  A pure function of the (immutable) snapshot:
        computed once, handed out read-only to the BSP engine and the
        analytic traffic model."""
        src = np.repeat(np.arange(self.n, dtype=np.int64),
                        self.out_degrees())
        table = np.bincount(
            src * self.machine_count + self.machine[self.out_indices],
            minlength=self.n * self.machine_count,
        ).reshape(self.n, self.machine_count)
        table = table.astype(np.min_scalar_type(int(table.max(initial=0))))
        table.flags.writeable = False
        return table

    def hub_fanout(self, threshold: float) -> np.ndarray:
        """``machine_fanout`` with a hub's row (out-degree at or above
        ``threshold``) cut to one message per distinct destination
        machine: its buffered value crosses each link once."""
        is_hub = self.out_degrees() >= threshold
        return np.where(is_hub[:, None], self.machine_fanout > 0,
                        self.machine_fanout)

    def pair_traffic(self, senders: np.ndarray,
                     fanout: np.ndarray) -> np.ndarray:
        """Flattened ``machines × machines`` message counts when each of
        ``senders`` sends its ``fanout`` row (``machine_fanout`` or a hub
        form of it): the rows summed by source machine (``bincount``
        adds in doubles, exact for counts below 2**53)."""
        source = self.machine[senders]
        return np.stack([
            np.bincount(source, weights=column, minlength=self.machine_count)
            for column in fanout[senders].T
        ], axis=1).astype(np.int64).ravel()
