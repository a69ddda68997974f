"""Shared superstep traffic model for the vectorised analytics runners.

The vertex engine (:mod:`repro.compute.bsp`) counts messages as it routes
them; the vectorised runners compute the *same* quantities analytically
from the CSR structure — legitimate because the restrictive model makes
the communication pattern a pure function of topology and frontier
("the communication pattern is predictable iteration after iteration",
Section 5.3).  Tests assert both paths agree.

Hub handling mirrors the engine: a vertex whose out-degree reaches the
hub threshold ships its (uniform) value once per destination machine
rather than once per edge.
"""

from __future__ import annotations

import numpy as np

from ..config import (
    BARRIER_COST,
    CELL_ACCESS_COST,
    EDGE_SCAN_COST,
    THREADS_PER_MACHINE,
    VERTEX_COMPUTE_COST,
)
from ..net.simnet import ParallelRound, SimNetwork


class TrafficModel:
    """Precomputed per-vertex machine routing for one topology."""

    def __init__(self, topology, hub_fraction: float = 0.01,
                 hub_buffering: bool = True, message_bytes: int = 16):
        self.topology = topology
        self.message_bytes = message_bytes
        n = topology.n
        self.machines = topology.machine_count
        self.hub_threshold = topology.hub_threshold(
            hub_fraction if hub_buffering else 0.0)
        # Per-edge source vertex (the runners gather through it).
        self.edge_src = np.repeat(np.arange(n, dtype=np.int64),
                                  topology.out_degrees())
        # Messages each vertex's broadcast puts on the link to each
        # machine: one per edge, or one per destination machine for a hub.
        self._fanout = topology.hub_fanout(self.hub_threshold)
        self._full_pair_counts = self.frontier_traffic(np.ones(n, dtype=bool))

    # -- traffic for one superstep ----------------------------------------

    def full_broadcast_traffic(self) -> np.ndarray:
        """Message counts per machine pair when *every* vertex broadcasts
        to all out-neighbors (PageRank, WCC)."""
        return self._full_pair_counts

    def frontier_traffic(self, frontier: np.ndarray) -> np.ndarray:
        """Message counts per machine pair when only ``frontier`` (bool
        mask over vertices) broadcasts (BFS, SSSP waves)."""
        return self.topology.pair_traffic(frontier, self._fanout)

    # -- charging a superstep ----------------------------------------------

    def charge_superstep(self, network: SimNetwork,
                         active_per_machine: np.ndarray,
                         edges_per_machine: np.ndarray,
                         pair_counts: np.ndarray) -> float:
        """Build a :class:`ParallelRound` for one superstep and charge it.

        ``active_per_machine[m]`` vertices ran compute on machine ``m``,
        scanning ``edges_per_machine[m]`` adjacency entries;
        ``pair_counts`` is a flattened machines x machines message-count
        matrix.  Returns elapsed simulated time including the barrier.
        """
        round_ = ParallelRound(network)
        for machine in range(self.machines):
            compute = (
                float(active_per_machine[machine])
                * (VERTEX_COMPUTE_COST + CELL_ACCESS_COST)
                + float(edges_per_machine[machine]) * EDGE_SCAN_COST
            )
            if compute:
                round_.add_compute(machine, compute)
        nonzero = np.nonzero(pair_counts)[0]
        for pair in nonzero:
            src, dst = divmod(int(pair), self.machines)
            count = int(pair_counts[pair])
            round_.add_message(src, dst, count * self.message_bytes, count)
        elapsed = round_.finish(parallelism=THREADS_PER_MACHINE)
        network.clock.advance(BARRIER_COST)
        elapsed += BARRIER_COST
        # Same superstep series the vertex engine records, so a snapshot
        # looks identical whichever execution path produced the run.
        network.obs.counter("bsp.superstep.total").inc()
        network.obs.histogram("span.bsp.superstep.seconds").observe(elapsed)
        return elapsed

    # -- helpers -------------------------------------------------------------

    def per_machine_vertices(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Vertices per machine (optionally restricted to a mask)."""
        machine = self.topology.machine
        return np.bincount(machine if mask is None else machine[mask],
                           minlength=self.machines).astype(np.int64)

    def per_machine_edges(self, mask: np.ndarray | None = None) -> np.ndarray:
        """Out-edges per machine (optionally only edges from masked
        sources)."""
        machine, degrees = self.topology.machine, self.topology.out_degrees()
        if mask is not None:
            machine, degrees = machine[mask], degrees[mask]
        return np.bincount(machine, weights=degrees,
                           minlength=self.machines).astype(np.int64)

    def remote_fraction(self) -> float:
        """Fraction of full-broadcast messages that cross machines."""
        counts = self._full_pair_counts.reshape(self.machines, self.machines)
        total = counts.sum()
        if not total:
            return 0.0
        return float(1.0 - np.trace(counts) / total)
