"""Asynchronous vertex computation (Sections 5.3 and 6.2).

In the asynchronous model a vertex "can perform computation just based on
partially updated information from its incoming links" — no supersteps,
no barriers.  Trinity supports it alongside BSP ("Trinity can adopt any
computation model"), and Section 6.2 describes its snapshot protocol:
issue a periodic interruption, let vertices finish the job in hand, run
Safra's termination detection, and write a snapshot once the system is
quiescent.

The engine maintains per-machine work queues; an update function examines
the current (possibly stale-free, since we process sequentially) values
and returns the vertices to reschedule.  Cross-machine reschedules are
messages: they are charged to the simulated network and tracked by the
Safra detector.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..config import (
    CELL_ACCESS_COST,
    EDGE_SCAN_COST,
    THREADS_PER_MACHINE,
    VERTEX_COMPUTE_COST,
)
from ..errors import ComputeError
from ..net.simnet import ParallelRound, SimNetwork
from ..obs import Tracer
from .checkpoint import CheckpointManager
from .termination import SafraDetector


@dataclass
class AsyncResult:
    """Outcome of an asynchronous run."""

    values: list
    updates: int = 0          # vertex update executions
    messages: int = 0         # cross-machine reschedules
    snapshots: list[int] = field(default_factory=list)
    elapsed: float = 0.0      # simulated seconds
    terminated: bool = False  # Safra-certified quiescence


class AsyncEngine:
    """Barrier-free vertex processing with quiescence detection."""

    def __init__(self, topology, network: SimNetwork | None = None,
                 checkpoints: CheckpointManager | None = None,
                 interrupt_every: int = 0):
        self.topology = topology
        self.network = network or SimNetwork()
        self.checkpoints = checkpoints
        self.interrupt_every = interrupt_every
        self.detector = SafraDetector(topology.machine_count)
        self.tracer = Tracer(clock=lambda: self.network.clock.now,
                             registry=self.network.obs)
        self._h_queue = self.network.obs.histogram("async.slice.queue_depth")
        self._m_updates = self.network.obs.counter("async.updates.total")
        self._m_slices = self.network.obs.counter("async.slice.total")

    def run(self, update_fn, initial_values, frontier,
            max_updates: int = 1_000_000) -> AsyncResult:
        """Process vertices until quiescence (or the update budget).

        ``update_fn(values, vertex, topology) -> iterable[int]`` mutates
        ``values`` for ``vertex`` and returns dense indices to reschedule
        (typically the neighbors whose inputs changed).  A vertex is only
        queued once per pending wake-up, like GraphChi's selective
        scheduling.
        """
        topo = self.topology
        n = topo.n
        if len(initial_values) != n:
            raise ComputeError("initial_values length != vertex count")
        values = list(initial_values)
        queues: list[deque[int]] = [
            deque() for _ in range(topo.machine_count)
        ]
        queued = [False] * n
        for vertex in frontier:
            vertex = int(vertex)
            if not queued[vertex]:
                queued[vertex] = True
                queues[int(topo.machine[vertex])].append(vertex)
        for machine, queue in enumerate(queues):
            self.detector.set_active(machine, bool(queue))

        result = AsyncResult(values=values)
        since_interrupt = 0
        while result.updates < max_updates:
            # One "slice": every machine drains a bounded chunk of its
            # queue concurrently; the slice is the unit of simulated
            # parallel time (machines genuinely overlap in the async
            # model, there is just no barrier semantics attached).
            self._h_queue.observe(sum(len(q) for q in queues))
            slice_round = ParallelRound(self.network)
            progressed = False
            slice_updates = 0
            for machine, queue in enumerate(queues):
                budget = min(len(queue), 256,
                             max_updates - result.updates)
                compute_seconds = 0.0
                for _ in range(budget):
                    vertex = queue.popleft()
                    queued[vertex] = False
                    wake = update_fn(values, vertex, topo)
                    result.updates += 1
                    slice_updates += 1
                    since_interrupt += 1
                    progressed = True
                    degree = int(topo.out_indptr[vertex + 1]
                                 - topo.out_indptr[vertex])
                    compute_seconds += (VERTEX_COMPUTE_COST
                                        + CELL_ACCESS_COST
                                        + degree * EDGE_SCAN_COST)
                    for other in wake:
                        other = int(other)
                        other_machine = int(topo.machine[other])
                        if other_machine != machine:
                            result.messages += 1
                            self.detector.record_send(machine)
                            self.detector.record_receive(other_machine)
                            slice_round.add_message(machine, other_machine, 16)
                        if not queued[other]:
                            queued[other] = True
                            queues[other_machine].append(other)
                if compute_seconds:
                    slice_round.add_compute(machine, compute_seconds)
            if progressed:
                with self.tracer.span("async.slice",
                                      updates=slice_updates):
                    result.elapsed += slice_round.finish(
                        parallelism=THREADS_PER_MACHINE
                    )
                self._m_slices.inc()
                self._m_updates.inc(slice_updates)

            # At a slice boundary every machine has finished its job in
            # hand — the state the paper's interruption signal drives the
            # system into.
            for machine in range(topo.machine_count):
                self.detector.set_active(machine, False)

            interrupt_due = (self.interrupt_every
                             and since_interrupt >= self.interrupt_every)
            if interrupt_due and self.detector.probe():
                # System has ceased (no job running, no message in
                # flight): write the snapshot, then resume.
                since_interrupt = 0
                if self.checkpoints is not None:
                    self.checkpoints.save(result.updates, values)
                result.snapshots.append(result.updates)

            if not any(queues):
                result.terminated = self.detector.probe()
                if result.terminated:
                    break
            if not progressed:
                break
        return result
