"""Asynchronous vertex computation (Sections 5.3 and 6.2).

In the asynchronous model a vertex "can perform computation just based on
partially updated information from its incoming links" — no supersteps,
no barriers.  Section 6.2 describes its snapshot protocol: interrupt,
let vertices finish the job in hand, run Safra's termination detection,
and snapshot once the system is quiescent.

Each machine has a work queue; an update function mutates the values and
returns the vertices to reschedule.  Cross-machine reschedules are
messages, charged to the simulated network and counted by the Safra
detector.  The rounds run in the one loop, ``BspEngine._run``:
:class:`_AsyncPath` supplies one slice per round, the stop test and a
barrier cost of zero.  A round boundary is quiescent — every machine has
finished its job in hand and every wake is already in its destination's
queue — so the loop's checkpoint cadence writes the snapshot there, and
a crash rolls back to it as a BSP run does.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..errors import ComputeError
from ..faults import FaultPlan
from ..net.simnet import ParallelRound, SimNetwork
from .bsp import BspEngine, _charge_compute, _Path
from .checkpoint import CheckpointManager
from .termination import SafraDetector
from .vertex import ComputeContext, VertexProgram

#: Updates one machine drains from its queue in one slice.
SLICE_UPDATES = 256


@dataclass
class AsyncResult:
    """Outcome of an asynchronous run."""

    values: list
    updates: int = 0          # vertex update executions
    messages: int = 0         # cross-machine reschedules
    snapshots: list[int] = field(default_factory=list)   # imaged rounds
    elapsed: float = 0.0      # simulated seconds
    terminated: bool = False  # Safra-certified quiescence
    restarts: int = 0         # rollbacks forced by injected crashes


class _AsyncPath(_Path):
    """How the asynchronous model computes a round: one slice, in which
    each machine drains up to :data:`SLICE_UPDATES` updates from its
    queue.  The carry is ``(queues, queued, updates, messages)``."""

    barrier_cost = 0.0    # machines overlap; no barrier semantics

    def __init__(self, engine: "AsyncEngine", update_fn, frontier,
                 max_updates: int):
        # The loop reads a program's message size and after-round hook:
        # the base class's are 16 bytes and nothing.
        super().__init__(engine, VertexProgram())
        self.ctx = ComputeContext(engine)
        self.update_fn = update_fn
        self.frontier = frontier
        self.max_updates = max_updates
        self.terminated = False

    def start(self, initial_values):
        engine = self.engine
        topo = engine.topology
        engine.values = list(initial_values)
        self.detector = SafraDetector(topo.machine_count)
        queues = [deque() for _ in range(topo.machine_count)]
        queued = [False] * topo.n
        for vertex in self.frontier:
            if not queued[vertex]:
                queued[vertex] = True
                queues[int(topo.machine[vertex])].append(vertex)
        return queues, queued, 0, 0

    def step(self, carry, round_: ParallelRound):
        queues, queued, updates, messages = carry
        engine, detector = self.engine, self.detector
        topo, values = engine.topology, engine.values
        machines = topo.machine_count
        engine._h_queue.observe(sum(len(q) for q in queues))
        ran = 0
        for machine, queue in enumerate(queues):
            budget = min(len(queue), SLICE_UPDATES,
                         self.max_updates - updates - ran)
            degree_sum = 0
            for _ in range(budget):
                vertex = queue.popleft()
                queued[vertex] = False
                wake = self.update_fn(values, vertex, topo)
                degree_sum += int(topo.out_indptr[vertex + 1]
                                  - topo.out_indptr[vertex])
                for other in wake:
                    other = int(other)
                    other_machine = int(topo.machine[other])
                    if other_machine != machine:
                        engine._messages += 1
                        engine._pair_counts[machine * machines
                                            + other_machine] += 1
                        detector.record_send(machine)
                        detector.record_receive(other_machine)
                    if not queued[other]:
                        queued[other] = True
                        queues[other_machine].append(other)
            _charge_compute(round_, machine, budget, degree_sum)
            ran += budget
        # The slice boundary: every machine has finished its job in hand.
        for machine in range(machines):
            detector.set_active(machine, False)
        if ran:
            engine._m_slices.inc()
            engine._m_updates.inc(ran)
        return ran, (queues, queued, updates + ran,
                     messages + engine._messages)

    def halted(self, carry) -> bool:
        """The update budget is spent, or the queues are empty and
        Safra's probe certifies it.  A failed probe whitens the ring, so
        the next round — empty — probes again."""
        queues, _, self.updates, self.messages = carry
        self.terminated = not any(queues) and self.detector.probe()
        return self.terminated or self.updates >= self.max_updates


class AsyncEngine(BspEngine):
    """Barrier-free vertex processing with quiescence detection."""

    def __init__(self, topology, network: SimNetwork | None = None,
                 checkpoints: CheckpointManager | None = None,
                 faults: FaultPlan | None = None):
        super().__init__(topology, network=network, faults=faults,
                         checkpoints=checkpoints)
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
        scheduling.  Everything a rollback must restore lives in
        ``values``.
        """
        n = self.topology.n
        if max_updates < 1:
            raise ComputeError("max_updates must be >= 1")
        frontier = [int(vertex) for vertex in frontier]
        if any(not 0 <= vertex < n for vertex in frontier):
            raise ComputeError(f"frontier names a vertex outside [0, {n})")
        path = _AsyncPath(self, update_fn, frontier, max_updates)
        # Every round but a final empty one runs an update.
        result = self._run(path, max_updates + 1, initial_values)
        return AsyncResult(
            values=result.values, updates=path.updates,
            messages=path.messages, snapshots=list(self._images),
            elapsed=result.elapsed, terminated=path.terminated,
            restarts=result.restarts)
