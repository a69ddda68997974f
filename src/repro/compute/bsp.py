"""The bulk-synchronous vertex engine (Sections 5.3 and 5.4).

Runs a :class:`~repro.compute.vertex.VertexProgram` over a
:class:`~repro.graph.csr.CsrTopology` in supersteps.  Results are computed
for real; the engine simultaneously charges a simulated clock with what
each superstep would cost on the paper's cluster:

* per machine: vertices processed and adjacency entries scanned, spread
  over the machine's hardware threads;
* per machine pair: the messages crossing that link, packed per the
  network parameters;
* a barrier per superstep.

The **hub-vertex optimisation** of Section 5.4 is implemented in message
accounting: for restrictive programs with uniform messages, a hub vertex
(the top :data:`HUB_FRACTION` by out-degree) has its value buffered at
each destination machine for the whole superstep, so it crosses each
link once instead of once per edge.  (For a scale-free graph the paper
estimates that buffering the top 1% of vertices serves 72.8% of message
needs.)

One loop, three ways to compute a round.  :meth:`BspEngine._run` is
the round loop — crash rollback and replay, checkpoint cadence,
barrier wake, aggregators, reports, the ``on_superstep`` hook — and a
path object supplies the compute, its stop test (``halted``) and what a
barrier costs (``barrier_cost``), all in this process (the cluster's
parallelism is charged on the simulated clock, never run on the host's
cores: DESIGN.md §12).  The asynchronous model's slices are the third
path (:mod:`repro.compute.async_engine`); the two BSP paths share
Pregel's stop test and one barrier per superstep (:class:`_Path`):

* the **per-vertex reference path** (:class:`_ReferencePath`): a Python
  loop calling ``compute`` with ``list`` inboxes — the semantics of
  record, and the path of every program without both batch kernels;
* the **vectorized fast path** (:class:`_FastPath`), for programs
  declaring a ``combiner`` and implementing both ``init_batch`` and
  ``compute_batch``: inboxes become one dense numpy value array plus a
  received-mask, and each kernel runs once per machine on a
  :class:`~repro.compute.vertex.MachineBlock`.  It has no per-vertex
  loop.  Vertex state is kept in **compute order** — machine by machine,
  ascending dense id within a machine, the order the reference path
  runs — so machine *m* is one slice of every state array and a wholly
  active machine's block is views, not gathers.  A superstep resets the
  send buffers, runs every machine's kernels, then folds what they sent
  through a **send plan** — destinations, received mask and
  machine-pair traffic, a function of the sender array alone — which is
  kept and re-applied while the sender array repeats (DESIGN.md §8).
  Results, ``initial_values`` and ``on_superstep`` see dense-id order;
  only the engine's own state is renumbered.

Both paths add a superstep's messages into one machine-pair ledger, so
they charge the simulated clock identically — same superstep reports,
same network counters — which a checked run verifies by running the
reference path against a throwaway network and comparing.

Superstep semantics are deterministic and order-independent: a vertex
runs in superstep *s* iff it is active at the barrier entering *s*;
message receipt reactivates a vertex *at the barrier* (so a halt and a
wake landing in the same superstep always resolve wake-wins, regardless
of which machine processed first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (
    BARRIER_COST,
    CELL_ACCESS_COST,
    EDGE_SCAN_COST,
    THREADS_PER_MACHINE,
    VERTEX_COMPUTE_COST,
)
from ..errors import ComputeError
from ..faults import FaultInjector, FaultPlan
from ..net.simnet import ParallelRound, SimNetwork
from ..obs import MetricsRegistry, Tracer
from ..oracle import is_checking, shadow
from ..tfs import TrinityFileSystem
from .checkpoint import CheckpointManager
from .vertex import (
    COMBINERS,
    BatchComputeContext,
    ComputeContext,
    MachineBlock,
    VertexProgram,
    csr_slices,
)


@dataclass(frozen=True)
class SuperstepReport:
    """Accounting for one superstep."""

    superstep: int
    elapsed: float           # simulated seconds
    active_vertices: int     # vertices that ran compute()
    messages: int            # logical messages enqueued
    remote_transfers: int    # messages charged to the wire (after hub opt)
    message_bytes: int       # payload bytes charged to the wire


@dataclass
class BspResult:
    """Outcome of a BSP run.

    ``values`` is a Python list on the reference path and a numpy array
    on the vectorized path; both index by dense vertex id.
    """

    values: object
    supersteps: list[SuperstepReport] = field(default_factory=list)
    aggregators: dict[str, float] = field(default_factory=dict)
    restarts: int = 0
    """Checkpoint-restarts forced by injected machine crashes."""

    @property
    def superstep_count(self) -> int:
        return len(self.supersteps)

    @property
    def elapsed(self) -> float:
        """Total simulated time across all supersteps."""
        return sum(r.elapsed for r in self.supersteps)

    def value_by_node(self, topology) -> dict[int, object]:
        """Map 64-bit node ids to final values."""
        return {
            int(uid): self.values[i]
            for i, uid in enumerate(topology.node_ids)
        }


#: The hub share of Section 5.4: the top 1 % of vertices by out-degree.
HUB_FRACTION = 0.01

_FOLD_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}
_PER_VERTEX_COST = VERTEX_COMPUTE_COST + CELL_ACCESS_COST


def _combiner_identity(combiner: str, dtype: np.dtype):
    """The fold identity: what an unreceiving vertex's combined slot
    holds (``sum([]) == 0``; min/max use the dtype's infinities)."""
    if combiner == "sum":
        return dtype.type(0)
    if dtype.kind == "f":
        return dtype.type(np.inf if combiner == "min" else -np.inf)
    info = np.iinfo(dtype)
    return dtype.type(info.max if combiner == "min" else info.min)


def _charge_compute(round_: ParallelRound, machine: int, ran: int,
                    degree_sum: int) -> None:
    """Charge ``machine`` for the vertices it ran and the adjacency
    entries they scanned — the same integer counts on both paths."""
    round_.add_compute(machine,
                       ran * _PER_VERTEX_COST + degree_sum * EDGE_SCAN_COST)


def _has_kernels(program: VertexProgram) -> bool:
    """Whether ``program`` overrides both batch kernels — what the fast
    path runs; every other program takes the reference path."""
    kind = type(program)
    return (kind.init_batch is not VertexProgram.init_batch
            and kind.compute_batch is not VertexProgram.compute_batch)


@dataclass(frozen=True)
class _SendPlan:
    """The control-plane half of a barrier: what a superstep's sends
    need that does not read their values.  A pure function of
    ``(senders, hub)``, so the last one is re-applied while the sender
    set repeats ("predictable iteration after iteration", Section 5.3)."""

    senders: np.ndarray      # the plan's own copy: positions, ascending
    hub: bool                # hub buffering applied to the traffic
    degrees: np.ndarray      # out-degree per sender: values repeat by it
    dsts: np.ndarray         # destination position per edge, enqueue order
    received: np.ndarray     # length-n mask of ``dsts``
    pair_counts: np.ndarray  # flattened machines x machines messages


class _FastState:
    """Per-topology precomputation for the vectorized path: the compute
    order and the out-CSR renumbered into it.

    Position ``p`` holds dense vertex ``order[p]``; ``rank`` inverts it.
    Vertices sort by machine, stably, so machine ``m`` is the positions
    ``[bounds[m], bounds[m + 1])`` and, within it, positions ascend in
    dense-id order — the order the reference path runs and enqueues, so
    a fold along the renumbered edges adds in the same order."""

    def __init__(self, topology, hub_threshold: float):
        self.topology = topology
        n = topology.n
        self.order = np.argsort(topology.machine, kind="stable")
        self.rank = np.empty(n, dtype=np.int64)
        self.rank[self.order] = np.arange(n, dtype=np.int64)
        self.bounds = [0] + np.cumsum(np.bincount(
            topology.machine, minlength=topology.machine_count)).tolist()
        self.degrees = topology.out_degrees()[self.order]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.indptr[1:])
        # Every edge's destination as a position, edges in compute order.
        self.dsts = self.rank[topology.out_indices[csr_slices(
            topology.out_indptr[self.order], self.degrees)]]
        for array in (self.order, self.rank, self.degrees, self.dsts):
            array.flags.writeable = False    # blocks hand out views
        # Messages a vertex's sends put on the link to each machine,
        # without and with hub buffering (Section 5.4), by dense id.
        self.fanout = topology.machine_fanout
        self.hub_fanout = topology.hub_fanout(hub_threshold)

    def build_plan(self, senders: np.ndarray, hub: bool) -> _SendPlan:
        """Derive everything ``senders``' sends need but their values.

        ``dsts`` follows the senders' out-edges sender by sender: for
        ascending positions that is the order the reference path
        enqueues messages, so a ``sum`` folded along it reproduces the
        reference path's float accumulation bit for bit."""
        dsts = self.dsts[csr_slices(self.indptr[senders],
                                    self.degrees[senders])]
        received = np.zeros(self.topology.n, dtype=bool)
        received[dsts] = True
        return _SendPlan(
            senders=senders, hub=hub, degrees=self.degrees[senders],
            dsts=dsts, received=received,
            pair_counts=self.topology.pair_traffic(
                self.order[senders],
                self.hub_fanout if hub else self.fanout),
        )


class _Path:
    """What a path supplies beside its compute: Pregel's stop test, one
    barrier per superstep, and results as a fresh list."""

    barrier_cost = BARRIER_COST

    def __init__(self, engine: "BspEngine", program: VertexProgram):
        self.engine = engine
        self.program = program

    def halted(self, carry) -> bool:
        """Every vertex voted to halt and no message is in flight."""
        return self.engine._messages == 0 and not self.engine._active.any()

    @staticmethod
    def public(values: list) -> list:
        """A snapshot: the engine keeps writing into its own list."""
        return list(values)


class _ReferencePath(_Path):
    """How the reference path computes a superstep: ``compute`` per
    running vertex, machine by machine in ascending id, with ``list``
    inboxes.  The carry is next superstep's inboxes."""

    def __init__(self, engine: "BspEngine", program: VertexProgram):
        super().__init__(engine, program)
        self.ctx = ComputeContext(engine)
        topology = engine.topology
        self.machine_vertices = [topology.nodes_of_machine(m).tolist()
                                 for m in range(topology.machine_count)]

    def start(self, initial_values) -> list:
        engine, ctx = self.engine, self.ctx
        n = engine.topology.n
        engine.values = ([None] * n if initial_values is None
                         else list(initial_values))
        for vertex in range(n):
            ctx._bind(vertex)
            self.program.init(ctx, vertex)
        return [[] for _ in range(n)]

    def step(self, inbox: list, round_: ParallelRound) -> tuple[int, list]:
        engine, ctx, program = self.engine, self.ctx, self.program
        indptr = engine.topology.out_indptr
        active = engine._active
        engine._next_inbox = [[] for _ in range(engine.topology.n)]
        ran = 0
        for machine, vertices in enumerate(self.machine_vertices):
            ran_here = degree_sum = 0
            for vertex in vertices:
                messages = inbox[vertex]
                if not active[vertex] and not messages:
                    continue
                ctx._bind(vertex)
                program.compute(ctx, vertex, messages)
                ran_here += 1
                degree_sum += int(indptr[vertex + 1] - indptr[vertex])
            _charge_compute(round_, machine, ran_here, degree_sum)
            ran += ran_here
        return ran, engine._next_inbox


class _FastPath(_Path):
    """How the vectorized path computes a superstep: reset the send
    buffers, run every machine's kernels on its block, then fold what
    they sent.  The carry is ``(combined, received)``, in compute order
    like the rest of the engine's state."""

    def __init__(self, engine: "BspEngine", program: VertexProgram):
        if engine._fast is None:
            engine._fast = _FastState(engine.topology, engine.hub_threshold)
        super().__init__(engine, program)
        self.fast = engine._fast
        dtype = np.dtype(program.value_dtype)
        engine._fs_combiner = program.combiner
        engine._fs_dtype = dtype
        engine._fs_identity = _combiner_identity(program.combiner, dtype)
        self.ctx = engine._fs_batch_ctx = BatchComputeContext(engine)

    def start(self, initial_values) -> tuple[np.ndarray, np.ndarray]:
        engine = self.engine
        n, dtype = engine.topology.n, engine._fs_dtype
        if initial_values is None:
            engine.values = np.zeros(n, dtype=dtype)
        else:
            engine.values = np.asarray(initial_values,
                                       dtype=dtype)[self.fast.order]
        combined = np.full(n, engine._fs_identity, dtype=dtype)
        received = np.zeros(n, dtype=bool)
        for machine in range(engine.topology.machine_count):
            block = engine._open_block(machine, combined, received)
            if block is not None:
                self.program.init_batch(self.ctx, block)
                engine._close_block(block)
        return combined, received

    def step(self, carry, round_: ParallelRound):
        engine = self.engine
        engine._reset_send_buffers()
        ran, costs = engine._compute_machines(
            range(engine.topology.machine_count), *carry)
        engine._flush_deferred_sends()
        for machine, ran_count, degree_sum in costs:
            _charge_compute(round_, machine, ran_count, degree_sum)
        return ran, (engine._fs_next_combined, engine._woken)

    def public(self, values: np.ndarray) -> np.ndarray:
        """Dense-id order, a fresh array."""
        return values[self.fast.rank]


class BspEngine:
    """Executes vertex programs superstep by superstep."""

    def __init__(self, topology, network: SimNetwork | None = None,
                 vectorize: bool = True,
                 cross_check: bool = False,
                 faults: FaultPlan | None = None,
                 checkpoints: CheckpointManager | None = None):
        self.topology = topology
        self.network = network or SimNetwork()
        self.vectorize = vectorize
        self.cross_check = cross_check
        self.faults = faults
        self.checkpoints = checkpoints
        self.hub_threshold = topology.hub_threshold(HUB_FRACTION)
        # Spans are stamped with the *simulated* clock, so a superstep
        # span's duration is the simulated seconds the barrier round took.
        self.tracer = Tracer(clock=lambda: self.network.clock.now,
                             registry=self.network.obs)
        self._h_messages = self.network.obs.histogram(
            "bsp.superstep.messages"
        )
        self._h_wall = self.network.obs.histogram(
            "bsp.superstep.wall_seconds"
        )
        self._g_queue = self.network.obs.gauge("bsp.queue.depth")
        self._m_supersteps = self.network.obs.counter("bsp.superstep.total")
        self._m_checkpoints = self.network.obs.counter("bsp.checkpoint.total")
        self._m_restarts = self.network.obs.counter("bsp.restart.total")
        self._m_plan_builds = self.network.obs.counter("bsp.send_plan.builds")
        self._m_plan_reuses = self.network.obs.counter("bsp.send_plan.reuses")
        self._injector: FaultInjector | None = None
        # Mutable per-run state (set up in run()).
        self.values = []
        self.aggregators: dict[str, float] = {}
        self.aggregators_next: dict[str, float] = {}
        self._program: VertexProgram | None = None
        self._neighbor_sets: dict[int, set] = {}
        self._images: list[int] = []     # tags of the images this run wrote
        self._fast: _FastState | None = None
        # The last send plan.  A pure function of its key: it outlives
        # runs and rollbacks and is no part of the checkpoint image.
        self._plan: _SendPlan | None = None

    # -- engine hooks used by ComputeContext --------------------------------

    def _check_restrictive(self, src: int, dst: int) -> None:
        neighbors = self._neighbor_sets.get(src)
        if neighbors is None:
            neighbors = set(self.topology.out_neighbors(src).tolist())
            self._neighbor_sets[src] = neighbors
        if dst not in neighbors:
            raise ComputeError(
                f"restrictive program sent from {src} to non-neighbor "
                f"{dst}; set restrictive=False for the general model"
            )

    def enqueue(self, src: int, dst: int, value) -> None:
        """Route one message (general-model path)."""
        program = self._program
        assert program is not None
        if program.restrictive and self._checking:
            # A cross-checked run also holds a restrictive program to
            # its word: every point-to-point send goes to an out-neighbor.
            self._check_restrictive(src, dst)
        self._next_inbox[dst].append(value)
        self._woken[dst] = True
        self._messages += 1
        machine = self.topology.machine
        self._pair_counts[machine[src] * self.topology.machine_count
                          + machine[dst]] += 1

    def enqueue_to_neighbors(self, src: int, value) -> None:
        """Broadcast to out-neighbors (restrictive model; hub-buffered
        where eligible)."""
        program = self._program
        assert program is not None
        neighbors = self.topology.out_neighbors(src)
        if not len(neighbors):
            return
        for dst in neighbors:
            self._next_inbox[dst].append(value)
        self._woken[neighbors] = True
        self._messages += len(neighbors)
        machines = self.topology.machine_count
        src_machine = int(self.topology.machine[src])
        row = self._pair_counts[src_machine * machines:
                                (src_machine + 1) * machines]
        dst_machines = self.topology.machine[neighbors]
        if program.uniform_messages and len(neighbors) >= self.hub_threshold:
            # The hub's value is shipped once per destination machine and
            # buffered there for the superstep.
            row[np.unique(dst_machines)] += 1
        else:
            row += np.bincount(dst_machines, minlength=machines)

    def halt(self, vertex: int) -> None:
        """Deactivate ``vertex`` until a message wakes it."""
        self._active[vertex] = False

    # -- engine hooks used by MachineBlock -----------------------------------

    def defer_sends(self, uniform: bool, senders: np.ndarray,
                    values: np.ndarray, total: int) -> None:
        """Collect one block's sends (``senders`` as positions, one value
        each when ``uniform``, else one per out-edge) for the barrier.

        Deferred: all of the superstep's sends fold in one pass over the
        concatenated edge list, so a ``sum`` combiner left-folds in the
        exact reference enqueue order (a per-call fold would add
        machine-local partial sums, which is a different float
        association)."""
        if not total:
            return
        (self._fs_bcast if uniform else self._fs_edge).append(
            (senders, values))
        self._messages += total

    def _fold_into(self, dsts: np.ndarray, values: np.ndarray) -> None:
        """Fold per-edge message values into next superstep's combined
        inbox, in the order given (which both send paths keep equal to
        the reference path's enqueue order)."""
        combiner = self._fs_combiner
        target = self._fs_next_combined
        if combiner == "sum" and target.dtype.kind == "f":
            # bincount accumulates sequentially in input order: the
            # same left-fold the reference path's sum(messages) does.
            target += np.bincount(dsts, weights=values,
                                  minlength=len(target))
        else:
            _FOLD_UFUNCS[combiner].at(target, dsts, values)

    # -- shared accounting ---------------------------------------------------

    def _charge_round(self, round_: ParallelRound, message_bytes: int,
                      barrier_cost: float):
        """Feed the superstep's traffic ledger to ``round_``, finish it
        and charge the barrier.  Pairs go in flattened-index order, i.e.
        sorted by (source, destination) machine, so the float
        accumulators add in one order whichever path filled the ledger.
        Returns (elapsed, remote_transfers, wire_bytes)."""
        machines = self.topology.machine_count
        remote_transfers = 0
        wire_bytes = 0
        for pair in np.flatnonzero(self._pair_counts).tolist():
            count = int(self._pair_counts[pair])
            src_machine, dst_machine = divmod(pair, machines)
            size = count * message_bytes
            round_.add_message(src_machine, dst_machine, size, count)
            if src_machine != dst_machine:
                remote_transfers += count
                wire_bytes += size
        elapsed = round_.finish(parallelism=THREADS_PER_MACHINE)
        elapsed += barrier_cost
        self.network.clock.advance(barrier_cost)
        return elapsed, remote_transfers, wire_bytes

    # -- checkpoint-restart helpers ------------------------------------------

    def _latest_state(self) -> dict | None:
        """The newest engine-state image this run wrote, or None (restart
        from scratch).  A manager reused across runs still holds the
        earlier runs' images: resuming one would replay another run."""
        if not self._images:
            return None
        return self.checkpoints.load_state(self._images[-1])

    def _save_state(self, superstep: int, state: dict) -> None:
        """Checkpoint an engine image if the interval says so."""
        if (self.checkpoints is None
                or (superstep + 1) % self.checkpoints.every):
            return
        state["superstep"] = superstep
        self.checkpoints.save_state(superstep, state)
        self._images.append(superstep)
        self._m_checkpoints.inc()

    # -- main loop ---------------------------------------------------------

    def run(self, program: VertexProgram, max_supersteps: int = 50,
            initial_values=None, on_superstep=None) -> BspResult:
        """Execute ``program`` to quiescence or ``max_supersteps``.

        The engine halts when every vertex has voted to halt and no
        messages are in flight — Pregel-style termination.

        ``on_superstep(superstep, values)``, if given, runs after each
        barrier with a snapshot of the values in dense-id order; the
        checkpointing of Section 6.2 ("for BSP based synchronous
        computation, we make check points every a few supersteps")
        hooks in here.

        Programs declaring a ``combiner`` and both batch kernels
        (``init_batch``, ``compute_batch``) run on the vectorized fast
        path when ``vectorize`` is on (the default).  Checked (by
        ``cross_check`` or a :func:`repro.oracle.checking` scope) the
        per-vertex reference path runs as well, against a throwaway
        network, and any divergence in values or accounting raises
        :class:`~repro.errors.DivergenceError`; it also raises
        :class:`~repro.errors.ComputeError` when a restrictive program
        sends to a vertex that is not an out-neighbor (a kernel's block
        can only send to out-neighbors).
        """
        if max_supersteps < 1:
            raise ComputeError("max_supersteps must be >= 1")
        self._checking = self.cross_check or is_checking()   # once a run
        combiner = program.combiner
        if combiner is not None and combiner not in COMBINERS:
            raise ComputeError(
                f"unknown combiner {combiner!r}; expected one of {COMBINERS}"
            )
        if not (self.vectorize and combiner is not None
                and self.topology.n and _has_kernels(program)):
            return self._run(_ReferencePath(self, program), max_supersteps,
                             initial_values, on_superstep)
        result = self._run(_FastPath(self, program), max_supersteps,
                           initial_values, on_superstep)
        if self._checking:
            self._run_cross_check(program, max_supersteps, initial_values,
                                  result)
        return result

    def _run(self, path: _Path, max_supersteps: int, initial_values,
             on_superstep=None) -> BspResult:
        """The round loop every path shares; ``path`` computes a round,
        says when to stop and what a barrier costs."""
        topo = self.topology
        n = topo.n
        if initial_values is not None and len(initial_values) != n:
            raise ComputeError(
                f"initial_values has {len(initial_values)} entries "
                f"for {n} vertices"
            )
        program = self._program = path.program
        self._neighbor_sets = {}
        self._images = []
        # A fresh injector per run: crash events re-arm, hash tokens
        # restart, so the same (plan, workload) replays the same faults.
        prior_faults = self.network.faults
        if self.faults is not None:
            self._injector = FaultInjector(self.faults,
                                           registry=self.network.obs)
            self.network.faults = self._injector

        def fresh_start():
            self.aggregators = {}
            self.aggregators_next = {}
            self._active = np.ones(n, dtype=bool)
            return 0, path.start(initial_values)

        try:
            superstep, carry = fresh_start()
            ctx = path.ctx
            result = BspResult(values=None)
            while superstep < max_supersteps:
                if self._injector is not None:
                    if self._injector.take_crashes(superstep):
                        # A machine died entering this superstep: roll
                        # back to the last checkpoint image (or superstep
                        # 0) and replay.  Replayed supersteps recharge
                        # the clock — that is the cost of recovery — but
                        # recompute the same values, so results stay
                        # bit-identical.
                        self._m_restarts.inc()
                        result.restarts += 1
                        state = self._latest_state()
                        if state is None:
                            superstep, carry = fresh_start()
                        else:
                            self.values = state["values"]
                            self.aggregators = state["aggregators"]
                            self.aggregators_next = {}
                            self._active = state["active"]
                            carry = state["carry"]
                            superstep = state["superstep"] + 1
                        continue
                    self._injector.begin_round(superstep)
                with self._h_wall.time(), \
                        self.tracer.span("bsp.superstep",
                                         superstep=superstep) as span:
                    ctx.superstep = superstep
                    self._messages = 0
                    self._woken = np.zeros(n, dtype=bool)
                    self._pair_counts = np.zeros(topo.machine_count ** 2,
                                                 dtype=np.int64)
                    round_ = ParallelRound(self.network)
                    ran, carry = path.step(carry, round_)
                    elapsed, remote_transfers, wire_bytes = \
                        self._charge_round(round_, program.message_bytes,
                                           path.barrier_cost)
                    span.set(active=ran, messages=self._messages,
                             remote_transfers=remote_transfers)
                self._m_supersteps.inc()
                self._h_messages.observe(self._messages)
                # Depth of the inter-superstep message queue about to be
                # consumed by the next barrier.
                self._g_queue.set(self._messages)

                # Barrier wake: message receipt reactivates the
                # destination at the barrier, after all halts —
                # deterministic regardless of machine processing order.
                self._active |= self._woken
                self.aggregators = self.aggregators_next
                self.aggregators_next = {}
                program.after_superstep(ctx)

                result.supersteps.append(SuperstepReport(
                    superstep=superstep,
                    elapsed=elapsed,
                    active_vertices=ran,
                    messages=self._messages,
                    remote_transfers=remote_transfers,
                    message_bytes=wire_bytes,
                ))
                if on_superstep is not None:
                    on_superstep(superstep, path.public(self.values))
                # The image is the engine's own state (compute order on
                # the fast path): only this engine reads it.
                self._save_state(superstep, {
                    "values": self.values,
                    "active": self._active,
                    "carry": carry,
                    "aggregators": self.aggregators,
                })
                if path.halted(carry):
                    break
                superstep += 1
        finally:
            self.network.faults = prior_faults
            self._injector = None
            self._program = None

        result.values = path.public(self.values)
        result.aggregators = dict(self.aggregators)
        return result

    # -- vectorized fast path ------------------------------------------------

    def _send_plan(self, senders: np.ndarray, hub: bool) -> _SendPlan:
        """The last plan if it was built from an equal sender array
        under the same hub flag, else a fresh build — which keeps
        ``senders``: pass the barrier's own array, never a kernel's."""
        plan = self._plan
        if (plan is not None and plan.hub == hub
                and np.array_equal(plan.senders, senders)):
            self._m_plan_reuses.inc()
            return plan
        self._m_plan_builds.inc()
        self._plan = None    # free the old arrays before allocating new
        self._plan = self._fast.build_plan(senders, hub)
        return self._plan

    def _flush_by_plan(self, senders: np.ndarray, values, *,
                       uniform: bool) -> None:
        """Apply the plan of ``senders`` (in compute order) to this
        superstep's values: one per sender when ``uniform`` (a broadcast,
        hub-buffered where eligible), else one per edge."""
        plan = self._send_plan(senders,
                               uniform and self._program.uniform_messages)
        values = np.asarray(values, dtype=self._fs_dtype)
        self._fold_into(plan.dsts,
                        np.repeat(values, plan.degrees) if uniform else values)
        self._woken |= plan.received
        self._pair_counts += plan.pair_counts

    def _flush_deferred_sends(self) -> None:
        """Fold the sends collected this superstep, in compute order.

        One fold pass per send kind over the full superstep reproduces
        the reference enqueue order exactly: broadcasts first, then
        per-edge sends.  (A ``sum`` program mixing send kinds in one
        superstep would see a different — still deterministic — float
        association than the reference path; the shipped programs each
        use a single kind per superstep.)"""
        for sends, uniform in ((self._fs_bcast, True),
                               (self._fs_edge, False)):
            if sends:
                senders, values = zip(*sends)
                self._flush_by_plan(np.concatenate(senders),
                                    np.concatenate(values), uniform=uniform)

    def _reset_send_buffers(self) -> None:
        """Start next superstep's combined inbox and the deferred sends."""
        self._fs_next_combined = np.full(self.topology.n, self._fs_identity,
                                         dtype=self._fs_dtype)
        # (sender positions, values) per block, by send kind
        self._fs_bcast: list[tuple[np.ndarray, np.ndarray]] = []
        self._fs_edge: list[tuple[np.ndarray, np.ndarray]] = []

    def _open_block(self, machine: int, combined: np.ndarray,
                    received: np.ndarray) -> MachineBlock | None:
        """The block of ``machine``'s active vertices, or None if none is:
        views of its slice when all of them are, else gathers."""
        lo, hi = self._fast.bounds[machine], self._fast.bounds[machine + 1]
        active = self._active[lo:hi]
        count = int(np.count_nonzero(active))
        if not count:
            return None
        where = (slice(lo, hi) if count == hi - lo
                 else lo + np.flatnonzero(active))
        return MachineBlock(self, where, combined, received)

    def _close_block(self, block: MachineBlock) -> None:
        """Write a gathered block's values back (a view wrote through)."""
        if not isinstance(block._where, slice):
            self.values[block._where] = block.values

    def _compute_machines(self, machines, combined, received):
        """Run ``compute_batch`` on each given machine's block.

        Sends collect into the deferred buffers; aggregates, halts and
        value writes land in engine state.  Returns ``(ran_total,
        costs)`` with per-machine ``(machine, ran_count, degree_sum)``
        tuples in iteration order.
        """
        program = self._program
        batch_ctx = self._fs_batch_ctx
        ran_total = 0
        costs = []
        for machine in machines:
            block = self._open_block(machine, combined, received)
            ran_count = degree_sum = 0
            if block is not None:
                program.compute_batch(batch_ctx, block)
                self._close_block(block)
                ran_count = len(block)
                degree_sum = int(block.degrees.sum())
            costs.append((machine, ran_count, degree_sum))
            ran_total += ran_count
        return ran_total, costs

    # -- cross-check ---------------------------------------------------------

    def _run_cross_check(self, program: VertexProgram, max_supersteps: int,
                         initial_values, fast_result: BspResult) -> None:
        """Run the per-vertex reference path against a throwaway network
        and require value-identical results and identical accounting."""
        # The reference run must replay the same chaos: same fault plan
        # (a fresh injector draws the same seeded faults) and an
        # equivalent checkpoint cadence on a throwaway TFS, so crashes
        # roll back and recharge identically on both paths.
        reference_checkpoints = None
        if self.checkpoints is not None:
            reference_checkpoints = CheckpointManager(
                TrinityFileSystem(),
                job=self.checkpoints.job,
                every=self.checkpoints.every,
            )
        reference_engine = BspEngine(
            self.topology,
            network=SimNetwork(params=self.network.params,
                               registry=MetricsRegistry()),
            # unvectorized, so this only arms the restrictive-send check
            cross_check=True,
            vectorize=False,
            faults=self.faults,
            checkpoints=reference_checkpoints,
        )
        reference = reference_engine.run(program,
                                         max_supersteps=max_supersteps,
                                         initial_values=initial_values)
        fast_values = np.asarray(fast_result.values)
        try:
            reference_values = np.asarray(reference.values,
                                          dtype=fast_values.dtype)
        except (TypeError, ValueError):
            # A vertex init/init_batch never set is zero in the dense
            # fast-path array, None here: uncoerced, the seam reports it.
            reference_values = np.asarray(reference.values, dtype=object)
        shadow("compute.bsp.values", fast_values, reference_values,
               equal=np.array_equal)
        shadow("compute.bsp.accounting", fast_result, reference,
               fields=("superstep_count", "restarts", "supersteps"))
