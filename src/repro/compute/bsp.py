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
accounting: for restrictive programs with uniform messages, a hub vertex's
value is buffered at each destination machine for the whole superstep, so
it crosses each link once instead of once per edge.  (For a scale-free
graph the paper estimates that buffering the top 1% of vertices serves
72.8% of message needs.)

Two compute paths share this accounting, both in this process (the
cluster's parallelism is charged on the simulated clock, never run on
the host's cores: DESIGN.md §12):

* the **per-vertex reference path**: a Python loop calling ``compute``
  with ``list`` inboxes — the semantics of record;
* the **vectorized fast path** (programs declaring a ``combiner``):
  inboxes become one dense numpy value array plus a received-mask, and
  programs implementing ``compute_batch`` run one numpy kernel per
  machine slice.  Sends fold at the barrier through a **send plan** —
  destinations, received mask and machine-pair traffic, a function of
  the sender array alone — which is kept and re-applied while the
  sender array repeats (DESIGN.md §8).

Both paths charge the simulated clock identically — same superstep
reports, same network counters — which ``cross_check=True`` verifies by
running the reference path against a throwaway network and comparing.
A fast-path superstep is three steps in ``_run_fast``: reset the send
buffers, run every machine's kernels, then fold what they sent — one
pass over the whole superstep, in reference enqueue order.

Superstep semantics are deterministic and order-independent: a vertex
runs in superstep *s* iff it is active at the barrier entering *s*;
message receipt reactivates a vertex *at the barrier* (so a halt and a
wake landing in the same superstep always resolve wake-wins, regardless
of which machine processed first).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..config import ComputeParams
from ..errors import ComputeError
from ..faults import FaultInjector, FaultPlan
from ..net.simnet import ParallelRound, SimNetwork
from ..obs import MetricsRegistry, Tracer
from ..oracle import shadow
from ..tfs import TrinityFileSystem
from .checkpoint import CheckpointManager
from .vertex import (
    COMBINERS,
    BatchComputeContext,
    ComputeContext,
    VertexProgram,
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


_FOLD_UFUNCS = {"sum": np.add, "min": np.minimum, "max": np.maximum}


def _combiner_identity(combiner: str, dtype: np.dtype):
    """The fold identity: what an unreceiving vertex's combined slot
    holds (``sum([]) == 0``; min/max use the dtype's infinities)."""
    if combiner == "sum":
        return dtype.type(0)
    if dtype.kind == "f":
        return dtype.type(np.inf if combiner == "min" else -np.inf)
    info = np.iinfo(dtype)
    return dtype.type(info.max if combiner == "min" else info.min)


@dataclass(frozen=True)
class _SendPlan:
    """The control-plane half of a barrier: what a superstep's sends
    need that does not read their values.  A pure function of
    ``(senders, hub)``, so the last one is re-applied while the sender
    set repeats ("predictable iteration after iteration", Section 5.3)."""

    senders: np.ndarray      # the plan's own copy, in compute order
    hub: bool                # hub buffering applied to the traffic
    degrees: np.ndarray      # out-degree per sender: values repeat by it
    dsts: np.ndarray         # destination per edge, in enqueue order
    received: np.ndarray     # length-n mask of ``dsts``
    pair_counts: np.ndarray  # flattened machines x machines messages


class _FastState:
    """Per-topology precomputation for the vectorized path."""

    def __init__(self, topology, hub_threshold: float):
        self.topology = topology
        self.degrees = topology.out_degrees()
        # Messages a vertex's sends put on the link to each machine,
        # without and with hub buffering (Section 5.4).
        self.fanout = topology.machine_fanout
        self.hub_fanout = topology.hub_fanout(hub_threshold)

    def edge_slice(self, vertices: np.ndarray) -> np.ndarray:
        """Positions in ``topology.out_indices`` of the out-edges of
        ``vertices``, concatenated per vertex in order.  For vertices in
        compute order (machine by machine, ascending within a machine)
        that is the order the per-vertex reference path enqueues
        messages, so a ``sum`` folded along it reproduces the reference
        path's float accumulation bit for bit."""
        degrees = self.degrees[vertices]
        running = np.cumsum(degrees)
        starts = self.topology.out_indptr[vertices]
        return (np.repeat(starts - (running - degrees), degrees)
                + np.arange(int(degrees.sum()), dtype=np.int64))

    def build_plan(self, senders: np.ndarray, hub: bool) -> _SendPlan:
        """Derive everything ``senders``' sends need but their values."""
        dsts = self.topology.out_indices[self.edge_slice(senders)]
        received = np.zeros(self.topology.n, dtype=bool)
        received[dsts] = True
        return _SendPlan(
            senders=senders, hub=hub, degrees=self.degrees[senders],
            dsts=dsts, received=received,
            pair_counts=self.topology.pair_traffic(
                senders, self.hub_fanout if hub else self.fanout),
        )


class BspEngine:
    """Executes vertex programs superstep by superstep."""

    def __init__(self, topology, network: SimNetwork | None = None,
                 compute_params: ComputeParams | None = None,
                 hub_buffering: bool = True,
                 hub_fraction: float = 0.01,
                 validate_restrictive: bool = False,
                 vectorize: bool = True,
                 cross_check: bool = False,
                 faults: FaultPlan | None = None,
                 checkpoints: CheckpointManager | None = None):
        self.topology = topology
        self.network = network or SimNetwork()
        self.compute_params = compute_params or ComputeParams()
        self.hub_buffering = hub_buffering
        self.hub_fraction = hub_fraction
        self.validate_restrictive = validate_restrictive
        self.vectorize = vectorize
        self.cross_check = cross_check
        self.faults = faults
        self.checkpoints = checkpoints
        self.hub_threshold = topology.hub_threshold(
            hub_fraction if hub_buffering else 0.0)
        self._machine_vertices = [
            topology.nodes_of_machine(m) for m in range(topology.machine_count)
        ]
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
        self._state_tag: int | None = None     # newest image this run wrote
        self._fast: _FastState | None = None
        # The last send plan.  A pure function of its key: it outlives
        # runs and rollbacks and is no part of the checkpoint image.
        self._plan: _SendPlan | None = None
        self._fast_mode = False

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
        if program.restrictive and self.validate_restrictive:
            self._check_restrictive(src, dst)
        machine = self.topology.machine
        if self._fast_mode:
            self._fs_single_dst.append(dst)
            self._fs_single_val.append(value)
            self._fs_single_pair.append(
                int(machine[src]) * self.topology.machine_count
                + int(machine[dst])
            )
            self._messages += 1
            return
        self._next_inbox[dst].append(value)
        self._woken[dst] = True
        self._messages += 1
        # One dict lookup per message, not two.
        entry = self._traffic[(int(machine[src]), int(machine[dst]))]
        entry[0] += 1
        entry[1] += program.message_bytes

    def enqueue_to_neighbors(self, src: int, value) -> None:
        """Broadcast to out-neighbors (restrictive fast path)."""
        program = self._program
        assert program is not None
        if self._fast_mode:
            degree = int(self._fast.degrees[src])
            if not degree:
                return
            self._fs_bcast_src.append(src)
            self._fs_bcast_val.append(value)
            self._messages += degree
            return
        neighbors = self.topology.out_neighbors(src)
        if not len(neighbors):
            return
        for dst in neighbors:
            self._next_inbox[dst].append(value)
        self._woken[neighbors] = True
        self._messages += len(neighbors)
        src_machine = int(self.topology.machine[src])
        dst_machines = self.topology.machine[neighbors]
        is_hub = (self.hub_buffering and program.uniform_messages
                  and len(neighbors) >= self.hub_threshold)
        if is_hub:
            # The hub's value is shipped once per destination machine and
            # buffered there for the superstep.
            for dst_machine in np.unique(dst_machines):
                entry = self._traffic[(src_machine, int(dst_machine))]
                entry[0] += 1
                entry[1] += program.message_bytes
        else:
            machines, counts = np.unique(dst_machines, return_counts=True)
            for dst_machine, count in zip(machines, counts):
                entry = self._traffic[(src_machine, int(dst_machine))]
                entry[0] += int(count)
                entry[1] += int(count) * program.message_bytes

    def halt(self, vertex: int) -> None:
        self._active[vertex] = False

    # -- engine hooks used by BatchComputeContext ---------------------------

    def halt_many(self, vertices) -> None:
        self._active[np.asarray(vertices, dtype=np.int64)] = False

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

    def batch_send_uniform(self, vertices, values) -> None:
        """Uniform broadcast for a vertex slice (hub-eligible).

        Deferred until the barrier: all of the superstep's broadcasts
        fold in one pass over the concatenated edge list, so a ``sum``
        combiner left-folds in the exact reference enqueue order (a
        per-call fold would add machine-local partial sums, which is a
        different float association).
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        values = np.asarray(values)
        if values.shape != vertices.shape:
            raise ComputeError(
                f"send_to_neighbors got {values.size} values for "
                f"{len(vertices)} vertices"
            )
        total = int(self._fast.degrees[vertices].sum())
        if not total:
            return
        self._fs_bcast_verts.append(vertices)
        self._fs_bcast_vals.append(values)
        self._messages += total

    def batch_send_edges(self, vertices, edge_values) -> None:
        """Per-edge sends for a vertex slice (non-uniform: no hub opt).

        Deferred like :meth:`batch_send_uniform`.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        edge_values = np.asarray(edge_values)
        total = int(self._fast.degrees[vertices].sum())
        if len(edge_values) != total:
            raise ComputeError(
                f"send_along_edges got {len(edge_values)} values for "
                f"{total} edges"
            )
        if not total:
            return
        self._fs_edge_verts.append(vertices)
        self._fs_edge_vals.append(edge_values)
        self._messages += total

    # -- shared accounting ---------------------------------------------------

    def _charge_round(self, round_: ParallelRound, pair_items):
        """Feed the superstep's traffic (sorted by machine pair, so both
        paths hit the float accumulators in the same order) and finish
        the round.  Returns (elapsed, remote_transfers, wire_bytes)."""
        cost = self.compute_params
        remote_transfers = 0
        wire_bytes = 0
        for (src_machine, dst_machine), (count, size) in pair_items:
            round_.add_message(src_machine, dst_machine, size, count)
            if src_machine != dst_machine:
                remote_transfers += count
                wire_bytes += size
        elapsed = round_.finish(parallelism=cost.threads_per_machine)
        elapsed += cost.barrier_cost
        self.network.clock.advance(cost.barrier_cost)
        return elapsed, remote_transfers, wire_bytes

    def _check_initial_values(self, initial_values, n: int) -> None:
        if initial_values is not None and len(initial_values) != n:
            raise ComputeError(
                f"initial_values has {len(initial_values)} entries "
                f"for {n} vertices"
            )

    # -- checkpoint-restart helpers ------------------------------------------

    def _latest_state(self) -> dict | None:
        """The newest engine-state image this run wrote, or None (restart
        from scratch).  A manager reused across runs still holds the
        earlier runs' images: resuming one would replay another run."""
        if self._state_tag is None:
            return None
        return self.checkpoints.load_state(self._state_tag)

    def _save_state(self, superstep: int, state: dict) -> None:
        """Checkpoint an engine image if the interval says so."""
        if (self.checkpoints is None
                or (superstep + 1) % self.checkpoints.every):
            return
        state["superstep"] = superstep
        self.checkpoints.save_state(superstep, state)
        self._state_tag = superstep
        self._m_checkpoints.inc()

    # -- main loop ---------------------------------------------------------

    def run(self, program: VertexProgram, max_supersteps: int = 50,
            initial_values=None, on_superstep=None) -> BspResult:
        """Execute ``program`` to quiescence or ``max_supersteps``.

        The engine halts when every vertex has voted to halt and no
        messages are in flight — Pregel-style termination.

        ``on_superstep(superstep, values)``, if given, runs after each
        barrier; the checkpointing of Section 6.2 ("for BSP based
        synchronous computation, we make check points every a few
        supersteps") hooks in here.

        Programs declaring a ``combiner`` run on the vectorized fast
        path when ``vectorize`` is on (the default); with
        ``cross_check=True`` the per-vertex reference path is executed
        as well (against a throwaway network) and any divergence in
        values or accounting raises
        :class:`~repro.errors.DivergenceError`.
        """
        if max_supersteps < 1:
            raise ComputeError("max_supersteps must be >= 1")
        combiner = program.combiner
        if combiner is not None and combiner not in COMBINERS:
            raise ComputeError(
                f"unknown combiner {combiner!r}; expected one of {COMBINERS}"
            )
        self._program = program
        self._neighbor_sets = {}
        self._state_tag = None
        # A fresh injector per run: crash events re-arm, hash tokens
        # restart, so the same (plan, workload) replays the same faults.
        prior_faults = self.network.faults
        if self.faults is not None:
            self._injector = FaultInjector(self.faults,
                                           registry=self.network.obs)
            self.network.faults = self._injector
        try:
            if not (self.vectorize and combiner is not None
                    and self.topology.n):
                return self._run_reference(program, max_supersteps,
                                           initial_values, on_superstep)
            result = self._run_fast(program, max_supersteps, initial_values,
                                    on_superstep,
                                    use_batch=program.batch_eligible)
            if self.cross_check:
                self._run_cross_check(program, max_supersteps,
                                      initial_values, result)
            return result
        finally:
            self.network.faults = prior_faults
            self._injector = None
            self._program = None
            self._fast_mode = False

    # -- per-vertex reference path ------------------------------------------

    def _run_reference(self, program: VertexProgram, max_supersteps: int,
                       initial_values, on_superstep) -> BspResult:
        topo = self.topology
        n = topo.n
        self._fast_mode = False
        self._check_initial_values(initial_values, n)
        ctx = ComputeContext(self)

        def fresh_start() -> tuple[int, list]:
            if initial_values is None:
                self.values = [None] * n
            else:
                self.values = list(initial_values)
            self.aggregators = {}
            self.aggregators_next = {}
            self._active = np.ones(n, dtype=bool)
            for vertex in range(n):
                ctx._bind(vertex)
                program.init(ctx, vertex)
            return 0, [[] for _ in range(n)]

        superstep, inbox = fresh_start()
        result = BspResult(values=self.values)
        cost = self.compute_params
        per_vertex_cost = cost.vertex_compute_cost + cost.cell_access_cost
        while superstep < max_supersteps:
            if self._injector is not None:
                if self._injector.take_crashes(superstep):
                    # A machine died entering this superstep: roll back
                    # to the last checkpoint image (or superstep 0) and
                    # replay.  Replayed supersteps recharge the clock —
                    # that is the cost of recovery — but recompute the
                    # same values, so results stay bit-identical.
                    self._m_restarts.inc()
                    result.restarts += 1
                    state = self._latest_state()
                    if state is None:
                        superstep, inbox = fresh_start()
                    else:
                        self.values = state["values"]
                        self.aggregators = state["aggregators"]
                        self.aggregators_next = {}
                        self._active = state["active"]
                        inbox = state["inbox"]
                        superstep = state["superstep"] + 1
                    continue
                self._injector.begin_round(superstep)
            with self._h_wall.time(), \
                    self.tracer.span("bsp.superstep",
                                     superstep=superstep) as span:
                ctx.superstep = superstep
                self._next_inbox = [[] for _ in range(n)]
                self._messages = 0
                self._traffic = defaultdict(lambda: [0, 0])
                self._woken = np.zeros(n, dtype=bool)

                round_ = ParallelRound(self.network)
                ran = 0
                for machine, vertices in enumerate(self._machine_vertices):
                    ran_here = 0
                    degree_sum = 0
                    for vertex in vertices:
                        vertex = int(vertex)
                        messages = inbox[vertex]
                        if not self._active[vertex] and not messages:
                            continue
                        ctx._bind(vertex)
                        program.compute(ctx, vertex, messages)
                        ran_here += 1
                        degree_sum += int(topo.out_indptr[vertex + 1]
                                          - topo.out_indptr[vertex])
                    round_.add_compute(
                        machine,
                        ran_here * per_vertex_cost
                        + degree_sum * cost.edge_scan_cost,
                    )
                    ran += ran_here

                elapsed, remote_transfers, wire_bytes = self._charge_round(
                    round_, sorted(self._traffic.items())
                )
                span.set(active=ran, messages=self._messages,
                         remote_transfers=remote_transfers)
            self._m_supersteps.inc()
            self._h_messages.observe(self._messages)
            # Depth of the inter-superstep message queue about to be
            # consumed by the next barrier.
            self._g_queue.set(self._messages)

            # Barrier wake: message receipt reactivates the destination
            # at the barrier, after all halts — deterministic regardless
            # of machine processing order.
            self._active |= self._woken
            self.aggregators = self.aggregators_next
            self.aggregators_next = {}
            ctx.superstep = superstep
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
                on_superstep(superstep, self.values)
            self._save_state(superstep, {
                "values": self.values,
                "active": self._active,
                "inbox": self._next_inbox,
                "aggregators": self.aggregators,
            })
            inbox = self._next_inbox
            if self._messages == 0 and not self._active.any():
                break
            superstep += 1

        result.values = self.values
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
        plan = self._send_plan(senders, uniform and self.hub_buffering
                               and self._program.uniform_messages)
        values = np.asarray(values, dtype=self._fs_dtype)
        self._fold_into(plan.dsts,
                        np.repeat(values, plan.degrees) if uniform else values)
        self._fs_next_received |= plan.received
        self._fs_pair_counts += plan.pair_counts

    def _flush_deferred_sends(self) -> None:
        """Fold the sends collected this superstep, in compute order.

        One fold pass per send kind over the full superstep reproduces
        the reference enqueue order exactly: broadcasts first, then
        per-edge sends, then general-model singles.  (A ``sum`` program
        mixing send kinds in one superstep would see a different — still
        deterministic — float association than the reference path; the
        shipped programs each use a single kind per superstep.)"""
        if self._fs_bcast_src:
            self._flush_by_plan(np.array(self._fs_bcast_src, dtype=np.int64),
                                self._fs_bcast_val, uniform=True)
        if self._fs_bcast_verts:
            self._flush_by_plan(np.concatenate(self._fs_bcast_verts),
                                np.concatenate(self._fs_bcast_vals),
                                uniform=True)
        if self._fs_edge_verts:
            self._flush_by_plan(np.concatenate(self._fs_edge_verts),
                                np.concatenate(self._fs_edge_vals),
                                uniform=False)
        if self._fs_single_dst:
            # General-model singles go to arbitrary vertices: there is no
            # sender set to plan from.
            dsts = np.array(self._fs_single_dst, dtype=np.int64)
            values = np.asarray(self._fs_single_val, dtype=self._fs_dtype)
            self._fold_into(dsts, values)
            self._fs_next_received[dsts] = True
            self._fs_pair_counts += np.bincount(
                np.array(self._fs_single_pair, dtype=np.int64),
                minlength=len(self._fs_pair_counts),
            )

    def _fs_pair_items(self, message_bytes: int) -> list:
        """The superstep's traffic as sorted ((src, dst), (count, bytes))
        items — the flattened pair index is already lexicographic."""
        machines = self.topology.machine_count
        items = []
        for pair in np.nonzero(self._fs_pair_counts)[0].tolist():
            count = int(self._fs_pair_counts[pair])
            items.append((divmod(pair, machines),
                          (count, count * message_bytes)))
        return items

    def _reset_send_buffers(self) -> None:
        """Zero the per-superstep message state."""
        self._messages = 0
        n = self.topology.n
        self._fs_next_combined = np.full(n, self._fs_identity,
                                         dtype=self._fs_dtype)
        self._fs_next_received = np.zeros(n, dtype=bool)
        self._fs_pair_counts = np.zeros(self.topology.machine_count ** 2,
                                        dtype=np.int64)
        self._fs_bcast_src: list[int] = []
        self._fs_bcast_val: list = []
        self._fs_bcast_verts: list[np.ndarray] = []
        self._fs_bcast_vals: list[np.ndarray] = []
        self._fs_edge_verts: list[np.ndarray] = []
        self._fs_edge_vals: list[np.ndarray] = []
        self._fs_single_dst: list[int] = []
        self._fs_single_val: list = []
        self._fs_single_pair: list[int] = []

    def _compute_machines(self, machines, combined, received,
                          use_batch: bool):
        """Run the fast-path kernels for the given machine ids.

        Each machine's active vertices run ``compute_batch`` (or the
        per-vertex ``compute`` loop), collecting sends into the deferred
        buffers and aggregates/halts/value writes into engine state.
        Returns ``(ran_total, costs)`` with per-machine
        ``(machine, ran_count, degree_sum)`` tuples in iteration order.
        """
        program = self._program
        fast = self._fast
        ctx = self._fs_ctx
        batch_ctx = self._fs_batch_ctx
        ran_total = 0
        costs = []
        for machine in machines:
            vertices = self._machine_vertices[machine]
            ran = vertices[self._active[vertices]]
            ran_count = len(ran)
            degree_sum = 0
            if ran_count:
                if use_batch:
                    program.compute_batch(batch_ctx, ran, combined[ran],
                                          received[ran])
                else:
                    for vertex in ran.tolist():
                        ctx._bind(vertex)
                        messages = ([combined[vertex]]
                                    if received[vertex] else [])
                        program.compute(ctx, vertex, messages)
                degree_sum = int(fast.degrees[ran].sum())
            costs.append((machine, ran_count, degree_sum))
            ran_total += ran_count
        return ran_total, costs

    def _run_fast(self, program: VertexProgram, max_supersteps: int,
                  initial_values, on_superstep, use_batch: bool) -> BspResult:
        topo = self.topology
        n = topo.n
        cost = self.compute_params
        if self._fast is None:
            self._fast = _FastState(topo, self.hub_threshold)
        dtype = np.dtype(program.value_dtype)
        identity = _combiner_identity(program.combiner, dtype)
        self._fast_mode = True
        self._fs_combiner = program.combiner
        self._fs_dtype = dtype
        self._fs_identity = identity
        self._check_initial_values(initial_values, n)
        ctx = ComputeContext(self)
        batch_ctx = BatchComputeContext(self)
        self._fs_ctx = ctx
        self._fs_batch_ctx = batch_ctx

        def fresh_start() -> tuple[int, np.ndarray, np.ndarray]:
            if initial_values is None:
                self.values = np.zeros(n, dtype=dtype)
            else:
                self.values = np.array(initial_values, dtype=dtype)
            self.aggregators = {}
            self.aggregators_next = {}
            self._active = np.ones(n, dtype=bool)
            if type(program).init_batch is not VertexProgram.init_batch:
                program.init_batch(batch_ctx)
            else:
                for vertex in range(n):
                    ctx._bind(vertex)
                    program.init(ctx, vertex)
            return (0, np.full(n, identity, dtype=dtype),
                    np.zeros(n, dtype=bool))

        superstep, combined, received = fresh_start()
        result = BspResult(values=self.values)
        per_vertex_cost = cost.vertex_compute_cost + cost.cell_access_cost
        while superstep < max_supersteps:
            if self._injector is not None:
                if self._injector.take_crashes(superstep):
                    # Same rollback-and-replay as the reference path; the
                    # pickled image round-trips the numpy arrays exactly.
                    self._m_restarts.inc()
                    result.restarts += 1
                    state = self._latest_state()
                    if state is None:
                        superstep, combined, received = fresh_start()
                    else:
                        self.values = state["values"]
                        self.aggregators = state["aggregators"]
                        self.aggregators_next = {}
                        self._active = state["active"]
                        combined = state["combined"]
                        received = state["received"]
                        superstep = state["superstep"] + 1
                    continue
                self._injector.begin_round(superstep)
            with self._h_wall.time(), \
                    self.tracer.span("bsp.superstep",
                                     superstep=superstep) as span:
                ctx.superstep = superstep
                batch_ctx.superstep = superstep
                round_ = ParallelRound(self.network)
                self._reset_send_buffers()
                ran_total, machine_costs = self._compute_machines(
                    range(topo.machine_count), combined, received, use_batch
                )
                self._flush_deferred_sends()
                for machine, ran_count, degree_sum in machine_costs:
                    round_.add_compute(
                        machine,
                        ran_count * per_vertex_cost
                        + degree_sum * cost.edge_scan_cost,
                    )
                elapsed, remote_transfers, wire_bytes = self._charge_round(
                    round_, self._fs_pair_items(program.message_bytes)
                )
                span.set(active=ran_total, messages=self._messages,
                         remote_transfers=remote_transfers)
            self._m_supersteps.inc()
            self._h_messages.observe(self._messages)
            self._g_queue.set(self._messages)

            self._active |= self._fs_next_received
            self.aggregators = self.aggregators_next
            self.aggregators_next = {}
            program.after_superstep(batch_ctx if use_batch else ctx)

            result.supersteps.append(SuperstepReport(
                superstep=superstep,
                elapsed=elapsed,
                active_vertices=ran_total,
                messages=self._messages,
                remote_transfers=remote_transfers,
                message_bytes=wire_bytes,
            ))
            if on_superstep is not None:
                on_superstep(superstep, self.values)
            self._save_state(superstep, {
                "values": self.values,
                "active": self._active,
                "combined": self._fs_next_combined,
                "received": self._fs_next_received,
                "aggregators": self.aggregators,
            })
            combined = self._fs_next_combined
            received = self._fs_next_received
            if self._messages == 0 and not self._active.any():
                break
            superstep += 1

        result.values = self.values
        result.aggregators = dict(self.aggregators)
        return result

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
            compute_params=self.compute_params,
            hub_buffering=self.hub_buffering,
            hub_fraction=self.hub_fraction,
            validate_restrictive=self.validate_restrictive,
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
