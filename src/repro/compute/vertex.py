"""Vertex programs: the user-facing abstraction for offline analytics.

Section 5.3 contrasts two vertex-centric models:

* the **general** model (Pregel): "a vertex may receive messages sent to
  it by any vertex in the previous super-step, send messages to any
  vertex, and modify its vertex values";
* the **restrictive** model (Trinity): a vertex exchanges messages with a
  *fixed* set of vertices, usually its neighbors, which makes the
  communication pattern predictable and optimisable.

A :class:`VertexProgram` declares which model it needs via
``restrictive``; restrictive programs should send with
``ctx.send_to_neighbors`` so the engine can apply hub-vertex buffering and
action-script scheduling.

Two execution paths consume a program (see ``repro.compute.bsp``):

* the **per-vertex reference path** calls :meth:`VertexProgram.compute`
  once per active vertex with a Python list inbox — the semantics both
  paths must agree on;
* the **vectorized fast path** runs a program that declares a
  :attr:`VertexProgram.combiner` and implements both
  :meth:`VertexProgram.init_batch` and :meth:`VertexProgram.compute_batch`
  (any other program takes the reference path).  Messages are folded,
  at the barrier, into a dense numpy value array plus a received-mask,
  and each kernel runs once per machine.
  Each kernel call gets a :class:`MachineBlock`: the machine's running
  vertices with their values, folded inboxes and out-degrees, plus the
  sends and halts that reach those vertices only.  The engine keeps its
  vertex state in compute order (machine by machine), so when a whole
  machine runs, the block's arrays are views of that machine's slice.
"""

from __future__ import annotations

import numpy as np

from ..errors import ComputeError

#: Message-fold operators a program may declare via ``combiner``.
COMBINERS = ("sum", "min", "max")


class VertexProgram:
    """Base class for vertex-centric computations.

    Subclasses override :meth:`compute`; optional hooks cover
    initialisation and per-superstep aggregation.  Vertex state lives in
    ``values`` arrays owned by the engine, keyed by dense vertex index.
    """

    restrictive: bool = True
    """True if vertices only message their out-neighbors (Trinity's model).
    A checked engine run (:func:`repro.oracle.checking`) verifies this at
    runtime and raises on violations, since the message-scheduling
    optimisations are only sound under it."""

    uniform_messages: bool = False
    """True if, within one superstep, a vertex sends the *same* value to
    every destination (PageRank, connected components...).  Uniform
    restrictive programs are eligible for hub-vertex buffering: a hub's
    value crosses the wire once per machine instead of once per edge."""

    message_bytes: int = 16
    """Modelled wire size per logical message (8-byte dst + 8-byte value
    by default); only affects simulated time, not results."""

    combiner: str | None = None
    """Optional message combiner: ``"sum"``, ``"min"`` or ``"max"``.
    Declaring one states that :meth:`compute` only ever consumes the
    fold of its inbox (``sum(messages)`` / ``min(messages)`` /
    ``max(messages)``), never individual messages.  The engine then
    replaces the ``list[list]`` inbox with a dense numpy value array plus
    a received-mask and folds each superstep's messages in one pass at
    the barrier — the GraphD-style optimisation that removes per-message
    Python objects entirely.
    Requires numeric messages/values (see ``value_dtype``), and the
    program must initialise every vertex's value in ``init`` and
    ``init_batch`` (the dense array defaults untouched vertices to zero,
    where the reference path would leave ``None``).  Only programs that
    also implement both batch kernels run on the fast path."""

    value_dtype = np.float64
    """Numpy dtype for the dense value/combined arrays used by the
    vectorized path.  Programs with integer state (BFS levels, WCC
    labels) should set ``np.int64``.  Only consulted when ``combiner``
    is declared."""

    def init(self, ctx: "ComputeContext", vertex: int) -> None:
        """Called for every vertex before superstep 0."""

    def init_batch(self, ctx: "BatchComputeContext",
                   block: "MachineBlock") -> None:
        """Vectorized initialisation of one machine: fill ``block.values``.

        Optional; the fast path needs it and :meth:`compute_batch` both.
        Called once per machine before superstep 0, with ``block.values``
        holding the caller's ``initial_values`` (zeros by default).  Must
        leave values identical to what the per-vertex :meth:`init` loop
        would."""
        raise NotImplementedError

    def compute(self, ctx: "ComputeContext", vertex: int,
                messages: list) -> None:
        """The superstep kernel; must be overridden."""
        raise NotImplementedError

    def compute_batch(self, ctx: "BatchComputeContext",
                      block: "MachineBlock") -> None:
        """Vectorized superstep kernel over one machine's running vertices.

        Optional; requires ``combiner`` and :meth:`init_batch`.
        ``block`` holds the vertices of one machine that run this
        superstep (see :class:`MachineBlock`):
        their ids, values (writable), folded inboxes (the combiner's
        identity where nothing arrived), received flags and out-degrees.
        The kernel reads and writes ``block.values``, sends and halts
        through the block, and aggregates through ``ctx``.  Semantics
        must match :meth:`compute` exactly — a checked engine run and
        the equivalence tests enforce it."""
        raise NotImplementedError

    def after_superstep(self, ctx) -> None:
        """Called once per superstep after the barrier (aggregation etc.)."""


class _AggregatorMixin:
    """Shared sum-aggregator view (both context flavours expose it)."""

    _engine = None

    def aggregate(self, name: str, value: float) -> None:
        """Add ``value`` into the superstep's named sum-aggregator."""
        self._engine.aggregators_next[name] = (
            self._engine.aggregators_next.get(name, 0.0) + value
        )

    def aggregated(self, name: str, default: float = 0.0) -> float:
        """Read the aggregator value from the *previous* superstep."""
        return self._engine.aggregators.get(name, default)


class ComputeContext(_AggregatorMixin):
    """Per-superstep view handed to :meth:`VertexProgram.compute`.

    Created by the engine; exposes topology, messaging and aggregation.
    The context is bound to one vertex at a time, ``_current``, a dense
    id.
    """

    def __init__(self, engine):
        self._engine = engine
        self._current = -1
        self.superstep = 0

    # -- topology ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._engine.topology.n

    def out_neighbors(self):
        """Dense indices of the current vertex's out-neighbors."""
        return self._engine.topology.out_neighbors(self._current)

    def out_degree(self) -> int:
        topo = self._engine.topology
        return int(topo.out_indptr[self._current + 1]
                   - topo.out_indptr[self._current])

    def out_edge_range(self) -> tuple[int, int]:
        """The current vertex's ``[start, end)`` slice into the
        topology's ``out_indices`` — lets programs carry per-edge state
        (e.g. weights) in arrays aligned with the CSR edge order."""
        topo = self._engine.topology
        return (int(topo.out_indptr[self._current]),
                int(topo.out_indptr[self._current + 1]))

    def node_id(self, vertex: int) -> int:
        """The 64-bit cell id behind a dense vertex index."""
        return int(self._engine.topology.node_ids[vertex])

    # -- state ---------------------------------------------------------------

    def get_value(self, vertex: int):
        return self._engine.values[vertex]

    def set_value(self, vertex: int, value) -> None:
        self._engine.values[vertex] = value

    @property
    def value(self):
        """Value of the vertex currently being computed."""
        return self._engine.values[self._current]

    @value.setter
    def value(self, new_value) -> None:
        self._engine.values[self._current] = new_value

    # -- messaging ---------------------------------------------------------

    def send(self, dst: int, value) -> None:
        """Send ``value`` to dense vertex ``dst`` (general model).

        Restrictive programs may only target out-neighbors; the engine
        enforces this.
        """
        self._engine.enqueue(self._current, dst, value)

    def send_to_neighbors(self, value) -> None:
        """Send the same value to every out-neighbor (restrictive fast
        path, eligible for hub buffering)."""
        self._engine.enqueue_to_neighbors(self._current, value)

    def vote_to_halt(self) -> None:
        """Deactivate the current vertex until a message wakes it."""
        self._engine.halt(self._current)

    # -- internal ------------------------------------------------------------

    def _bind(self, vertex: int) -> None:
        if vertex < 0 or vertex >= self._engine.topology.n:
            raise ComputeError(f"vertex index {vertex} out of range")
        self._current = vertex


class BatchComputeContext(_AggregatorMixin):
    """Superstep-wide view handed to the batch kernels with each
    :class:`MachineBlock`: the superstep, the vertex count and the
    aggregators.  Everything that touches vertices is on the block."""

    def __init__(self, engine):
        self._engine = engine
        self.superstep = 0

    @property
    def num_vertices(self) -> int:
        return self._engine.topology.n

    def aggregate(self, name: str, values) -> None:
        """Left-fold ``values`` (a scalar, or a 1-D array in vertex
        order) onto the superstep's named sum-aggregator: bit for bit
        what one :meth:`ComputeContext.aggregate` call per element gives,
        because ``np.add.accumulate`` is sequential where ``ndarray.sum``
        is pairwise.  An empty array leaves the key unset."""
        values = np.atleast_1d(values)
        if not len(values):
            return
        totals = self._engine.aggregators_next
        totals[name] = float(np.add.accumulate(
            np.concatenate(([totals.get(name, 0.0)], values))
        )[-1])


class MachineBlock:
    """One machine's running vertices, handed to
    :meth:`VertexProgram.init_batch` and :meth:`VertexProgram.compute_batch`.

    ``ids`` are the dense ids of the machine's vertices that run this
    superstep, ascending; ``values`` (writable), ``combined``,
    ``received`` and ``degrees`` (out-degrees) align with them.  When
    the whole machine runs, the five arrays are views of the machine's
    slice of the engine's compute-ordered state; otherwise they are
    gathers, and the engine writes ``values`` back after the kernel.

    Sends and halts take ``mask``, a boolean array over the block
    (``None``: every vertex in it), so a kernel can reach no vertex of
    another machine.  Sends read their values at the call and fold at
    the barrier in compute order — the reference path's enqueue order.
    """

    def __init__(self, engine, where, combined, received):
        fast = engine._fast
        self._engine = engine
        self._where = where     # a slice (the whole machine) or positions
        self.ids = fast.order[where]
        self.values = engine.values[where]
        self.combined = combined[where]
        self.received = received[where]
        self.degrees = fast.degrees[where]

    def __len__(self) -> int:
        return len(self.ids)

    def _mask(self, mask) -> np.ndarray:
        mask = np.asarray(mask)
        if mask.dtype != bool or mask.shape != self.ids.shape:
            raise ComputeError(
                f"a block mask must be a boolean array of length "
                f"{len(self.ids)}, got {mask.dtype} {mask.shape}"
            )
        return mask

    def _positions(self, mask) -> np.ndarray:
        """Compute-order positions of the masked vertices."""
        where = self._where
        if mask is None:
            if isinstance(where, slice):
                return np.arange(where.start, where.stop, dtype=np.int64)
            return where
        mask = self._mask(mask)
        if isinstance(where, slice):
            return where.start + np.flatnonzero(mask)
        return where[mask]

    def _edge_total(self, mask) -> int:
        return int(self.degrees.sum() if mask is None
                   else np.dot(self.degrees, mask))

    def _own(self, values) -> np.ndarray:
        """``values`` as an array the kernel cannot change after the
        call: a view of the block's state is copied."""
        values = np.asarray(values)
        return values.copy() if np.may_share_memory(values,
                                                    self.values) else values

    def send_to_neighbors(self, mask, values) -> None:
        """Each masked vertex broadcasts its entry of ``values`` (one per
        masked vertex, in block order) to all its out-neighbors (uniform
        — eligible for hub buffering)."""
        senders = self._positions(mask)
        values = self._own(values)
        if values.shape != senders.shape:
            raise ComputeError(
                f"send_to_neighbors got {values.size} values for "
                f"{len(senders)} vertices"
            )
        self._engine.defer_sends(True, senders, values,
                                 self._edge_total(mask))

    def send_along_edges(self, mask, edge_values) -> None:
        """Per-edge sends: ``edge_values`` aligns with the concatenated
        out-edges of the masked vertices (the order :meth:`out_edges`
        returns).  Non-uniform, so hub buffering does not apply."""
        senders = self._positions(mask)
        edge_values = self._own(edge_values)
        total = self._edge_total(mask)
        if len(edge_values) != total:
            raise ComputeError(
                f"send_along_edges got {len(edge_values)} values for "
                f"{total} edges"
            )
        self._engine.defer_sends(False, senders, edge_values, total)

    def out_edges(self, mask) -> tuple[np.ndarray, np.ndarray]:
        """``(dst, positions)`` for the out-edges of the masked vertices,
        concatenated per vertex in CSR slice order: destination dense ids
        and indices into ``topology.out_indices``, so per-edge state
        aligned with the CSR (e.g. SSSP weights) can be gathered."""
        ids, counts = self.ids, self.degrees
        if mask is not None:
            mask = self._mask(mask)
            ids, counts = ids[mask], counts[mask]
        topology = self._engine.topology
        positions = csr_slices(topology.out_indptr[ids], counts)
        return topology.out_indices[positions], positions

    def halt(self, mask=None) -> None:
        """Vote-to-halt for the masked vertices (all of them by default)."""
        self._engine._active[self._where if mask is None
                             else self._positions(mask)] = False


def csr_slices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices of the CSR slices ``[starts[i], starts[i] + counts[i])``,
    concatenated in order."""
    running = np.cumsum(counts)
    return (np.repeat(starts - (running - counts), counts)
            + np.arange(int(running[-1]) if len(running) else 0,
                        dtype=np.int64))
