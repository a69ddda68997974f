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
* the **vectorized fast path** activates when the program declares a
  :attr:`VertexProgram.combiner`.  Messages are then folded, at the
  barrier, into a dense numpy value array plus a received-mask, and
  programs that additionally implement
  :meth:`VertexProgram.compute_batch` run one numpy kernel per machine
  slice instead of a Python loop.
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
    A cross-checked engine (``cross_check=True``) verifies this at
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
    program must initialise every vertex's value in ``init``/
    ``init_batch`` (the dense array defaults untouched vertices to zero,
    where the reference path would leave ``None``)."""

    value_dtype = np.float64
    """Numpy dtype for the dense value/combined arrays used by the
    vectorized path.  Programs with integer state (BFS levels, WCC
    labels) should set ``np.int64``.  Only consulted when ``combiner``
    is declared."""

    def init(self, ctx: "ComputeContext", vertex: int) -> None:
        """Called for every vertex before superstep 0."""

    def init_batch(self, ctx: "BatchComputeContext") -> None:
        """Vectorized initialisation: fill ``ctx.values`` in one shot.

        Optional.  When overridden, the fast path calls it once instead
        of looping :meth:`init` over every vertex.  Must leave values
        identical to what the per-vertex :meth:`init` loop would."""
        raise NotImplementedError

    def compute(self, ctx: "ComputeContext", vertex: int,
                messages: list) -> None:
        """The superstep kernel; must be overridden."""
        raise NotImplementedError

    def compute_batch(self, ctx: "BatchComputeContext",
                      vertices: np.ndarray, combined: np.ndarray,
                      received: np.ndarray) -> None:
        """Vectorized superstep kernel over one machine's vertex slice.

        Optional; requires ``combiner``.  ``vertices`` holds the dense
        indices (ascending) of the machine's vertices that ran this
        superstep, ``combined[i]`` the folded inbox of ``vertices[i]``
        (the combiner's identity where nothing arrived) and
        ``received[i]`` whether any message arrived.  The kernel reads
        and writes ``ctx.values``, sends with the batch primitives, and
        must only halt vertices from its own slice.  Semantics must match
        :meth:`compute` exactly — the engine's ``cross_check`` flag and
        the equivalence tests enforce it."""
        raise NotImplementedError

    @property
    def batch_eligible(self) -> bool:
        """Whether the engine may use :meth:`compute_batch` for this
        program instance.  Defaults to "the subclass overrides it";
        programs can veto per-instance (e.g. SSSP with a weights mapping
        the kernel cannot vectorize)."""
        return type(self).compute_batch is not VertexProgram.compute_batch

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
    The context is bound to one vertex at a time via ``_current``.
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
    """Vectorized view handed to :meth:`VertexProgram.compute_batch`.

    All primitives take dense-index arrays.  Sends are collected and
    folded into the engine's combined-inbox array at the barrier, their
    destinations and machine-pair traffic taken from the engine's send
    plan — no per-message Python objects anywhere.
    """

    def __init__(self, engine):
        self._engine = engine
        self.superstep = 0

    # -- topology ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._engine.topology.n

    @property
    def values(self) -> np.ndarray:
        """The engine's dense value array (mutable, length ``n``)."""
        return self._engine.values

    def out_degrees(self, vertices: np.ndarray) -> np.ndarray:
        """Out-degree of each vertex in ``vertices``."""
        return self._engine._fast.degrees[vertices]

    def out_edges(self, vertices: np.ndarray) -> tuple[np.ndarray,
                                                       np.ndarray]:
        """``(dst, positions)`` for the out-edges of ``vertices``,
        concatenated per vertex in CSR slice order.  ``positions`` are
        global indices into ``topology.out_indices``, so per-edge state
        (e.g. SSSP weights) aligned with the CSR can be gathered."""
        positions = self._engine._fast.edge_slice(vertices)
        return self._engine.topology.out_indices[positions], positions

    # -- messaging -----------------------------------------------------------

    def send_to_neighbors(self, vertices: np.ndarray,
                          values: np.ndarray) -> None:
        """Each ``vertices[i]`` broadcasts ``values[i]`` to all its
        out-neighbors (uniform — eligible for hub buffering)."""
        self._engine.batch_send_uniform(vertices, values)

    def send_along_edges(self, vertices: np.ndarray,
                         edge_values: np.ndarray) -> None:
        """Per-edge sends: ``edge_values`` aligns with the concatenated
        out-edges of ``vertices`` (the order :meth:`out_edges` returns).
        Non-uniform, so hub buffering does not apply."""
        self._engine.batch_send_edges(vertices, edge_values)

    def halt(self, vertices: np.ndarray) -> None:
        """Vote-to-halt for every vertex in ``vertices``."""
        self._engine.halt_many(vertices)

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
