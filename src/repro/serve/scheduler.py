"""Admission-controlled concurrent query serving over the memory cloud.

Trinity serves "online queries ... in real time" against the same
in-memory graph the offline engines compute on (Section 1); this module
is the serving front end for the reproduction: a cooperative scheduler
that keeps many queries in flight so their per-hop frontiers can be
**fused** into shared bulk reads, caches what power-law workloads repeat
(hub adjacency, whole query results), and defends latency with weighted
fair admission, bounded per-class queues and per-query deadlines.

Execution model — deterministic by construction:

* ``submit`` pushes onto a :class:`WeightedFairQueue` under the query's
  priority class.  Overflow — of the total bound or the per-class bound
  — first sheds already-expired entries, then rejects with
  ``queue_full``.
* ``run`` repeats **fusion windows** until idle.  A window pins the
  epoch token (the cloud's per-trunk epoch vector), admits queries up
  to ``max_in_flight`` in weighted-fair order (expired deadlines reject
  with ``deadline``; result-cache hits complete on the spot), then steps
  every in-flight plan exactly once, in admission order, and hands the
  collected :class:`~repro.serve.queries.BatchOp` set to the
  :class:`~repro.serve.fusion.FusedExecutor` — one bulk read per op
  shape per window.  The executor reports each op's trunk footprint,
  which accumulates on the ticket and becomes the completed result's
  cache stamp: a later write to trunk 7 only invalidates results that
  actually read trunk 7.
* Mutations go through :meth:`QueryServer.mutate`, which drains all
  in-flight work first (a barrier): every query executes against one
  consistent graph version, and every trunk epoch bump invalidates
  exactly the epoch-stamped cache entries whose footprint it touches.

``cross_check=True`` shadow-replays **every** completion — fused,
cached, or inline — through the query's existing one-at-a-time library
path *before* the answer is published, counted or cached, and raises
:class:`~repro.errors.DivergenceError` on any difference, which is how
the test suite proves the optimizations change the speed and never the
answers.

Latency SLOs land in ``serve.latency.seconds{cls=...}`` histograms and
queue health in ``serve.queue.depth{cls=...}`` gauges plus
``serve.queue.wait_seconds{cls=...}`` histograms;
:meth:`QueryServer.report` renders their ``summary()`` per class.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..algorithms.subgraph import LabelIndex, assign_labels
from ..errors import QueryError
from ..graph.csr import CsrTopology
from ..obs import get_registry
from ..oracle import shadow
from .caches import EpochLruCache
from .fusion import FusedExecutor
from .queries import QueryTicket, ServeQuery

#: ~2x-resolution buckets from 10 µs to ~5 min: wall-clock query service
#: times at simulation scale.
LATENCY_BUCKETS = tuple(1e-5 * 2.0 ** e for e in range(25))


@dataclass
class ServeConfig:
    """Serving-layer knobs.  The one-at-a-time, uncached baseline is
    ``max_in_flight=1`` with both caches off."""

    result_cache: bool = True            # keyed whole-result cache
    hub_cache: bool = True               # high-degree adjacency cache
    hub_degree_threshold: int = 32
    hub_cache_capacity: int = 4096
    result_cache_capacity: int = 1024
    max_in_flight: int = 64              # plans stepped per window
    queue_limit: int = 1024              # admission queue bound (total)
    class_queue_limit: int | None = None  # admission bound per class
    class_weights: dict | None = None    # WFQ weight per priority class
    default_deadline: float | None = None   # seconds in queue before reject
    cross_check: bool = False            # shadow-replay every completion

    def __post_init__(self):
        for name in ("max_in_flight", "queue_limit", "hub_cache_capacity",
                     "result_cache_capacity"):
            if getattr(self, name) < 1:
                # max_in_flight=0 would admit nothing and spin forever.
                raise QueryError(
                    f"{name} must be >= 1, not {getattr(self, name)!r}")
        if self.class_queue_limit is not None and self.class_queue_limit < 1:
            raise QueryError(
                f"class_queue_limit must be >= 1 or None, "
                f"not {self.class_queue_limit!r}")
        if self.hub_degree_threshold < 0:
            raise QueryError(
                f"hub_degree_threshold must be >= 0, "
                f"not {self.hub_degree_threshold!r}")
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise QueryError(
                f"default_deadline must be > 0 or None, "
                f"not {self.default_deadline!r}")
        for cls, weight in (self.class_weights or {}).items():
            if weight <= 0:
                raise QueryError(
                    f"class weight must be > 0 ({cls!r}: {weight!r})")


class WeightedFairQueue:
    """Deterministic weighted fair queueing over priority classes.

    Classic virtual-finish-time WFQ with unit-cost work items: a push
    into class *c* gets finish tag ``max(virtual_time, last_tag[c]) +
    1/weight[c]``; ``pop`` removes the globally smallest ``(tag, seq)``
    and advances virtual time to it.  A class with weight 2 therefore
    drains twice as fast as a weight-1 class under contention, an idle
    class never banks credit (its next tag starts at the current virtual
    time), and the ``seq`` tiebreak makes the whole order a pure
    function of the submission sequence — no randomness, no clock.
    """

    def __init__(self, weights: dict | None = None, registry=None):
        registry = registry if registry is not None else get_registry()
        self._registry = registry
        self._weights = dict(weights or {})
        for cls, weight in self._weights.items():
            if weight <= 0:
                raise QueryError(
                    f"class weight must be > 0 ({cls!r}: {weight!r})")
        self._queues: dict[str, deque] = {}
        self._last_tag: dict[str, float] = {}
        self._vtime = 0.0
        self._seq = 0
        self._len = 0
        self._depth_gauges: dict[str, object] = {}

    def weight(self, cls: str) -> float:
        return float(self._weights.get(cls, 1.0))

    def classes(self) -> list[str]:
        return sorted(self._queues)

    def depth(self, cls: str) -> int:
        queue = self._queues.get(cls)
        return len(queue) if queue is not None else 0

    def __len__(self) -> int:
        return self._len

    def _gauge(self, cls: str):
        gauge = self._depth_gauges.get(cls)
        if gauge is None:
            gauge = self._registry.gauge("serve.queue.depth", cls=cls)
            self._depth_gauges[cls] = gauge
        return gauge

    def push(self, ticket: QueryTicket) -> None:
        cls = ticket.priority
        tag = max(self._vtime, self._last_tag.get(cls, 0.0)) \
            + 1.0 / self.weight(cls)
        self._last_tag[cls] = tag
        self._seq += 1
        self._queues.setdefault(cls, deque()).append(
            (tag, self._seq, ticket))
        self._len += 1
        self._gauge(cls).set(len(self._queues[cls]))

    def pop(self) -> QueryTicket | None:
        """The queued ticket with the smallest (finish tag, seq)."""
        best_cls = None
        best = None
        for cls in sorted(self._queues):
            queue = self._queues[cls]
            if not queue:
                continue
            head = queue[0]
            if best is None or head[:2] < best[:2]:
                best, best_cls = head, cls
        if best is None:
            return None
        self._queues[best_cls].popleft()
        self._len -= 1
        self._gauge(best_cls).set(len(self._queues[best_cls]))
        self._vtime = max(self._vtime, best[0])
        return best[2]

    def shed_expired(self, now: float) -> list[QueryTicket]:
        """Remove every queued ticket whose deadline has passed."""
        shed: list[QueryTicket] = []
        for cls, queue in self._queues.items():
            kept: deque = deque()
            for entry in queue:
                ticket = entry[2]
                if (ticket.deadline is not None
                        and now - ticket.submitted_at > ticket.deadline):
                    shed.append(ticket)
                else:
                    kept.append(entry)
            if len(kept) != len(queue):
                self._queues[cls] = kept
                self._gauge(cls).set(len(kept))
        self._len -= len(shed)
        return shed


class ServeReport:
    """Per-class SLO summaries plus admission/queue/cache counters."""

    def __init__(self, classes: dict, admission: dict, caches: dict,
                 fusion: dict, queues: dict | None = None):
        self.classes = classes
        self.admission = admission
        self.caches = caches
        self.fusion = fusion
        self.queues = queues if queues is not None else {}

    def to_dict(self) -> dict:
        return {"classes": self.classes, "admission": self.admission,
                "caches": self.caches, "fusion": self.fusion,
                "queues": self.queues}

    def render(self) -> str:
        lines = ["query classes:"]
        for name in sorted(self.classes):
            s = self.classes[name]
            lines.append(
                f"  {name}: count={s['count']} mean={s['mean']:.2e}s "
                f"p50={s['p50']:.2e}s p99={s['p99']:.2e}s "
                f"max={s['max']:.2e}s")
        lines.append(
            "admission: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.admission.items())))
        for name in sorted(self.queues):
            q = self.queues[name]
            wait = q["wait"]
            lines.append(
                f"  queue {name}: depth={q['depth']} "
                f"weight={q['weight']:g} waited={wait['count']} "
                f"wait_p50={wait['p50']:.2e}s wait_p99={wait['p99']:.2e}s")
        for cache, stats in sorted(self.caches.items()):
            lines.append(
                f"cache {cache}: " + ", ".join(
                    f"{k}={v}" for k, v in sorted(stats.items())))
        lines.append(
            "fusion: " + ", ".join(
                f"{k}={v}" for k, v in sorted(self.fusion.items())))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class QueryServer:
    """The serving loop: WFQ admission, fusion windows, caches, SLOs."""

    def __init__(self, graph, config: ServeConfig | None = None,
                 registry=None):
        self.graph = graph
        self.config = config or ServeConfig()
        self.registry = (registry if registry is not None
                         else getattr(graph.cloud, "obs", None)
                         or get_registry())
        cfg = self.config
        self.result_cache = (
            EpochLruCache("result", cfg.result_cache_capacity, self.registry)
            if cfg.result_cache else None)
        hub = (EpochLruCache("hub", cfg.hub_cache_capacity, self.registry)
               if cfg.hub_cache else None)
        self.executor = FusedExecutor(
            graph, hub_cache=hub,
            hub_degree_threshold=cfg.hub_degree_threshold,
            footprints=self.result_cache is not None,
            registry=self.registry)
        self._wfq = WeightedFairQueue(cfg.class_weights, self.registry)
        self._active: list[tuple[QueryTicket, object, object]] = []
        self._latency: dict[str, object] = {}
        self._queue_wait: dict[str, object] = {}
        # The validity token windows stamp and check caches with.
        self._current_epochs = graph.cloud.epoch_vector()
        self._m_submitted = self.registry.counter("serve.admission.submitted")
        self._m_admitted = self.registry.counter("serve.admission.admitted")
        self._m_rejected = {
            reason: self.registry.counter("serve.admission.rejected",
                                          reason=reason)
            for reason in ("queue_full", "deadline")
        }
        self._m_completed: dict[str, object] = {}
        self._m_cached = self.registry.counter("serve.completed.from_cache")
        self._m_windows = self.registry.counter("serve.windows")
        self._m_mutations = self.registry.counter("serve.mutations")
        # Snapshot state for inline queries (subgraph matching): rebuilt
        # lazily whenever the cloud's mutation epoch moves.
        self._snapshot = None
        self._snapshot_epoch = None
        self._label_seed = 0
        self._num_labels = 20

    # -- ctx surface handed to query plans ---------------------------------

    def snapshot(self):
        """``(topology, labels, index)`` for the current graph version."""
        epoch = self.graph.cloud.mutation_epoch()
        if self._snapshot is None or self._snapshot_epoch != epoch:
            topology = CsrTopology(self.graph)
            labels = assign_labels(topology.n, num_labels=self._num_labels,
                                   seed=self._label_seed)
            self._snapshot = (topology, labels,
                              LabelIndex(topology, labels))
            self._snapshot_epoch = epoch
        return self._snapshot

    # -- admission ---------------------------------------------------------

    def submit(self, query: ServeQuery, deadline: float | None = None,
               priority: str | None = None) -> QueryTicket:
        """Enqueue a query; returns its ticket (possibly already
        rejected when its class queue or the total bound is full).

        ``priority`` names the WFQ class the query competes in; it
        defaults to the query's ``cls_name``, so e.g. all TQL traffic
        shares one weight unless the caller splits it ("interactive" vs
        "batch").
        """
        if not isinstance(query, ServeQuery):
            raise QueryError("submit() takes a ServeQuery")
        ticket = QueryTicket(
            query=query,
            deadline=(deadline if deadline is not None
                      else self.config.default_deadline),
            priority=(priority if priority is not None else query.cls_name),
            submitted_at=time.perf_counter(),
        )
        self._m_submitted.inc()
        if self._full(ticket.priority):
            # Make room from already-dead entries before turning anyone
            # away: shed queued tickets past their deadline.
            for expired in self._wfq.shed_expired(time.perf_counter()):
                self._reject(expired, "deadline")
            if self._full(ticket.priority):
                self._reject(ticket, "queue_full")
                return ticket
        self._wfq.push(ticket)
        return ticket

    def _full(self, cls: str) -> bool:
        if len(self._wfq) >= self.config.queue_limit:
            return True
        limit = self.config.class_queue_limit
        return limit is not None and self._wfq.depth(cls) >= limit

    def _reject(self, ticket: QueryTicket, reason: str) -> None:
        ticket.status = "rejected"
        ticket.reject_reason = reason
        ticket.finished_at = time.perf_counter()
        self._m_rejected[reason].inc()

    # -- the serving loop --------------------------------------------------

    def run(self) -> None:
        """Process fusion windows until queue and in-flight set drain."""
        # Mutations only happen at the mutate() barrier (which refreshes
        # the token itself), never mid-run, so one epoch read covers
        # every window of this drain: cache gets at admission, result
        # stamps at completion and the executor's hub stamps all see the
        # same epochs.  Reading it here (not per window) keeps the
        # O(trunk_count) vector build off the per-query fast path.
        self._current_epochs = self.graph.cloud.epoch_vector()
        while len(self._wfq) or self._active:
            self._window()

    def _window(self) -> None:
        self._m_windows.inc()
        self._admit()
        if not self._active:
            return
        ops = [op for _ticket, _gen, op in self._active]
        results, foots = self.executor.run_window(
            ops, epochs=self._current_epochs)
        still_active = []
        for (ticket, gen, _op), result, foot in zip(self._active, results,
                                                    foots):
            ticket.windows += 1
            if foot is not None:
                if ticket.trunks is None:
                    ticket.trunks = set()
                ticket.trunks |= foot
            try:
                next_op = gen.send(result)
            except StopIteration as stop:
                self._complete(ticket, stop.value)
            else:
                still_active.append((ticket, gen, next_op))
        self._active = still_active

    def _admit(self) -> None:
        limit = self.config.max_in_flight
        while len(self._wfq) and len(self._active) < limit:
            ticket = self._wfq.pop()
            now = time.perf_counter()
            self._observe_wait(ticket, now)
            if (ticket.deadline is not None
                    and now - ticket.submitted_at > ticket.deadline):
                self._reject(ticket, "deadline")
                continue
            self._m_admitted.inc()
            ticket.status = "running"
            if self.result_cache is not None:
                hit = self.result_cache.get(ticket.query.key(),
                                            self._current_epochs)
                if hit is not None:
                    ticket.cached = True
                    self._m_cached.inc()
                    self._complete(ticket, hit)
                    continue
            gen = ticket.query.plan(self)
            try:
                first_op = gen.send(None)
            except StopIteration as stop:
                # Inline queries (subgraph, non-fusible TQL) finish on
                # their first step.
                self._complete(ticket, stop.value)
            else:
                self._active.append((ticket, gen, first_op))

    def _observe_wait(self, ticket: QueryTicket, now: float) -> None:
        cls = ticket.priority
        hist = self._queue_wait.get(cls)
        if hist is None:
            hist = self.registry.histogram(
                "serve.queue.wait_seconds", buckets=LATENCY_BUCKETS, cls=cls)
            self._queue_wait[cls] = hist
        hist.observe(max(0.0, now - ticket.submitted_at))

    # -- completion --------------------------------------------------------

    def _complete(self, ticket: QueryTicket, result) -> None:
        finished_at = time.perf_counter()   # serving time, not oracle time
        if self.config.cross_check:
            # Oracle first: an answer that fails it is never published,
            # counted or cached.
            shadow(f"serve.{ticket.query.cls_name}", result,
                   ticket.query.run_sequential(self))
        ticket.result = result
        ticket.status = "done"
        ticket.finished_at = finished_at
        cls = ticket.query.cls_name
        if cls not in self._latency:
            self._latency[cls] = self.registry.histogram(
                "serve.latency.seconds", buckets=LATENCY_BUCKETS, cls=cls)
            self._m_completed[cls] = self.registry.counter(
                "serve.completed", cls=cls)
        self._latency[cls].observe(ticket.latency)
        self._m_completed[cls].inc()
        if self.result_cache is not None and not ticket.cached:
            # A fused plan's reads all resolved through ticket.trunks —
            # the entry survives writes to every other trunk.  Inline
            # plans recorded none and are stamped with the whole vector.
            footprint = (sorted(ticket.trunks)
                         if ticket.trunks is not None else None)
            self.result_cache.put(ticket.query.key(), self._current_epochs,
                                  result, footprint=footprint)

    # -- mutation barrier --------------------------------------------------

    def mutate(self, fn) -> None:
        """Drain in-flight queries, then apply ``fn(graph)``.

        The barrier gives every query one consistent graph version; the
        mutation itself bumps the owning trunks' epochs through the
        normal cloud paths, so cache entries whose footprint touches
        those trunks — and only those — go stale.
        """
        self.run()
        self._m_mutations.inc()
        fn(self.graph)
        self._current_epochs = self.graph.cloud.epoch_vector()

    # -- reporting ---------------------------------------------------------

    def report(self) -> ServeReport:
        classes = {cls: hist.summary()
                   for cls, hist in sorted(self._latency.items())}
        admission = {
            "submitted": self._m_submitted.value,
            "admitted": self._m_admitted.value,
            "rejected_queue_full": self._m_rejected["queue_full"].value,
            "rejected_deadline": self._m_rejected["deadline"].value,
            "completed_from_cache": self._m_cached.value,
        }
        queues = {}
        for cls in sorted(set(self._queue_wait) | set(self._wfq.classes())):
            wait = self._queue_wait.get(cls)
            queues[cls] = {
                "depth": self._wfq.depth(cls),
                "weight": self._wfq.weight(cls),
                "wait": (wait.summary() if wait is not None
                         else {"count": 0, "mean": 0.0, "p50": 0.0,
                               "p99": 0.0, "max": 0.0}),
            }
        caches = {}
        if self.result_cache is not None:
            caches["result"] = {
                "hits": self.result_cache.hits,
                "misses": self.result_cache.misses,
                "invalidated": self.result_cache.invalidated,
                "cleared": self.result_cache.cleared,
                "size": len(self.result_cache),
            }
        hub = self.executor.hub_cache
        if hub is not None:
            caches["hub"] = {
                "hits": hub.hits, "misses": hub.misses,
                "invalidated": hub.invalidated, "cleared": hub.cleared,
                "size": len(hub),
            }
        fusion = {
            "windows": self._m_windows.value,
            "ops": self.executor._m_ops.value,
            "batch_rounds": self.executor._m_rounds.value,
            "fused_ids": self.executor._m_fused_ids.value,
            "hub_cells": self.executor._m_hub_served.value,
        }
        return ServeReport(classes, admission, caches, fusion, queues)
