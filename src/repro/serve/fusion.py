"""Cross-query frontier fusion: one bulk read per window per op shape.

Per fusion window the scheduler hands this executor the pending
:class:`~repro.serve.queries.BatchOp` of every in-flight query, in
deterministic admission order.  Ops are grouped by ``(kind, field,
value)``; each group concatenates its id arrays and issues **one**
batched read against the memory cloud — ``outlinks_batch`` /
``inlinks_batch`` / ``field_eq_batch`` / ``read_field_batch`` — then
scatters the answer back to each op by its slice of the concatenation.
Ten concurrent BFS queries whose hop-3 frontiers overlap on the same
celebrity vertices thus pay one addressing pass, one trunk lookup and
one columnar decode for the union, not ten;
:meth:`repro.graph.api.Graph._read_batch` deduplicates the repeated ids
before hashing and routing.

The adjacency paths additionally consult the **hub cache**: vertices
whose decoded neighbor list met the degree threshold are kept — keyed by
``(kind, uid)`` so out-lists and in-lists of the same vertex never
collide — so later windows skip the cloud entirely for them.  Power-law
frontiers concentrate on exactly those vertices, which is why a small
LRU absorbs a large share of the decode volume.

The validity token is the cloud's per-trunk epoch vector: hub entries
are footprint-stamped with their one owning trunk, and ``run_window``
reports each op's *trunk footprint* — the trunks its ids resolved
through, as a bool row over trunk ids — which the scheduler ORs into
the query's result-cache stamp.
"""

from __future__ import annotations

import numpy as np

from ..errors import DivergenceError, QueryError
from ..obs import get_registry
from ..utils.arrays import gather_ranges
from .caches import EpochLruCache
from .queries import BatchOp


class FusedExecutor:
    """Executes one window of batch ops with fusion and hub caching."""

    def __init__(self, graph, hub_cache: EpochLruCache | None = None,
                 hub_degree_threshold: int = 32,
                 footprints: bool = True, registry=None):
        self.graph = graph
        self.hub_cache = hub_cache
        self.hub_degree_threshold = hub_degree_threshold
        # Whether anyone stamps results with the op footprints (the
        # server does iff it has a result cache); the owner pass per
        # group is skipped otherwise.
        self.footprints = footprints
        registry = (registry if registry is not None
                    else getattr(graph.cloud, "obs", None) or get_registry())
        self._m_windows = registry.counter("serve.fusion.windows")
        self._m_ops = registry.counter("serve.fusion.ops")
        self._m_rounds = registry.counter("serve.fusion.batch_rounds")
        self._m_fused_ids = registry.counter("serve.fusion.ids")
        self._m_hub_served = registry.counter("serve.fusion.hub_cells")

    def run_window(self, ops: list[BatchOp], epochs):
        """``(results, foots)``, each aligned one-to-one with ``ops``.

        ``epochs`` is the per-trunk epoch vector the scheduler pinned
        for this window.  ``foots[i]`` is the bool row over trunk ids of
        the trunks op *i*'s reads resolved through (``None`` when the
        executor was built with ``footprints=False``).  An op whose read
        raises (an unknown field, an id that names no cell) gets the
        exception as its result; the oracle's
        :class:`~repro.errors.DivergenceError` still propagates.
        """
        self._m_windows.inc()
        self._m_ops.inc(len(ops))
        results: list = [None] * len(ops)
        foots: list = [None] * len(ops)
        groups: dict[tuple, list[int]] = {}
        for position, op in enumerate(ops):
            groups.setdefault(op.group_key(), []).append(position)
        for positions in groups.values():
            try:
                self._run_group([ops[p] for p in positions], positions,
                                results, epochs, foots)
            except DivergenceError:
                raise
            except Exception:
                # Run the group again one op at a time, so only the ops
                # that raise fail: each gets its exception as its result.
                for p in positions:
                    try:
                        self._run_group([ops[p]], [p], results, epochs,
                                        foots)
                    except DivergenceError:
                        raise
                    except Exception as error:
                        results[p] = error
        return results, foots

    # -- group execution ---------------------------------------------------

    def _run_group(self, group_ops: list[BatchOp], positions: list[int],
                   results: list, epochs, foots: list) -> None:
        kind = group_ops[0].kind
        ids = np.concatenate([op.ids for op in group_ops])
        offsets = np.cumsum([0] + [len(op.ids) for op in group_ops])
        self._m_rounds.inc()
        self._m_fused_ids.inc(len(ids))
        if kind in ("outlinks", "inlinks"):
            indptr, flat = self._adjacency(ids, kind, epochs)
            for op_index, position in enumerate(positions):
                lo, hi = offsets[op_index], offsets[op_index + 1]
                base = indptr[lo]
                results[position] = (indptr[lo:hi + 1] - base,
                                     flat[base:indptr[hi]])
        elif kind == "field_eq":
            op = group_ops[0]
            hits = self.graph.field_eq_batch(ids, op.field, op.value)
            for op_index, position in enumerate(positions):
                results[position] = hits[offsets[op_index]:
                                         offsets[op_index + 1]]
        elif kind == "field_read":
            values = self.graph.read_field_batch(ids, group_ops[0].field)
            for op_index, position in enumerate(positions):
                results[position] = values[offsets[op_index]:
                                           offsets[op_index + 1]]
        else:  # pragma: no cover — BatchOp validates kinds
            raise QueryError(f"unknown batch op kind {kind!r}")
        if self.footprints:
            # One vectorized owner pass for the whole group, scattered
            # into an (op x trunk) table — every kind's dependency set is
            # exactly the trunks owning the ids it read, its row here.
            table = np.zeros((len(group_ops),
                              self.graph.cloud.config.trunk_count), bool)
            table[np.repeat(np.arange(len(group_ops)), np.diff(offsets)),
                  self.graph.cloud.trunks_of_array(ids)] = True
            for op_index, position in enumerate(positions):
                foots[position] = table[op_index]

    def _adjacency(self, ids: np.ndarray, kind: str,
                   epochs) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency for ``ids``, serving hubs from the cache."""
        reader = (self.graph.outlinks_batch if kind == "outlinks"
                  else self.graph.inlinks_batch)
        if self.hub_cache is None:
            return reader(ids)
        unique, inverse = np.unique(ids, return_inverse=True)
        hits, rows = self.hub_cache.get_many(kind, unique, epochs)
        self._m_hub_served.inc(len(hits))
        missed = np.ones(len(unique), dtype=bool)
        missed[hits] = False
        # One buffer — the misses' CSR, then the hit rows — and each
        # unique id's (start, count) in it.
        starts = np.zeros(len(unique), dtype=np.int64)
        counts = np.zeros(len(unique), dtype=np.int64)
        miss_ids = unique[missed]
        if len(miss_ids):
            miss_indptr, buffer = reader(miss_ids)
            starts[missed] = miss_indptr[:-1]
            counts[missed] = miss_counts = np.diff(miss_indptr)
            hubs = np.flatnonzero(miss_counts >= self.hub_degree_threshold)
            if len(hubs):
                # A hub row depends only on the trunk owning the vertex
                # — stamp just that component so unrelated writes leave
                # it valid.
                owners = self.graph.cloud.trunks_of_array(miss_ids[hubs])
                for k, uid, owner in zip(hubs.tolist(),
                                         miss_ids[hubs].tolist(),
                                         owners.tolist()):
                    self.hub_cache.put(
                        (kind, uid), epochs,
                        buffer[miss_indptr[k]:miss_indptr[k + 1]],
                        footprint=(owner,))
        else:
            buffer = np.empty(0, dtype=np.int64)
        if hits:
            counts[hits] = hit_counts = [len(row) for row in rows]
            starts[hits] = len(buffer) + np.cumsum([0] + hit_counts[:-1])
            buffer = np.concatenate([buffer, *rows])
        sizes = counts[inverse]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return indptr, gather_ranges(buffer, starts[inverse], sizes)
