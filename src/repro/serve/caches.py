"""Epoch-stamped LRU caches for the query-serving layer.

Both serving caches — the hub-vertex adjacency cache and the keyed
query-result cache — share one correctness rule: an entry is only valid
while every trunk epoch it was recorded against is unchanged.  Every
structural mutation anywhere in the memory cloud (a put, an in-place
accessor write, a remove, a defragmentation pass, a trunk resize) bumps
the owning trunk's ``mutation_epoch``; the cloud exposes those counters
as a per-trunk vector (:meth:`repro.memcloud.cloud.MemoryCloud.
epoch_vector`).

Entries come in two validity granularities:

* **footprint-stamped** — ``put(..., footprint=trunk_ids)`` records the
  epoch of exactly the trunks the value was decoded from.  A write to
  trunk 7 only invalidates entries whose footprint includes trunk 7;
  everything else stays provably fresh.  Hub-adjacency entries stamp
  their one owning trunk; query-result entries stamp the trunk set their
  plan's batch reads resolved through.
* **full-stamped** — no footprint: the entry records the entire epoch
  vector.  *Any* mutation anywhere invalidates it — the only safe rule
  for inline plans whose reads are not footprintable (subgraph matching
  over a snapshot, inline TQL backtracking).

Staleness stays impossible rather than unlikely — the serving layer's
``cross_check`` mode proves it by shadow-replaying cached answers.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..obs import get_registry

#: Stamp tags: a full stamp compares the whole vector for equality, a
#: partial (footprint) stamp compares only its recorded trunk components.
_FULL = 0
_PART = 1


class EpochLruCache:
    """LRU mapping of hashable keys to values with per-trunk validity.

    ``get`` with a current epoch token under which the entry's stamp no
    longer validates counts an invalidation and behaves as a miss (the
    entry is dropped); ``put`` beyond ``capacity`` evicts the least
    recently used entry.  Hit/miss/invalidation/eviction/clear counters
    land under ``serve.cache.*`` labelled with the cache's name.

    The epoch token passed to ``get``/``put`` is the cloud's per-trunk
    epoch vector (a sequence indexed by trunk id); ``footprint`` (an
    iterable of trunk ids) restricts the entry's validity to those
    components.

    Beside the entries the cache keeps, per ``kind``, the sorted array
    of the ``uid`` of every ``(kind, uid)`` key it holds, so
    :meth:`get_many` finds the few ids of a whole window that can hit
    with one ``searchsorted`` instead of one ``get`` each.  The array is
    dropped whenever the key set changes and rebuilt on the next use.
    """

    def __init__(self, name: str, capacity: int, registry=None):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        registry = registry if registry is not None else get_registry()
        self.name = name
        self.capacity = capacity
        self._entries: OrderedDict[object, tuple[tuple, object]] = (
            OrderedDict())
        self._members: dict[object, np.ndarray] = {}
        self._m_hits = registry.counter("serve.cache.hits", cache=name)
        self._m_misses = registry.counter("serve.cache.misses", cache=name)
        self._m_invalidated = registry.counter(
            "serve.cache.invalidated", cache=name)
        self._m_evicted = registry.counter("serve.cache.evicted", cache=name)
        self._m_cleared = registry.counter("serve.cache.cleared", cache=name)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return key in self._entries

    @staticmethod
    def _stamp(epochs, footprint) -> tuple:
        if footprint is None:
            return (_FULL, tuple(epochs))
        return (_PART, tuple(sorted(
            (int(t), int(epochs[int(t)])) for t in set(footprint))))

    @staticmethod
    def _valid(stamp: tuple, epochs) -> bool:
        tag, recorded = stamp
        if tag == _FULL:
            return recorded == tuple(epochs)
        for trunk, epoch in recorded:
            if epochs[trunk] != epoch:
                return False
        return True

    def get(self, key, epochs):
        """The cached value, or None on miss / stale entry.

        ``epochs`` is the *current* per-trunk epoch vector.
        """
        entry = self._entries.get(key)
        if entry is None:
            self._m_misses.inc()
            return None
        stamp, value = entry
        if not self._valid(stamp, epochs):
            # A trunk this value was decoded from mutated since it was
            # recorded: the bytes may have changed or moved.
            del self._entries[key]
            self._members.clear()
            self._m_invalidated.inc()
            self._m_misses.inc()
            return None
        self._entries.move_to_end(key)
        self._m_hits.inc()
        return value

    def put(self, key, epochs, value, footprint=None) -> None:
        """Record ``value`` as valid for the given epoch token.

        ``footprint`` — trunk ids the value depends on — narrows the
        stamp to those vector components; without it the entry is
        invalidated by any mutation anywhere.
        """
        self._entries[key] = (self._stamp(epochs, footprint), value)
        self._members.clear()
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._m_evicted.inc()

    def footprint_of(self, key) -> frozenset | None:
        """The trunk footprint an entry was stamped with (None when the
        entry is full-stamped or absent) — introspection for tests and
        invalidation-storm debugging."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        tag, recorded = entry[0]
        if tag != _PART:
            return None
        return frozenset(trunk for trunk, _epoch in recorded)

    def clear(self) -> None:
        """Drop every entry, recording the count under
        ``serve.cache.cleared`` so invalidation storms show up in
        ``:metrics`` instead of passing silently."""
        self._m_cleared.inc(len(self._entries))
        self._entries.clear()
        self._members.clear()

    def members(self, kind) -> np.ndarray:
        """Sorted ``uid`` of every entry keyed ``(kind, uid)``, stale
        ones included: exactly the uids a :meth:`get` could hit or
        invalidate."""
        members = self._members.get(kind)
        if members is None:
            members = self._members[kind] = np.array(
                sorted(key[1] for key in self._entries if key[0] == kind),
                dtype=np.int64)
        return members

    def get_many(self, kind, uids: np.ndarray, epochs) -> tuple[list, list]:
        """``get((kind, uid), epochs)`` for a whole int64 array of uids:
        the positions that hit and their values.

        Only a uid in :meth:`members` gets a :meth:`get` (in input
        order); every other one is a plain miss, counted without a
        lookup — the counters end where a ``get`` per uid would have
        left them.
        """
        members = self.members(kind)
        candidates = np.empty(0, dtype=np.int64)
        if len(members):
            at = np.minimum(np.searchsorted(members, uids), len(members) - 1)
            candidates = np.flatnonzero(members[at] == uids)
        self._m_misses.inc(len(uids) - len(candidates))
        hits, values = [], []
        for j, uid in zip(candidates.tolist(), uids[candidates].tolist()):
            value = self.get((kind, uid), epochs)
            if value is not None:
                hits.append(j)
                values.append(value)
        return hits, values

    @property
    def hits(self) -> int:
        return self._m_hits.value

    @property
    def misses(self) -> int:
        return self._m_misses.value

    @property
    def invalidated(self) -> int:
        return self._m_invalidated.value

    @property
    def cleared(self) -> int:
        return self._m_cleared.value
