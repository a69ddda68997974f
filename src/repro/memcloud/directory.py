"""The cloud's span directory: every trunk's hash table, laid end to end.

The paper locates a cell by "hash to a trunk, hash inside the trunk"
(Section 3, Figure 3).  A batched read does that for a whole window of
ids at once: the directory mirrors each trunk's table in cloud-owned
columns — per hash slot the key, the slot state and the cell's payload
span ``[start, limit)`` in its trunk's arena — so locating a window is
two vectorized hashes and one linear-probe pass over ``base[trunk] +
((home + k) & mask[trunk])``, however many trunks the window touches.

A trunk's *region* mirrors its table slot for slot and is valid exactly
while the trunk's ``mutation_epoch`` is the one it was copied at
(:meth:`~repro.memcloud.trunk.MemoryTrunk.span_table`); a window's stale
regions are one compare of those epochs with the cloud's epoch column,
and are recopied before they are probed.  Regions are laid out again
only when a table's capacity differs from its region's (the regions
between the resized ones move as blocks), and a trunk never read in a
batch has none.

Readers hold :attr:`SpanDirectory.lock` around refresh and probe and
take trunk mutexes inside it, never the reverse; writers never take it:
they bump their trunk's epoch, which is all a reader needs to see.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs import MetricsRegistry
from .hashtable import _EMPTY, _LIVE, _home_slots


class SpanDirectory:
    """Mirror of ``trunk_count`` hash tables, probed a window at a time."""

    def __init__(self, trunk_count: int, registry: MetricsRegistry):
        self.lock = threading.Lock()
        # Region of trunk t: slots [base[t], base[t + 1]) of each column.
        self._base = np.zeros(trunk_count + 1, dtype=np.int64)
        self._mask = np.zeros(trunk_count, dtype=np.int64)
        self._epochs = np.full(trunk_count, -1)   # no epoch is negative
        self._columns = [                     # keys, states, starts, limits
            np.zeros(0, dtype=dtype)
            for dtype in (np.uint64, np.uint8, np.int64, np.int64)]
        self._m_refreshed = registry.counter("memcloud.directory.refreshed")
        self._m_relayouts = registry.counter("memcloud.directory.relayouts")
        self._g_slots = registry.gauge("memcloud.directory.slots")

    def refresh(self, trunks, touched: np.ndarray,
                column: np.ndarray) -> np.ndarray:
        """Recopy the regions among ``touched`` whose epoch is not the
        trunk's in ``column``; the epochs they now mirror, in order."""
        epochs, base = self._epochs, self._base
        stale = touched[epochs[touched] != column[touched]].tolist()
        if stale:
            tables = [trunks[t].span_table() for t in stale]
            resized = {t: len(table[1]) for t, table in zip(stale, tables)
                       if len(table[1]) != base[t + 1] - base[t]}
            if resized:
                self._relayout(resized)
            for t, (epoch, *fresh) in zip(stale, tables):
                for column, values in zip(self._columns, fresh):
                    column[base[t]:base[t + 1]] = values
                epochs[t] = epoch
            self._m_refreshed.inc(len(stale))
        return epochs[touched]

    def _relayout(self, resized: dict[int, int]) -> None:
        """Give each trunk of ``resized`` a region of its new capacity,
        left for the caller to fill; the regions between move as blocks."""
        old_base, base = self._base.copy(), self._base
        capacities = np.diff(old_base)
        for t, capacity in resized.items():
            capacities[t] = capacity
            self._mask[t] = capacity - 1
        np.cumsum(capacities, out=base[1:])
        for i, old in enumerate(self._columns):
            column = self._columns[i] = np.zeros(base[-1], dtype=old.dtype)
            first = 0
            for t in sorted(resized) + [len(capacities)]:
                column[base[first]:base[t]] = old[old_base[first]:old_base[t]]
                first = t + 1
        self._m_relayouts.inc()
        self._g_slots.set(int(base[-1]))

    def probe(self, uids: np.ndarray, trunk_ids: np.ndarray) -> tuple:
        """Locate a window: ``(starts, limits, probes, found)`` per id.

        ``uids`` (uint64) are looked up in the regions of ``trunk_ids``,
        all of which :meth:`refresh` has just made current.  Every id
        walks the probe sequence a scalar ``get`` walks — past live
        mismatches and tombstones, one slot per round, all unresolved
        ids at once — and stops on a live match (found) or an empty
        slot (absent); ``probes`` is how many slots it looked at.
        """
        keys, states, starts, limits = self._columns
        mask, base = self._mask[trunk_ids], self._base[trunk_ids]
        home = _home_slots(uids, mask)
        at = base + home                 # where each id has got to
        walking = np.arange(len(uids))   # ids not stopped yet, and theirs:
        here, slot, w_uids, w_mask, w_base = at, home, uids, mask, base
        while True:
            state = states[here]
            stop = keys[here] == w_uids
            stop &= state == _LIVE
            stop |= state == _EMPTY
            on = ~stop
            walking = walking[on]
            if not len(walking):
                break
            w_uids, w_mask, w_base = w_uids[on], w_mask[on], w_base[on]
            slot = (slot[on] + 1) & w_mask
            here = at[walking] = w_base + slot
        # Probed slots run from home to the stop, round the region's end.
        probes = ((at - base - home) & mask) + 1
        return starts[at], limits[at], probes, states[at] == _LIVE
