"""The cloud's batched read, over one standalone trunk or one bare table.

``MemoryCloud.bulk_get_spans`` locates a window in its
:class:`~repro.memcloud.directory.SpanDirectory`, charges each trunk
touched its lookups and copies the spans under the trunks' mutexes.
Tests that exercise a trunk, a storage (or a hash table) on its own make
the same calls here, through a directory of one region.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CellNotFoundError
from repro.memcloud import SpanRead
from repro.memcloud.directory import SpanDirectory
from repro.memcloud.storage import ResidentStorage, word_spans
from repro.obs import MetricsRegistry


def payloads(read: SpanRead) -> list[bytes]:
    """Every payload of a read, copied out in the read's span order."""
    return [bytes(read.buffer[start:limit]) for start, limit
            in zip(read.starts.tolist(), read.limits.tolist())]


def stale(read: SpanRead) -> list[int]:
    """The trunks a read touched that have changed structurally since:
    what ``read.assert_fresh()`` raises for, all of them."""
    return [t for t, epoch in zip(read.touched, read.epochs)
            if read.column[t] != epoch]


def locate(directory: SpanDirectory, trunk, keys):
    """``(starts, limits, probes, found, epoch)`` for ``keys``, all taken
    to live in ``trunk``, which is region 0 of ``directory``."""
    uids = np.asarray(keys, dtype=np.uint64)
    with directory.lock:
        [epoch] = directory.refresh(
            [trunk], np.zeros(1, dtype=np.int64),
            np.array([trunk.mutation_epoch]))
        return (*directory.probe(uids, np.zeros(len(uids), dtype=np.int64)),
                epoch)


def copy_spans(storage, starts, limits, buffer=None, at=0):
    """``(buffer, starts, limits)``: the spans copied the way the cloud
    copies one trunk's share of a read — a resident storage's words
    under them (:func:`~repro.memcloud.storage.word_spans`, taken from
    its arena at its slice), a paged one's pages (its ``take``) — into
    ``buffer`` from unit ``at`` on (a fresh buffer when None), and
    rebased into it."""
    resident = isinstance(storage, ResidentStorage)
    if resident:
        unit, (units, begins, ends) = 8, word_spans(starts, limits)
        begins, ends = begins + 8 * at, ends + 8 * at
        words = np.frombuffer(storage.arena.buf, dtype=np.uint64)

        def take(units, out):
            words.take(units + storage.base // 8, out=out, mode="clip")
    else:
        unit, units = storage.page_size, storage.span_pages(starts, limits)
        begins, ends = storage.rebase(starts, limits, units, at)
        take = storage.take
    if buffer is None:
        buffer = np.empty((at + len(units)) * unit, dtype=np.uint8)
    out = (buffer.view(np.uint64) if resident
           else buffer.reshape(-1, unit))
    take(units, out[at:at + len(units)])
    return buffer, begins, ends


def trunk_spans(trunk, uids, directory: SpanDirectory | None = None
                ) -> SpanRead:
    """One batched read of a standalone trunk, as the cloud would make
    it: located in a directory (a throwaway one unless given), charged
    to the trunk's index and copied (:func:`copy_spans`) under the
    trunk's mutex.  Its ``touched`` is the trunk's slot of its epoch
    column."""
    if directory is None:
        directory = SpanDirectory(1, MetricsRegistry())
    starts, limits, probes, found, epoch = locate(directory, trunk, uids)
    if not found.all():
        raise CellNotFoundError(int(uids[int(np.flatnonzero(~found)[0])]))
    with trunk.mutex:
        trunk._index.lookup_count += len(uids)
        trunk._index.probe_count += int(probes.sum())
        copied = copy_spans(trunk.storage, starts, limits)
    # The trunk's epoch column (its own, or its cloud's) and its slot.
    column, slot = trunk._epoch_slots.obj, trunk._epoch_slot
    return SpanRead(*copied, np.arange(len(uids)),
                    np.full(len(uids), trunk.trunk_id), column, [slot],
                    [int(epoch)])


class TableAsTrunk:
    """A bare :class:`~repro.memcloud.hashtable.TrunkHashTable` where the
    directory expects a trunk: the span of a slot is ``[value, value +
    1)``."""

    def __init__(self, table):
        self.table = table
        self.mutation_epoch = 0

    def span_table(self):
        keys, values, states = self.table.columns()
        return (self.mutation_epoch, keys.copy(), states.copy(),
                values.copy(), values + 1)


def table_lookup(table, keys) -> tuple[np.ndarray, np.ndarray]:
    """``(values, found)`` for a batch of keys as the span directory
    finds them in ``table``, which is charged what it walked — the way
    the cloud charges a trunk's index.  Absent keys read 0."""
    starts, _, probes, found, _ = locate(
        SpanDirectory(1, MetricsRegistry()), TableAsTrunk(table), keys)
    table.lookup_count += len(found)
    table.probe_count += int(probes.sum())
    return np.where(found, starts, 0), found
