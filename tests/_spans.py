"""The cloud's batched read, over one standalone trunk or one bare table.

``MemoryCloud.bulk_get_spans`` locates a window in its
:class:`~repro.memcloud.directory.SpanDirectory` and then asks each trunk
touched to copy its spans.  Tests that exercise a trunk, a storage (or a
hash table) on its own make the same calls here, through a directory of
one region.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CellNotFoundError
from repro.memcloud import SpanGroup
from repro.memcloud.directory import SpanDirectory
from repro.memcloud.storage import word_spans
from repro.obs import MetricsRegistry


def payloads(spans: SpanGroup) -> list[bytes]:
    """Every payload of a span group, copied out in the group's order."""
    return [bytes(spans.arena[start:limit]) for start, limit
            in zip(spans.starts.tolist(), spans.limits.tolist())]


def locate(directory: SpanDirectory, trunk, keys):
    """``(starts, limits, probes, found, epoch)`` for ``keys``, all taken
    to live in ``trunk``, which is region 0 of ``directory``."""
    uids = np.asarray(keys, dtype=np.uint64)
    with directory.lock:
        [epoch] = directory.refresh([trunk], [0])
        return (*directory.probe(uids, np.zeros(len(uids), dtype=np.int64)),
                epoch)


def open_spans(storage, starts, limits, take=None, buffer=None, at=0):
    """``(buffer, starts, limits)``: the spans copied the way the cloud
    copies one trunk's share of a read — a resident storage's words
    under them (:func:`~repro.memcloud.storage.word_spans`), a paged
    one's pages — by ``take(units, out)`` (default: the storage's own
    ``take``) into ``buffer`` from unit ``at`` on (a fresh buffer when
    None), and rebased into it."""
    if storage.resident:
        unit, (units, begins, ends) = 8, word_spans(starts, limits)
        begins, ends = begins + 8 * at, ends + 8 * at
    else:
        unit, units = storage.page_size, storage.span_pages(starts, limits)
        begins, ends = storage.rebase(starts, limits, units, at)
    if buffer is None:
        buffer = np.empty((at + len(units)) * unit, dtype=np.uint8)
    out = (buffer.view(np.uint64) if storage.resident
           else buffer.reshape(-1, unit))
    (take or storage.take)(units, out[at:at + len(units)])
    return buffer, begins, ends


def trunk_spans(trunk, uids, directory: SpanDirectory | None = None
                ) -> SpanGroup:
    """One batched read of a standalone trunk, as the one span group the
    cloud would make of it: located in a directory (a throwaway one
    unless given), charged to the trunk's index and copied by the trunk
    (:func:`open_spans`)."""
    if directory is None:
        directory = SpanDirectory(1, MetricsRegistry())
    starts, limits, probes, found, epoch = locate(directory, trunk, uids)
    if not found.all():
        raise CellNotFoundError(int(uids[int(np.flatnonzero(~found)[0])]))

    def take(units, out):
        trunk.open_spans(len(uids), int(probes.sum()), units, out)
    return SpanGroup(*open_spans(trunk.storage, starts, limits, take),
                     np.arange(len(uids)), trunk, epoch)


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
