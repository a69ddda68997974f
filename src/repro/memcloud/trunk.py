"""Memory trunks with circular memory management (Sections 3 and 6.1).

A trunk is a contiguous reserved address space (a slice of its cloud's
``mmap`` here, a 2 GB VirtualAlloc reservation in the paper; both cost RAM
only for the pages written) holding variable-length cells plus a hash
table locating them.  Allocation follows the paper's circular scheme:

* New cells are appended at ``append_head``; in most cases allocation is a
  pointer bump.
* Pages are *committed* lazily as the head advances: the kernel commits
  them on first touch, and the trunk keeps its own per-page set so the
  reservation ablation can report committed memory honestly.
* Updates that outgrow their slot are reallocated at the head; the old slot
  becomes garbage.  The *short-lived reservation* mechanism over-allocates
  growing cells by ``reservation_factor`` so repeated growth does not keep
  relocating them; unused reservations are reclaimed by the next defrag.
* As cells at the ``committed_tail`` die, the tail advances over the dead
  space, turning garbage back into allocatable room without any copying.
* When the head reaches the end of the trunk it wraps to offset 0, skipping
  a tail gap — the "endless circular movement" of Figure 11.  Wrapping only
  needs the tail to have moved off offset 0, so a steady churn workload
  cycles around the trunk indefinitely without ever compacting.
* A defragmentation pass compacts live cells, drops reservations, releases
  pages outside the live region and resets the tail — the heavyweight
  fallback for when garbage is scattered *between* live cells rather than
  behind the tail.

Every cell carries a 16-byte in-arena header (UID, live size, reserved
size), matching the 16 bytes/cell the paper's memory model in Section 5.4
charges for "storing and accessing the UID".

The hash table maps a UID to a *slot* of the trunk's cell table, which is
three int64 columns — payload offset, live size, reserved size — with no
per-cell object (the paper's "(offset, size) hash table per trunk").  A
free slot is all zeros (no live payload starts at offset 0: its header
does), so column sums are live totals.  Cell spin locks live in a dict
keyed by slot, made on first use and dropped when the slot is freed.

The layout invariant the allocator maintains: every byte circularly inside
``[committed_tail, append_head)`` is either part of a live cell footprint
or counted in ``garbage_bytes`` (the end gap included once wrapped); every
byte outside that span is free.  ``_advance_tail`` is the only operation
that converts garbage back to free space without a compaction pass.

Allocator events (allocations, wraps, tail advances, defrag passes and
aborts, relocations) are recorded in a :mod:`repro.obs` registry so the
benchmarks and the shell can watch allocator behaviour under load.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass

import numpy as np

from ..config import MemoryParams
from ..errors import CellNotFoundError, MemoryCloudError, TrunkFullError
from ..obs import MetricsRegistry, get_registry
from ..utils.arrays import (
    SpanBatch,
    as_span_batch,
    first_occurrences,
    gather_ranges,
    interleave,
    pack_blobs,
)
from .hashtable import TrunkHashTable, check_key, wrap_keys
from .locks import SpinLock
from .storage import WRITE_CHUNK_BYTES, TrunkStorage, make_trunk_storage

CELL_HEADER_BYTES = 16
_HEADER = struct.Struct("<QII")  # uid, live size, reserved size
# Same 16-byte layout as _HEADER, for pre-packing a whole batch at once.
_HEADER_DTYPE = np.dtype([("uid", "<u8"), ("size", "<u4"),
                          ("reserved", "<u4")])
#: The allocator scalars (``MemoryTrunk._<name>``) a trunk image carries,
#: in the order :mod:`repro.memcloud.persistence` serialises them.
IMAGE_STATE_FIELDS = (
    "append_head", "committed_tail", "wrapped", "end_gap",
    "garbage_bytes", "defrag_passes", "defrag_aborts", "relocations",
    "wraps", "tail_advances", "inplace_resizes",
)


@dataclass(frozen=True)
class TrunkStats:
    """Snapshot of a trunk's memory accounting."""

    cell_count: int
    live_bytes: int        # headers + live payload
    reserved_bytes: int    # headers + reserved payload (footprints)
    garbage_bytes: int     # dead regions awaiting reclamation
    committed_bytes: int   # pages currently committed
    trunk_size: int        # reserved address space
    defrag_passes: int
    relocations: int       # cells moved because growth outran reservation
    wraps: int = 0         # head wrapped into reclaimed tail space
    tail_advances: int = 0  # tail moved over dead space without compaction
    defrag_aborts: int = 0  # passes abandoned because a cell was pinned
    inplace_resizes: int = 0  # resizes served without copying the payload

    @property
    def utilization(self) -> float:
        """Live data as a fraction of committed memory."""
        if not self.committed_bytes:
            return 1.0
        return self.live_bytes / self.committed_bytes


class MemoryTrunk:
    """One memory trunk: a circular arena plus its hash table.

    Structural operations (allocation, index updates, defragmentation)
    are serialised by a per-trunk mutex.  This is the paper's trunk-level
    parallelism: threads that partition the key space by trunk never
    contend on it (Section 3's "without any overhead of locking" refers
    to cross-trunk traffic), while the per-cell spin locks handle
    fine-grained pinning within a trunk.
    """

    def __init__(self, trunk_id: int, params: MemoryParams | None = None,
                 registry: MetricsRegistry | None = None,
                 storage: TrunkStorage | None = None):
        self.trunk_id = trunk_id
        self.params = params or MemoryParams()
        # Re-entrant: put() may trigger defragment() internally.
        self._mutex = threading.RLock()
        obs = registry if registry is not None else get_registry()
        self.obs = obs
        if storage is None:
            storage = make_trunk_storage(trunk_id, self.params, registry=obs)
        self._storage = storage
        if len(storage) != self.params.trunk_size:
            raise ValueError(
                f"storage holds {len(storage)} bytes, trunk needs "
                f"{self.params.trunk_size}"
            )
        self._index = TrunkHashTable()
        self._slot_count = 0           # slots ever handed out (live or free)
        self._grow_table(16)
        # Cell locks by slot, made on first use (an OS lock object per
        # cell is the single largest constant in bulk loading, and freshly
        # loaded cells are never contended) and dropped with the slot.
        # Every access runs under the trunk mutex, so neither can race.
        self._locks: dict[int, SpinLock] = {}
        self._count_epoch_in(np.zeros(1, dtype=np.int64), 0)
        self._free_slots: list[int] = []
        self._append_head = 0
        self._committed_tail = 0       # oldest live byte (circular start)
        self._wrapped = False          # head has wrapped behind the tail
        self._end_gap = 0              # skipped bytes at arena end after wrap
        self._garbage_bytes = 0
        self._committed_pages: set[int] = set()
        self._defrag_passes = 0
        self._defrag_aborts = 0
        self._relocations = 0
        self._wraps = 0
        self._tail_advances = 0
        self._inplace_resizes = 0
        label = {"trunk": trunk_id}
        self._m_alloc = obs.counter("trunk.alloc.total", **label)
        self._m_wrap = obs.counter("trunk.wrap.total", **label)
        self._m_tail = obs.counter("trunk.tail_advance.bytes", **label)
        self._m_defrag = obs.counter("trunk.defrag.passes", **label)
        self._m_defrag_abort = obs.counter("trunk.defrag.aborted", **label)
        self._m_reloc = obs.counter("trunk.relocations.total", **label)
        self._m_inplace = obs.counter("trunk.resize.inplace.total", **label)
        self._g_garbage = obs.gauge("trunk.garbage.bytes", **label)
        self._g_util = obs.gauge("trunk.utilization", **label)

    @property
    def storage(self) -> TrunkStorage:
        """The byte backing tier (resident or paged)."""
        return self._storage

    @property
    def mutex(self) -> threading.RLock:
        """Held by every operation below, a batched read's copy and the
        trunk's replacement."""
        return self._mutex

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        with self._mutex:
            return len(self._index)

    def __contains__(self, uid: int) -> bool:
        with self._mutex:
            return uid in self._index

    def uids(self):
        """All cell UIDs in the trunk (snapshot, arbitrary order)."""
        with self._mutex:
            return list(self._index.keys())

    def put(self, uid: int, value: bytes) -> None:
        """Insert or replace the cell ``uid`` with ``value``."""
        with self._mutex:
            slot = self._index.get(uid)
            if slot is None:
                self._insert(uid, value)
            else:
                self._update(uid, slot, value)

    def get(self, uid: int) -> bytes:
        """Return a copy of the cell's payload."""
        with self._mutex:
            slot = self._require(uid)
            offset = self._offset_view[slot]
            return self._storage.read(offset, offset + self._size_view[slot])

    # -- bulk fast path ------------------------------------------------------

    def bulk_put(self, uids, payloads, presize: bool = True) -> None:
        """Insert or replace a batch of cells under one lock acquisition.

        ``payloads`` is a :class:`~repro.utils.arrays.SpanBatch` or a
        sequence of blobs (packed once).  Semantically identical to
        calling :meth:`put` once per pair in order — same stored bytes,
        same garbage/committed accounting, and (with ``presize=False``)
        bit-identical hash-table probe counters.  The fast path lays a
        run of fresh cells out at the head (:meth:`_write_run`); batches
        that overwrite existing cells, repeat a UID, or need to wrap fall
        back to the scalar code path cell by cell (still under the lock).

        ``presize`` grows the index up front so the batch never resizes
        incrementally; because probe lengths depend on table capacity at
        insertion time, a pre-sized load's ``probe_count`` can differ from
        an incrementally-grown one (contents and all trunk accounting do
        not).
        """
        cells = as_span_batch(payloads)
        if len(uids) != len(cells.starts):
            raise ValueError(
                f"bulk_put got {len(uids)} uids but {len(cells.starts)} "
                f"payloads"
            )
        if not len(uids):
            return
        keys, outside = wrap_keys(uids)
        if outside is not None:     # refused before a byte is allocated
            check_key(int(uids[outside[0]]))
        with self._mutex:
            if presize:
                self._index.reserve(len(self._index) + len(uids))
            done = self._bulk_insert_fresh(keys, cells, presize)
            buffer, starts, limits = cells
            for i in range(done, len(uids)):
                self.put(int(uids[i]), buffer[starts[i]:limits[i]].tobytes())

    def _bulk_insert_fresh(self, uids: np.ndarray, cells: SpanBatch,
                           presize: bool) -> int:
        """Batch-lay-out the longest eligible prefix; returns cells done.

        Eligible means: no UID repeats within the batch, none already
        present, and the prefix fits the straight-line region at the
        append head (no wrap, no tail advance, no defrag) — in that
        regime the scalar path would perform exactly these pointer-bump
        allocations, so one run laid out at the head is equivalent.

        ``presize`` additionally allows the index update to go through
        the hash table's vectorized batch insert, which is free to lay
        collided keys out in a different probe order (the pre-sized
        contract already waives probe-count equality).
        """
        if len(first_occurrences(uids)) != len(uids):
            return 0
        if len(self._index) and any(map(self._index.has_key, uids.tolist())):
            return 0
        self._invalidate_spans()
        if self._wrapped:
            available = self._committed_tail - self._append_head
        else:
            available = self.params.trunk_size - self._append_head
        all_sizes = cells.limits - cells.starts
        footprint_ends = np.cumsum(all_sizes + CELL_HEADER_BYTES)
        count = int(np.searchsorted(footprint_ends, available, side="right"))
        if count == 0:
            return 0
        uids, sizes = uids[:count], all_sizes[:count]
        start = self._append_head
        offsets = self._write_run(start, uids, cells.buffer,
                                  cells.starts[:count], sizes)
        # The accounting: head advance, page commits, allocation
        # metrics, table, index.
        total = int(footprint_ends[count - 1])
        self._append_head = start + total
        self._commit_range(start, start + total)
        self._m_alloc.inc(count)
        # Freed slots are reused first, newest first, as the put loop
        # reuses them; the rest of the run extends the table.
        reused = self._free_slots[:-count - 1:-1]
        del self._free_slots[len(self._free_slots) - len(reused):]
        base = self._append_slots(count - len(reused)) - len(reused)
        slots = np.arange(base, base + count)
        slots[:len(reused)] = reused
        self._offsets[slots] = offsets
        self._sizes[slots] = self._reserved[slots] = sizes
        self._index_fresh(uids, slots, presize)
        return count

    def _write_run(self, start: int, uids, buffer: np.ndarray,
                   starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Lay cells out back to back from ``start``, each reserving
        exactly its payload (``sizes[i]`` bytes of ``buffer`` from
        ``starts[i]``); returns their payload offsets.

        One header pre-packing pass, then chunks of at most
        ``WRITE_CHUNK_BYTES``: each one interleave of its headers with its
        payloads (a slice of ``buffer`` if they lie back to back there)
        and one storage write — one walk, copy and drop on a paged trunk,
        so a bigger-than-RAM load maps no more than the page budget.
        """
        count = len(sizes)
        headers = np.zeros(count, dtype=_HEADER_DTYPE)
        headers["uid"] = uids
        headers["size"] = sizes
        headers["reserved"] = sizes
        header_bytes = headers.view(np.uint8)
        ends = np.cumsum(sizes + CELL_HEADER_BYTES)
        limits = starts + sizes
        in_place = bool((starts[1:] == limits[:-1]).all())
        low = 0
        while low < count:
            written = int(ends[low - 1]) if low else 0
            high = max(low + 1, int(np.searchsorted(
                ends, written + WRITE_CHUNK_BYTES, side="right")))
            if in_place:
                payloads = buffer[starts[low]:limits[high - 1]]
            else:
                payloads = gather_ranges(buffer, starts[low:high],
                                         sizes[low:high])
            pieces = np.full((high - low, 2), CELL_HEADER_BYTES)
            pieces[:, 1] = sizes[low:high]
            self._storage.write(start + written, interleave(
                (header_bytes[low * CELL_HEADER_BYTES:
                              high * CELL_HEADER_BYTES], payloads), pieces))
            low = high
        # Cell i's payload starts past every earlier footprint and its
        # own header.
        return start + ends - sizes

    def _index_fresh(self, uids, slots, presized: bool) -> None:
        """Index absent ``uids`` (a uint64 column) at ``slots`` (int64):
        in one vectorized pass when the table was pre-sized for them
        (probe-layout equality already waived), else one exact
        :meth:`insert_fresh` at a time."""
        if not (presized and self._index.bulk_insert_fresh(uids, slots)):
            for uid, slot in zip(uids.tolist(), slots.tolist()):
                self._index.insert_fresh(uid, slot)

    def span_table(self) -> tuple:
        """``(epoch, keys, states, starts, limits)``: the hash table slot
        for slot, as the span directory mirrors it — copies of its key
        and state columns and, per slot, the payload span ``[start,
        limit)`` of the cell a live slot names (other slots carry
        whatever they last pointed at).  Taken under the mutex, so it is
        exact for ``epoch`` and stale once :attr:`mutation_epoch` moves."""
        with self._mutex:
            keys, slots, states = self._index.columns()
            starts = self._offsets[slots]
            return (self.mutation_epoch, keys.copy(), states.copy(),
                    starts, starts + self._sizes[slots])

    def _invalidate_spans(self) -> None:
        """Advance the structural epoch.

        Called wherever cells may move, grow, or die.  The span
        directory's mirror of this trunk and every outstanding span carry
        the epoch they were taken at, so after this bump the mirror is
        recopied before its next use and the spans' consumers refuse to
        decode (``StaleSpanError``) instead of silently reading relocated
        bytes.  View pins die with their epoch: whatever mutated may now
        evict freely.
        """
        self._epoch_slots[self._epoch_slot] += 1
        self._storage.release_pins()

    def _count_epoch_in(self, column: np.ndarray, slot: int) -> None:
        """Keep :attr:`mutation_epoch` in ``column[slot]`` from now on:
        a one-slot column of its own, or its slot of a cloud's column."""
        self._epoch_slots, self._epoch_slot = memoryview(column), slot

    @property
    def mutation_epoch(self) -> int:
        """Structural-change counter guarding batched-read spans: this
        trunk's slot of its epoch column.

        Read without the mutex: the lock could not make the value any
        less stale — it may advance the instant after release either
        way.  A cloud's consumers do not read it trunk by trunk: they
        read the cloud's whole column (:meth:`MemoryCloud.epoch_vector`,
        a read's staleness check, the span directory's refresh) in one
        vector operation."""
        return self._epoch_slots[self._epoch_slot]

    def touch(self) -> None:
        """Record an in-place payload mutation that bypassed put().

        Cell accessors write fixed-size fields straight into the arena
        (no relocation, no put), which leaves offsets valid but changes
        cell *content*.  Anything caching decoded values keyed on
        :attr:`mutation_epoch` — the serving layer's hub/result caches,
        outstanding batched reads — must observe such writes too, so
        they share the same epoch bump as structural changes.
        """
        with self._mutex:
            self._invalidate_spans()

    def get_view(self, uid: int) -> memoryview:
        """Zero-copy view of the cell payload.

        The caller must hold the cell's spin lock (see :meth:`lock_of`) for
        as long as the view is used: defragmentation relocates cells and a
        stale view would read garbage.  Cell accessors in :mod:`repro.tsl`
        wrap this in a context manager that takes the lock.
        """
        with self._mutex:
            slot = self._require(uid)
            offset = self._offset_view[slot]
            return self._storage.view(offset, offset + self._size_view[slot])

    def _cell_lock(self, slot: int) -> SpinLock:
        """The slot's lock, made on first use with the configured spin
        budget: every site that takes it — this trunk's own ``with``
        blocks, a pin, a mini-transaction — spins the same bound."""
        lock = self._locks.get(slot)
        if lock is None:
            lock = self._locks[slot] = SpinLock(self.params.spinlock_budget)
        return lock

    def lock_of(self, uid: int) -> SpinLock:
        """The spin lock associated with the cell (Section 3)."""
        with self._mutex:
            return self._cell_lock(self._require(uid))

    def remove(self, uid: int) -> None:
        """Delete a cell; its region becomes garbage until reclaimed."""
        with self._mutex:
            slot = self._require(uid)
            self._invalidate_spans()
            with self._cell_lock(slot):
                self._free_slot(uid, slot)
        # defrag trigger outside is fine; re-enter via mutex
        self._maybe_defrag()

    def _free_slot(self, uid: int, slot: int) -> None:
        """Unindex a cell: its footprint becomes garbage, its slot is
        zeroed for reuse and its lock (held by the caller) is dropped."""
        # A removal charges the index one more lookup than it needs; the
        # probe counters (and the trunk-count figure on them) count it.
        self._index.get(uid)
        self._index.delete(uid)
        self._garbage_bytes += CELL_HEADER_BYTES + self._reserved_view[slot]
        self._g_garbage.set(self._garbage_bytes)
        self._offset_view[slot] = self._size_view[slot] = 0
        self._reserved_view[slot] = 0
        self._free_slots.append(slot)
        del self._locks[slot]

    def size_of(self, uid: int) -> int:
        """Live payload size of the cell in bytes."""
        with self._mutex:
            return self._size_view[self._require(uid)]

    def resize(self, uid: int, new_size: int, fill: int = 0) -> None:
        """Grow or shrink a cell in place where possible.

        Within the reserved slot the resize touches only the grown region
        and the header — no payload copy at all.  Growth beyond the slot
        relocates the cell (counting a relocation and leaving garbage
        behind), which is exactly the traffic the short-lived reservation
        mechanism of Section 6.1 is designed to dampen.
        """
        if new_size < 0:
            raise ValueError("cell size cannot be negative")
        with self._mutex:
            slot = self._require(uid)
            self._invalidate_spans()
            offset, size = self._offset_view[slot], self._size_view[slot]
            reserved = self._reserved_view[slot]
            if new_size <= reserved:
                with self._cell_lock(slot):
                    if new_size > size:
                        self._storage.write(
                            offset + size, bytes([fill]) * (new_size - size))
                    self._size_view[slot] = new_size
                    self._write_header(offset - CELL_HEADER_BYTES, uid,
                                       new_size, reserved)
                self._inplace_resizes += 1
                self._m_inplace.inc()
                return
            # Outgrew the reservation: one payload copy, then relocate.
            grown = (self._storage.read(offset, offset + size)
                     + bytes([fill]) * (new_size - size))
            self._update(uid, slot, grown)

    def stats(self) -> TrunkStats:
        with self._mutex:
            return self._stats_locked()

    def _stats_locked(self) -> TrunkStats:
        # Free slots are zeroed, so the column sums are the live cells'.
        count, used = len(self._index), self._slot_count
        headers = CELL_HEADER_BYTES * count
        stats = TrunkStats(
            cell_count=count,
            live_bytes=headers + int(self._sizes[:used].sum()),
            reserved_bytes=headers + int(self._reserved[:used].sum()),
            garbage_bytes=self._garbage_bytes,
            committed_bytes=len(self._committed_pages) * self.params.page_size,
            trunk_size=self.params.trunk_size,
            defrag_passes=self._defrag_passes,
            relocations=self._relocations,
            wraps=self._wraps,
            tail_advances=self._tail_advances,
            defrag_aborts=self._defrag_aborts,
            inplace_resizes=self._inplace_resizes,
        )
        self._g_util.set(stats.utilization)
        return stats

    @property
    def mean_probe_length(self) -> float:
        """Hash-conflict metric of the trunk's hash table."""
        return self._index.mean_probe_length

    # -- persistence hooks (used by repro.memcloud.persistence) --------------

    def dump_cells(self):
        """Return (uid, payload bytes) for every live cell (snapshot)."""
        with self._mutex:
            uids, slots = self._index.live_columns()
            starts = self._offsets[slots]
            limits = starts + self._sizes[slots]
            read = self._storage.read
            return [(uid, read(start, limit)) for uid, start, limit
                    in zip(uids.tolist(), starts.tolist(), limits.tolist())]

    def freeze_image_state(self) -> dict:
        """Full-fidelity allocator snapshot for page-image persistence.

        Returns the raw bytes of every committed page plus all the
        allocator state needed to adopt them verbatim into a pristine
        trunk (:meth:`adopt_image_state`).  Dirty pages are written back
        first — the checkpoint half of the paged tier's writeback
        contract — so a paged trunk's page file on disk matches the
        image at return time.
        """
        with self._mutex:
            self._storage.flush()
            page = self.params.page_size
            size = self.params.trunk_size
            pages = sorted(self._committed_pages)
            # The cell table, one ``(uid, offset, size, reserved)`` row
            # per cell in hash-slot order, filled a column at a time.
            uids, slots = self._index.live_columns()
            cells = np.empty((len(slots), 4), dtype=np.uint64)
            cells[:, 0] = uids
            cells[:, 1] = self._offsets[slots]
            cells[:, 2] = self._sizes[slots]
            cells[:, 3] = self._reserved[slots]
            raw = [self._storage.read(p * page, min(size, (p + 1) * page))
                   for p in pages]
            state = {name: getattr(self, "_" + name)
                     for name in IMAGE_STATE_FIELDS}
            state.update(pages=pages, cells=cells, raw=raw)
            return state

    def adopt_image_state(self, state: dict) -> None:
        """Adopt a :meth:`freeze_image_state` snapshot verbatim.

        The trunk must be pristine and have the page and trunk size of
        the trunk the snapshot was frozen from (the image parser in
        :mod:`repro.memcloud.persistence` checks the sizes before it
        hands a state over).  Stored bytes, allocator accounting, and
        :meth:`stats` restore exactly; hash-table probe counters restart
        from zero (the index is rebuilt, not replayed).  Ends with a
        structural epoch bump, so any mirror of the index or page pins
        from the pristine incarnation are dropped.
        """
        with self._mutex:
            if len(self._index) or self._append_head or self._wrapped:
                raise MemoryCloudError(
                    f"trunk {self.trunk_id}: adopt_image_state needs an "
                    f"empty trunk"
                )
            page = self.params.page_size
            for index, raw in zip(state["pages"], state["raw"]):
                self._storage.write(index * page, raw)
            self._committed_pages = set(state["pages"])
            for name in IMAGE_STATE_FIELDS:
                setattr(self, "_" + name, state[name])
            self._g_garbage.set(self._garbage_bytes)
            cells = state["cells"]
            base = self._append_slots(len(cells))
            fresh = slice(base, base + len(cells))
            self._offsets[fresh] = cells[:, 1]
            self._sizes[fresh] = cells[:, 2]
            self._reserved[fresh] = cells[:, 3]
            self._index.reserve(len(cells))
            self._index_fresh(cells[:, 0], np.arange(fresh.start, fresh.stop),
                              True)
            self._index.probe_count = self._index.lookup_count = 0
            self._invalidate_spans()
            self._storage.flush()

    # -- allocation internals --------------------------------------------

    def _require(self, uid: int) -> int:
        """The cell's slot in the table."""
        slot = self._index.get(uid)
        if slot is None:
            raise CellNotFoundError(uid)
        return slot

    def _grow_table(self, capacity: int) -> None:
        """Reallocate the table's columns with room for ``capacity``
        slots.  Scalar paths index them through ``memoryview``s, which
        hand back plain ints (as :class:`TrunkHashTable` does)."""
        used = self._slot_count
        columns = []
        for name in ("_offsets", "_sizes", "_reserved"):
            column = np.zeros(capacity, dtype=np.int64)
            if used:
                column[:used] = getattr(self, name)[:used]
            setattr(self, name, column)
            columns.append(memoryview(column))
        self._offset_view, self._size_view, self._reserved_view = columns

    def _append_slots(self, count: int) -> int:
        """Hand out ``count`` never-used slots; returns the first."""
        first = self._slot_count
        if first + count > len(self._offsets):
            self._grow_table(1 << (first + count - 1).bit_length())
        self._slot_count = first + count
        return first

    def _insert(self, uid: int, value: bytes, reserve: bool = False) -> None:
        check_key(uid)  # before any byte is allocated for it
        self._invalidate_spans()
        reserved = len(value)
        if reserve:
            reserved = max(
                reserved, int(len(value) * self.params.reservation_factor)
            )
        offset = self._allocate(CELL_HEADER_BYTES + reserved)
        self._write_cell(offset, uid, value, reserved)
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = self._append_slots(1)
        self._offset_view[slot] = offset + CELL_HEADER_BYTES
        self._size_view[slot] = len(value)
        self._reserved_view[slot] = reserved
        self._index.set(uid, slot)

    def _update(self, uid: int, slot: int, value: bytes) -> None:
        self._invalidate_spans()
        with self._cell_lock(slot):
            reserved = self._reserved_view[slot]
            if len(value) <= reserved:
                # In-place update; shrinking only adjusts the live size and
                # the slack stays reserved (reclaimed at next defrag).
                offset = self._offset_view[slot]
                self._storage.write(offset, value)
                self._size_view[slot] = len(value)
                self._write_header(offset - CELL_HEADER_BYTES, uid,
                                   len(value), reserved)
                return
            # Outgrew the slot: relocate with a short-lived reservation.
            self._relocations += 1
            self._m_reloc.inc()
            self._free_slot(uid, slot)
        self._insert(uid, value, reserve=True)
        self._maybe_defrag()

    def _allocate(self, footprint: int) -> int:
        """Reserve ``footprint`` bytes at the append head.

        Tries, in escalating order of cost: a pointer bump (possibly
        wrapping into reclaimed tail space), advancing the tail over dead
        cells and retrying, and finally a full defragmentation pass.
        Returns the region's start offset.
        """
        if footprint > self.params.trunk_size:
            raise TrunkFullError(
                f"cell footprint {footprint} exceeds trunk size "
                f"{self.params.trunk_size}"
            )
        offset = self._try_allocate(footprint)
        if offset is None and self._advance_tail():
            offset = self._try_allocate(footprint)
        if offset is None:
            self.defragment()
            offset = self._try_allocate(footprint)
        if offset is None:
            raise TrunkFullError(
                f"trunk {self.trunk_id} cannot fit {footprint} bytes "
                f"(live {self.stats().reserved_bytes}, "
                f"size {self.params.trunk_size})"
            )
        self._m_alloc.inc()
        self._commit_range(offset, offset + footprint)
        return offset

    def _try_allocate(self, footprint: int) -> int | None:
        size = self.params.trunk_size
        if not self._wrapped:
            if self._append_head + footprint <= size:
                offset = self._append_head
                self._append_head += footprint
                return offset
            # Wrap: the slack at the end becomes a skip gap (Figure 11).
            if footprint <= self._committed_tail:
                self._end_gap = size - self._append_head
                self._garbage_bytes += self._end_gap
                self._g_garbage.set(self._garbage_bytes)
                self._wrapped = True
                self._append_head = footprint
                self._wraps += 1
                self._m_wrap.inc()
                return 0
            return None
        if self._append_head + footprint <= self._committed_tail:
            offset = self._append_head
            self._append_head += footprint
            return offset
        return None

    def _advance_tail(self) -> int:
        """Move the tail forward over dead space; returns bytes reclaimed.

        This is the cheap half of the paper's circular scheme: when the
        cells just after the committed tail have been removed (or
        relocated), the span between the old tail and the oldest surviving
        cell is pure garbage, and skipping over it frees that room for the
        head to wrap into — no copying, no defragmentation.
        """
        with self._mutex:
            size = self.params.trunk_size
            old_tail = self._committed_tail
            if not len(self._index):
                reclaimed = self._garbage_bytes
                self._append_head = 0
                self._committed_tail = 0
                self._wrapped = False
                self._end_gap = 0
                self._garbage_bytes = 0
                self._g_garbage.set(0)
                if reclaimed:
                    self._tail_advances += 1
                    self._m_tail.inc(reclaimed)
                return reclaimed
            # The nearest live cell start, circularly, from the old tail
            # (a free slot's zero offset is no cell's).
            offsets = self._offsets[:self._slot_count]
            starts = offsets[offsets > 0] - CELL_HEADER_BYTES
            advanced = int(((starts - old_tail) % size).min())
            if advanced == 0:
                return 0
            new_tail = (old_tail + advanced) % size
            # Everything between the old and new tail was garbage (live
            # cells never start there, and no footprint spans the tail).
            self._garbage_bytes -= advanced
            assert self._garbage_bytes >= 0
            if self._wrapped and old_tail + advanced >= size:
                # The tail crossed the arena end: the skip gap it passed
                # over dissolves and the layout is linear again.
                self._wrapped = False
                self._end_gap = 0
            self._committed_tail = new_tail
            self._g_garbage.set(self._garbage_bytes)
            self._tail_advances += 1
            self._m_tail.inc(advanced)
            return advanced

    def _write_cell(self, offset: int, uid: int, value: bytes,
                    reserved: int) -> None:
        self._write_header(offset, uid, len(value), reserved)
        self._storage.write(offset + CELL_HEADER_BYTES, value)

    def _write_header(self, offset: int, uid: int, size: int,
                      reserved: int) -> None:
        self._storage.write(offset, _HEADER.pack(uid, size, reserved))

    def _commit_range(self, start: int, end: int) -> None:
        page = self.params.page_size
        for index in range(start // page, (max(end, start + 1) - 1) // page + 1):
            self._committed_pages.add(index)

    # -- defragmentation ---------------------------------------------------

    def _maybe_defrag(self) -> None:
        committed = len(self._committed_pages) * self.params.page_size
        if not committed:
            return
        if self._garbage_bytes / committed < self.params.defrag_trigger_ratio:
            return
        # Circular reclamation first: advancing the tail is O(cells) with
        # no copying, so only compact if scattered garbage remains.
        self._advance_tail()
        if self._garbage_bytes / committed >= self.params.defrag_trigger_ratio:
            self.defragment()

    def defragment(self) -> bool:
        """Compact live cells, drop reservations, release free pages.

        Mirrors the daemon of Section 6.1: key-value pairs are slid
        together, unused short-lived reservations are collected, and pages
        outside the live region are decommitted.  A cell whose spin lock is
        held is *pinned*; the pass is aborted (returns False) and will be
        retried by the next trigger, since compaction cannot move around a
        pinned cell without fragmenting its neighbours.
        """
        with self._mutex:
            return self._defragment_locked()

    def _defragment_locked(self) -> bool:
        self._invalidate_spans()
        # Only a cell whose lock was ever handed out can be pinned.
        if any(lock.held for lock in self._locks.values()):
            self._defrag_aborts += 1
            self._m_defrag_abort.inc()
            return False
        # Order by current circular position from the committed tail so
        # relative order (and therefore locality) is preserved.
        uids, slots = self._index.live_columns()
        offsets = self._offsets[slots]
        order = np.argsort((offsets - CELL_HEADER_BYTES - self._committed_tail)
                           % self.params.trunk_size)
        uids, slots, offsets = uids[order], slots[order], offsets[order]
        sizes = self._sizes[slots]
        read = self._storage.read
        live = pack_blobs([read(start, limit) for start, limit in zip(
            offsets.tolist(), (offsets + sizes).tolist())])
        # Slide them together, each reserving exactly its payload.
        self._offsets[slots] = self._write_run(0, uids, live.buffer,
                                               live.starts, sizes)
        self._reserved[slots] = sizes
        cursor = CELL_HEADER_BYTES * len(sizes) + int(sizes.sum())
        self._committed_tail = 0
        self._append_head = cursor
        self._wrapped = False
        self._end_gap = 0
        self._garbage_bytes = 0
        self._g_garbage.set(0)
        # Decommit pages wholly beyond the new head.
        page = self.params.page_size
        last_live_page = (cursor - 1) // page if cursor else -1
        self._committed_pages = {
            p for p in self._committed_pages if p <= last_live_page
        }
        self._defrag_passes += 1
        self._m_defrag.inc()
        return True
