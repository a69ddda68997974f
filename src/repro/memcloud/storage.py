"""Trunk storage tiers: resident arenas vs out-of-core paged files.

A :class:`~repro.memcloud.trunk.MemoryTrunk` is an allocator over one
contiguous byte range; *where those bytes live* is this module's job.
Every storage is one :class:`~repro.memcloud.arena.Arena` (one mmap);
the two tiers differ in its backing and in residency policy:

* :class:`ResidentStorage` — a process-private anonymous arena.  All
  operations are thin slices; ``pin_spans`` always succeeds because
  nothing can ever be evicted.
* :class:`PagedStorage` — the out-of-core tier: the arena is a page
  file on disk, chopped into fixed-size pages tracked by an LRU page
  table.  At most ``page_budget`` pages are
  *resident* (physically in RAM) at a time; touching a non-resident
  page is a **fault**, going over budget **evicts** the least recently
  used unpinned page (dirty pages are **written back** with ``msync``
  first, then dropped from RAM with ``madvise(MADV_DONTNEED)``).  The
  OS transparently refaults evicted pages from the file on the next
  access, so correctness never depends on the page table — the table
  controls *residency* (and therefore RSS), not visibility.

Zero-copy span reads interact with eviction through **pinning**:
a batched read (``MemoryTrunk.open_spans``) pins the pages under a span
group so the decode that follows cannot fault its own input back out.
Pins are reference counts; they are dropped on the trunk's next
structural epoch bump (any mutation), or by an explicit
``SpanGroup.close()``.  When a span batch's working set would not fit
the page budget, pinning refuses and the trunk degrades that batch to
packed *copies* — decoders see the same bytes either way, they just
lose the zero-copy aliasing.

Everything is observable: ``trunk.page.{fault,evict,writeback}.total``
counters plus ``trunk.page.{resident,pinned}`` gauges per trunk, and a
``trunk.page.span_fallback.total`` counter for degraded span batches.
"""

from __future__ import annotations

import mmap
import os
import tempfile

import numpy as np

from ..obs import get_registry
from .arena import Arena

# Bulk fresh writes are streamed through the storage in chunks of this
# many bytes, so a bigger-than-RAM load never joins the whole batch
# into one Python bytes object.
WRITE_CHUNK_BYTES = 1 << 20


class TrunkStorage:
    """Byte backing for one memory trunk (the storage-tier seam).

    Owns the arena and everything that follows from it alone; the
    methods a residency policy hooks into default to having none (plain
    slices, nothing to account, pin or flush).  The trunk holds its own
    mutex; storages are not thread-safe on their own and every call
    below happens under the trunk lock.
    """

    #: True when the whole address space is RAM-resident by construction.
    resident = True
    #: Config-facing name ("resident" / "paged").
    kind = "abstract"

    def __init__(self, arena: Arena):
        self.arena = arena
        self._array: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.arena)

    def read(self, start: int, end: int) -> bytes:
        """Copy out ``[start, end)``."""
        return self.arena.buf[start:end]

    def write(self, start: int, data) -> None:
        """Write ``data`` at ``start``."""
        self.arena.buf[start:start + len(data)] = data

    def write_stream(self, start: int, parts) -> int:
        """Write an iterable of byte chunks contiguously from ``start``.

        Joins at most :data:`WRITE_CHUNK_BYTES` at a time so a huge
        fresh batch streams through a paged backing sequentially instead
        of materialising one giant join.  Returns bytes written.
        """
        cursor = start
        pending: list[bytes] = []
        pending_len = 0
        for part in parts:
            if not len(part):
                continue
            pending.append(part)
            pending_len += len(part)
            if pending_len >= WRITE_CHUNK_BYTES:
                self.write(cursor, b"".join(pending))
                cursor += pending_len
                pending = []
                pending_len = 0
        if pending_len:
            self.write(cursor, b"".join(pending))
            cursor += pending_len
        return cursor - start

    def view(self, start: int, end: int) -> memoryview:
        """Writable zero-copy view of ``[start, end)`` (cell pinning)."""
        return memoryview(self.arena.buf)[start:end]

    def as_ndarray(self) -> np.ndarray:
        """The whole address space as one ``uint8`` array (span reads)."""
        if self._array is None:
            self._array = np.frombuffer(self.arena.buf, dtype=np.uint8)
        return self._array

    def pin_spans(self, starts, limits) -> bool:
        """Account a read of the given spans (page faults for a paged
        backing) and pin the pages under them against eviction.

        Returns False — and pins nothing — when the batch's page
        working set cannot be held within the page budget; the caller
        degrades to packed copies.
        """
        return True

    def release_pins(self) -> None:
        """Drop every span pin (structural epoch bump / explicit close)."""

    def flush(self) -> int:
        """Write dirty pages back to the backing file; returns pages
        written (0 for resident storage)."""
        return 0

    def close(self) -> None:
        """Release the arena (and a paged trunk's page file).  Any later
        use of the storage raises :class:`MemoryCloudError`."""
        self._array = None
        self.arena.close()


class ResidentStorage(TrunkStorage):
    """The whole trunk stays in RAM: a private anonymous arena and no
    residency policy.

    Reads and writes are plain slices, spans alias the arena buffer,
    pinning is a no-op that always succeeds.
    """

    kind = "resident"


class PagedStorage(TrunkStorage):
    """Fixed-size-page arena backed by a page file, LRU-evicted.

    The page *file* always holds the full address space; the page
    *table* tracks which pages are resident in RAM and enforces the
    budget by evicting (writeback + ``madvise(MADV_DONTNEED)``) the
    least recently used unpinned page.  Because the mapping is shared
    and file-backed, an evicted page transparently refaults from disk
    on the next access — the table can never lose data, only residency.

    One storage = one page file, and the storage that created a file is
    the only one that ever removes it: ``trunk-<id>.pages`` under
    ``spill_dir`` (a private temp file without one) is created
    exclusively — a path some other storage already holds is a
    :class:`~repro.errors.MemoryCloudError`, never a shared mapping —
    and removed on :meth:`close` or garbage collection.
    """

    resident = False
    kind = "paged"

    def __init__(self, trunk_id: int, params, registry=None,
                 spill_dir=None):
        self.trunk_id = trunk_id
        self._size = params.trunk_size
        self._page = params.storage_page_size
        self._budget = max(1, params.page_budget)
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            path = os.path.join(
                os.fspath(spill_dir), f"trunk-{trunk_id:05d}.pages"
            )
        else:
            # Only a name: the arena's exclusive create makes it ours.
            path = tempfile.mktemp(
                prefix=f"repro-trunk{trunk_id}-", suffix=".pages"
            )
        super().__init__(Arena(self._size, path=path))
        # LRU page table: key order is recency (oldest first).
        self._resident: dict[int, None] = {}
        self._dirty: set[int] = set()
        self._pins: dict[int, int] = {}
        obs = registry if registry is not None else get_registry()
        label = {"trunk": trunk_id}
        self._m_fault = obs.counter("trunk.page.fault.total", **label)
        self._m_evict = obs.counter("trunk.page.evict.total", **label)
        self._m_writeback = obs.counter("trunk.page.writeback.total", **label)
        self._m_fallback = obs.counter("trunk.page.span_fallback.total",
                                       **label)
        self._g_resident = obs.gauge("trunk.page.resident", **label)
        self._g_pinned = obs.gauge("trunk.page.pinned", **label)

    # -- page table ------------------------------------------------------

    @property
    def page_size(self) -> int:
        return self._page

    @property
    def page_budget(self) -> int:
        return self._budget

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    @property
    def pinned_pages(self) -> int:
        return len(self._pins)

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    def _touch_page(self, page: int, dirty: bool) -> None:
        table = self._resident
        if page in table:
            # Refresh recency: move to the newest end.
            del table[page]
            table[page] = None
        else:
            table[page] = None
            self._m_fault.inc()
            self._evict_to_budget()
            self._g_resident.set(len(table))
        if dirty:
            self._dirty.add(page)

    def _touch_range(self, start: int, end: int, dirty: bool) -> None:
        if end <= start:
            return
        for page in range(start // self._page, (end - 1) // self._page + 1):
            self._touch_page(page, dirty)

    def _evict_to_budget(self) -> None:
        table = self._resident
        while len(table) > self._budget:
            victim = next((p for p in table if p not in self._pins), None)
            if victim is None:
                # Everything resident is pinned: allow the overrun, the
                # pinned gauge shows why.
                return
            self._evict(victim)

    def _evict(self, page: int) -> None:
        if page in self._dirty:
            self._writeback(page)
            self._dirty.discard(page)
        start, length = self._aligned_extent(page)
        if hasattr(mmap, "MADV_DONTNEED"):
            try:
                self.arena.buf.madvise(mmap.MADV_DONTNEED, start, length)
            except (OSError, ValueError):
                pass  # residency hint only; correctness is unaffected
        del self._resident[page]
        self._m_evict.inc()
        self._g_resident.set(len(self._resident))

    def _aligned_extent(self, page: int) -> tuple[int, int]:
        """System-page-aligned (offset, length) covering a logical page.

        ``msync``/``madvise`` need offsets aligned to the OS page; when
        the logical page is smaller, the aligned extent may cover
        neighbours — they simply refault on next touch.
        """
        gran = mmap.ALLOCATIONGRANULARITY
        start = (page * self._page) // gran * gran
        end = min(self._size, page * self._page + self._page)
        end = min(self._size, (end + gran - 1) // gran * gran)
        return start, end - start

    def _writeback(self, page: int) -> None:
        start, length = self._aligned_extent(page)
        try:
            self.arena.buf.flush(start, length)
        except (OSError, ValueError):
            pass  # the OS will sync the shared mapping at close time
        self._m_writeback.inc()

    def _span_pages(self, starts, limits) -> list[int]:
        starts = np.asarray(starts, dtype=np.int64)
        limits = np.asarray(limits, dtype=np.int64)
        nonempty = limits > starts
        if not nonempty.any():
            return []
        first = starts[nonempty] // self._page
        last = (limits[nonempty] - 1) // self._page
        if (first == last).all():
            return np.unique(first).tolist()
        pages: set[int] = set()
        for lo, hi in zip(first.tolist(), last.tolist()):
            pages.update(range(lo, hi + 1))
        return sorted(pages)

    # -- TrunkStorage API -------------------------------------------------

    def read(self, start: int, end: int) -> bytes:
        self._touch_range(start, end, dirty=False)
        return self.arena.buf[start:end]

    def write(self, start: int, data) -> None:
        n = len(data)
        if not n:
            return
        self._touch_range(start, start + n, dirty=True)
        self.arena.buf[start:start + n] = data

    def view(self, start: int, end: int) -> memoryview:
        # The view is writable, so conservatively dirty its pages; they
        # stay pinned against eviction until the next epoch bump so the
        # holder of the view never races a writeback.
        self._touch_range(start, end, dirty=True)
        for page in self._span_pages([start], [end]):
            self._pins[page] = self._pins.get(page, 0) + 1
        self._g_pinned.set(len(self._pins))
        return memoryview(self.arena.buf)[start:end]

    def pin_spans(self, starts, limits) -> bool:
        pages = self._span_pages(starts, limits)
        for page in pages:      # the read itself: faults, evictions
            self._touch_page(page, dirty=False)
        fresh = [p for p in pages if p not in self._pins]
        if len(fresh) + len(self._pins) > self._budget:
            self._m_fallback.inc()
            return False
        for page in pages:
            self._touch_page(page, dirty=False)
            self._pins[page] = self._pins.get(page, 0) + 1
        self._g_pinned.set(len(self._pins))
        return True

    def release_pins(self) -> None:
        if self._pins:
            self._pins.clear()
            self._g_pinned.set(0)
            self._evict_to_budget()

    def flush(self) -> int:
        written = 0
        for page in sorted(self._dirty):
            self._writeback(page)
            written += 1
        self._dirty.clear()
        return written


def make_trunk_storage(trunk_id: int, params, registry=None,
                       spill_dir=None) -> TrunkStorage:
    """Build the storage tier a trunk's params ask for; ``spill_dir``
    (default: the params') is where a paged trunk's page file goes."""
    if params.storage == "paged":
        return PagedStorage(trunk_id, params, registry=registry,
                            spill_dir=spill_dir or params.spill_dir)
    return ResidentStorage(Arena(params.trunk_size))
