"""Trunk storage tiers: resident arenas vs out-of-core paged files.

A :class:`~repro.memcloud.trunk.MemoryTrunk` is an allocator over one
contiguous byte range; *where those bytes live* is this module's job.
Every storage is one :class:`~repro.memcloud.arena.Arena` (one mmap);
the two tiers differ in its backing and in residency policy:

* :class:`ResidentStorage` — a process-private anonymous arena.  All
  operations are thin slices; ``open_spans`` is the arena and its
  inputs because nothing can ever be evicted.
* :class:`PagedStorage` — the out-of-core tier: the arena is a page
  file on disk, chopped into fixed-size pages tracked by an LRU page
  table.  At most ``page_budget`` pages are *resident* at a time;
  touching a non-resident page is a **fault**, going over budget
  **evicts** the least recently used unpinned page.  The mapping is
  shared and file-backed, so the OS refaults an evicted page from the
  file on the next access: the table can never lose data, it controls
  *residency* (and therefore RSS), not visibility.

Every access is one unit of page-table work, in three steps: **walk**
the table once for all the pages the access covers (faults, LRU order,
victims; counters and gauges settled once), **touch** the bytes, then
**drop** the victims — ``msync`` the dirty ones, ``madvise(DONTNEED)``
all, one call per run of adjacent pages.  Dropping last is what makes
the budget bound what is actually mapped: an access wider than the
budget evicts pages of its own, which dropped first would fault
straight back in and stay.  (The kernel's fault-around maps a fault's
neighbours, so the bound is the budget plus one such window.)

A batched read (``MemoryTrunk.open_spans``) copies: the pages under
its spans land in rows of a caller's buffer — whole pages end to end,
as a buffer pool would read them, with the spans rebased into it — in
one walk, one copy and one drop.  The cloud sizes one such buffer for
every paged trunk a read touches, so the read decodes once.  Nothing of
it aliases the mapping, so nothing needs to stay resident for it.  Only
a writable ``view`` (``MemoryCloud.pin``) pins its pages, as reference
counts dropped on the trunk's next structural epoch bump (any
mutation).

Everything is observable: ``trunk.page.{fault,evict,writeback}.total``
counters plus ``trunk.page.{resident,pinned}`` gauges per trunk.
"""

from __future__ import annotations

import mmap
import os
import tempfile

import numpy as np

from ..obs import get_registry
from .arena import Arena

# A trunk writes a fresh run through its storage in chunks of at most
# this many bytes (``MemoryTrunk._write_run``): a bigger-than-RAM load
# never builds its whole run in RAM, and a paged trunk walks, copies and
# drops once per chunk.
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

    def view(self, start: int, end: int) -> memoryview:
        """Writable zero-copy view of ``[start, end)`` (cell pinning)."""
        return memoryview(self.arena.buf)[start:end]

    def as_ndarray(self) -> np.ndarray:
        """The whole address space as one ``uint8`` array (span reads)."""
        if self._array is None:
            self._array = np.frombuffer(self.arena.buf, dtype=np.uint8)
        return self._array

    def open_spans(self, starts, limits, pages=None, buffer=None, at=0):
        """``(buffer, starts, limits)`` with ``buffer[starts[i]:limits[i]]``
        the bytes of span ``i``: the arena and the inputs when the spans
        can be read in place.  A paged backing copies the spans' pages
        into ``buffer`` instead and rebases the spans into it.
        """
        return self.as_ndarray(), starts, limits

    def release_pins(self) -> None:
        """Drop every view pin (structural epoch bump)."""

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
    there is nothing to pin.
    """

    kind = "resident"


class PagedStorage(TrunkStorage):
    """Fixed-size-page arena backed by a page file, LRU-evicted (the
    module docstring has the policy).

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

    def _walk(self, pages=(), dirty: bool = False) -> list[tuple[int, bool]]:
        """Account one access to ``pages``, in order, as one unit of
        page-table work: refresh or insert each page (a fault), evict
        the oldest unpinned page while over budget, then mark the page
        dirty if asked.  Returns the victims in eviction order as
        ``(page, was_dirty)`` and syncs or unmaps nothing: the caller
        touches its bytes first, then hands them to :meth:`_drop`.
        """
        table, pins, stale = self._resident, self._pins, self._dirty
        budget = self._budget
        evicted: list[tuple[int, bool]] = []

        def settle() -> None:
            while len(table) > budget:
                for victim in table:
                    if victim not in pins:
                        break
                else:   # all pinned: overrun, the pinned gauge shows why
                    return
                del table[victim]
                evicted.append((victim, victim in stale))
                stale.discard(victim)

        if len(table) > budget:     # release_pins: the pins were why
            settle()
        faults = 0
        for page in pages:
            if page in table:
                del table[page]    # refresh recency: move to the newest end
                table[page] = None
            else:
                table[page] = None
                faults += 1
                settle()
            if dirty:
                stale.add(page)
        if faults or evicted:
            self._m_fault.inc(faults)
            self._m_evict.inc(len(evicted))
            self._g_resident.set(len(table))
        return evicted

    def _drop(self, evicted) -> None:
        """Write back the dirty ones of a walk's victims (``flush``: of
        the dirty set) and unmap those not faulted back in since."""
        if not evicted:
            return
        buf, table = self.arena.buf, self._resident
        written = sorted(page for page, was_dirty in evicted if was_dirty)
        self._by_runs(written, buf.flush)
        self._m_writeback.inc(len(written))
        if hasattr(mmap, "MADV_DONTNEED"):
            self._by_runs(
                sorted(page for page, _ in evicted if page not in table),
                lambda *extent: buf.madvise(mmap.MADV_DONTNEED, *extent))

    def _by_runs(self, pages, call) -> None:
        """``call(offset, length)`` once per run of adjacent pages in
        ascending ``pages``, on the run's system-page-aligned extent.

        ``msync``/``madvise`` need offsets aligned to the OS page; when
        the logical page is smaller the extent may cover neighbours —
        they simply refault on next touch.  Errors are ignored: residency
        is a hint, and the OS syncs the shared mapping at close time.
        """
        gran = mmap.ALLOCATIONGRANULARITY
        runs: list[list[int]] = []
        for page in pages:
            if runs and page <= runs[-1][1] + 1:
                runs[-1][1] = page
            else:
                runs.append([page, page])
        for first, last in runs:
            start = first * self._page // gran * gran
            end = ((last + 1) * self._page + gran - 1) // gran * gran
            try:
                call(start, min(self._size, end) - start)
            except (OSError, ValueError):
                pass

    def _range_pages(self, start: int, end: int) -> range:
        if end <= start:
            return range(0)
        return range(start // self._page, (end - 1) // self._page + 1)

    def span_pages(self, starts, limits) -> np.ndarray:
        """Sorted distinct pages under the non-empty spans (the interior
        pages of a page-crossing span included): +1 at each span's first
        page, -1 past its last, and the pages where the running sum is
        positive."""
        nonempty = limits > starts
        if not nonempty.all():
            starts, limits = starts[nonempty], limits[nonempty]
        if not len(starts):
            return np.empty(0, dtype=np.int64)
        first = starts // self._page
        last = (limits - 1) // self._page
        low = int(first.min())
        width = int(last.max()) - low + 2
        cover = np.bincount(first - low, minlength=width)
        cover -= np.bincount(last - (low - 1), minlength=width)
        return np.flatnonzero(np.cumsum(cover)) + low

    # -- TrunkStorage API -------------------------------------------------

    def read(self, start: int, end: int) -> bytes:
        evicted = self._walk(self._range_pages(start, end))
        data = self.arena.buf[start:end]
        self._drop(evicted)
        return data

    def write(self, start: int, data) -> None:
        end = start + len(data)
        evicted = self._walk(self._range_pages(start, end), dirty=True)
        self.arena.buf[start:end] = data
        self._drop(evicted)

    def view(self, start: int, end: int) -> memoryview:
        # The view is writable, so conservatively dirty its pages; they
        # stay pinned against eviction until the next epoch bump so the
        # holder of the view never races a writeback.
        pages = self._range_pages(start, end)
        evicted = self._walk(pages, dirty=True)
        for page in pages:
            self._pins[page] = self._pins.get(page, 0) + 1
        self._g_pinned.set(len(self._pins))
        view = memoryview(self.arena.buf)[start:end]
        self._drop(evicted)
        return view

    def open_spans(self, starts, limits, pages=None, buffer=None, at=0):
        """Copy ``pages`` (:meth:`span_pages` of the spans) end to end
        into rows ``at`` onward of ``buffer`` (a flat ``uint8`` array of
        whole pages; a fresh one of its own when None) in one walk, one
        copy and one drop, and rebase the spans into it: a span keeps
        its offset in its first page, which sits at that page's row; a
        page-crossing span's pages stay adjacent."""
        page = self._page
        if pages is None:
            pages = self.span_pages(starts, limits)
        if buffer is None:
            buffer = np.empty(len(pages) * page, dtype=np.uint8)
        rows = buffer[at * page:(at + len(pages)) * page].reshape(-1, page)
        evicted = self._walk(pages.tolist())
        # "clip" (the pages are in range) lets take write into ``rows``
        # directly; the default mode copies through a temporary
        np.take(self.as_ndarray().reshape(-1, page), pages, axis=0,
                out=rows, mode="clip")
        self._drop(evicted)
        first = starts // page
        shift = (np.searchsorted(pages, first) + at - first) * page
        # an empty span may sit on no page of the batch: park it at 0
        shift = np.where(limits > starts, shift, -starts)
        return buffer, starts + shift, limits + shift

    def release_pins(self) -> None:
        if self._pins:
            self._pins.clear()
            self._g_pinned.set(0)
            self._drop(self._walk())

    def flush(self) -> int:
        written = len(self._dirty)
        self._drop([(page, True) for page in self._dirty])
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
