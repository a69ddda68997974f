"""Trunk storage tiers: resident arenas vs out-of-core paged files.

A :class:`~repro.memcloud.trunk.MemoryTrunk` is an allocator over one
contiguous byte range; *where those bytes live* is this module's job.
Every storage is a range of one :class:`~repro.memcloud.arena.Arena`
(one mmap); the two tiers differ in its backing and in residency policy:

* :class:`ResidentStorage` — a slice of a process-private anonymous
  arena: thin slices, and nothing can ever be evicted.
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

A batched read (``MemoryCloud.bulk_get_spans``) copies into one private
buffer: from a resident cloud's one arena the 8-byte words under all
its spans (:func:`word_spans`) in one ``take``, from a paged trunk the
pages under its spans (:meth:`PagedStorage.take`) — whole pages, as a
buffer pool would read them, in one walk, one copy and one drop.
Nothing of the buffer aliases a mapping, so nothing needs to stay
resident for it.  Only a writable ``view`` (``MemoryCloud.pin``) pins
its pages, as reference counts dropped on the trunk's next structural
epoch bump (any mutation).

Everything is observable: ``trunk.page.{fault,evict,writeback}.total``
counters plus ``trunk.page.{resident,pinned}`` gauges per trunk.
"""

from __future__ import annotations

import mmap
import os
import tempfile

import numpy as np

from ..errors import MemoryCloudError
from ..obs import get_registry
from ..utils.arrays import range_indices
from .arena import Arena, slice_stride

# A trunk writes a fresh run through its storage in chunks of at most
# this many bytes (``MemoryTrunk._write_run``): a bigger-than-RAM load
# never builds its whole run in RAM, and a paged trunk walks, copies and
# drops once per chunk.
WRITE_CHUNK_BYTES = 1 << 20


class TrunkStorage:
    """Byte backing for one memory trunk (the storage-tier seam): the
    ``size`` bytes of ``arena`` from ``base``.

    The methods a residency policy hooks into default to having none
    (plain slices, nothing to account, pin or flush).  The trunk holds
    its own mutex; storages are not thread-safe on their own and every
    call below happens under the trunk lock.
    """

    def __init__(self, arena: Arena, base: int, size: int):
        self.arena = arena
        self.base = base
        self._size = size
        self._array: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    def read(self, start: int, end: int) -> bytes:
        """Copy out ``[start, end)``."""
        return self.arena.buf[self.base + start:self.base + end]

    def write(self, start: int, data) -> None:
        """Write ``data`` at ``start``."""
        start += self.base
        self.arena.buf[start:start + len(data)] = data

    def view(self, start: int, end: int) -> memoryview:
        """Writable zero-copy view of ``[start, end)`` (cell pinning)."""
        return memoryview(self.arena.buf)[self.base + start:self.base + end]

    def as_ndarray(self) -> np.ndarray:
        """The whole address space as one ``uint8`` array."""
        if self._array is None:
            self._array = np.frombuffer(self.arena.buf, dtype=np.uint8,
                                        count=self._size, offset=self.base)
        return self._array

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


class _Released:
    """A closed resident storage's arena: its slice may be a successor's."""

    @property
    def buf(self):
        raise MemoryCloudError("arena used after close()")


_RELEASED = _Released()


class ResidentStorage(TrunkStorage):
    """The whole trunk stays in RAM with no residency policy: the slice
    of ``arena`` from ``base`` (the cloud's), else an arena of its own.

    Reads and writes are plain slices, there is nothing to pin.
    """

    def __init__(self, size: int, arena: Arena | None = None, base: int = 0):
        if arena is None:       # a one-slice arena, as a cloud's would be
            arena = Arena(slice_stride(size))
        super().__init__(arena, base, size)

    def close(self) -> None:
        """Give the slice's pages back (a successor on it reads zeros)
        and let go of the arena, unmapped with its last holder."""
        arena, self.arena, self._array = self.arena, _RELEASED, None
        if arena is not _RELEASED:
            arena.buf.madvise(mmap.MADV_DONTNEED, self.base, self._size)


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

    def __init__(self, trunk_id: int, params, registry=None,
                 spill_dir=None):
        self.trunk_id = trunk_id
        self._page = params.page_size
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
        super().__init__(Arena(params.trunk_size, path=path), 0,
                         params.trunk_size)
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

    def take(self, units, out) -> None:
        """Copy the pages ``units`` (:meth:`span_pages`) into ``out``,
        one page a row, in one walk, one copy and one drop."""
        evicted = self._walk(units.tolist())
        self.as_ndarray().reshape(-1, self._page).take(
            units, axis=0, out=out, mode="clip")
        self._drop(evicted)

    def rebase(self, starts, limits, pages, at: int) -> tuple:
        """``(starts, limits)`` of the spans in a copy of ``pages`` that
        starts at row ``at``: a span keeps its offset in its first page,
        which sits at that page's row; a page-crossing span's pages stay
        adjacent."""
        first = starts // self._page
        shift = (np.searchsorted(pages, first) + at - first) * self._page
        # an empty span may sit on no page of the batch: park it at 0
        shift = np.where(limits > starts, shift, -starts)
        return starts + shift, limits + shift

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


def word_spans(starts, limits) -> tuple:
    """``(words, starts, limits)``: the 8-byte words under the spans, end
    to end, and each span rebased into a copy of them.  The bytes a word
    brings along are never read as data: decoders stop at a limit."""
    first = starts >> 3
    count = ((limits + 7) >> 3) - first
    begins = ((np.cumsum(count) - count) << 3) + (starts & 7)
    return range_indices(first, count), begins, begins + (limits - starts)


def make_trunk_storage(trunk_id: int, params, registry=None,
                       spill_dir=None, arena: Arena | None = None,
                       base: int = 0) -> TrunkStorage:
    """Build the storage tier a trunk's params ask for; ``spill_dir``
    (default: the params') is where a paged trunk's page file goes, and
    a resident trunk is the slice of ``arena`` at ``base``, if given."""
    if params.storage == "paged":
        return PagedStorage(trunk_id, params, registry=registry,
                            spill_dir=spill_dir or params.spill_dir)
    return ResidentStorage(params.trunk_size, arena, base)
