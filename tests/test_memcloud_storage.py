"""The paged tier's page table: one walk per batch, walk → access → drop.

``PagedStorage`` accounts a multi-page access as one unit of page-table
work.  These tests hold that walk to the per-page chain it replaced
(``tests/_pages.py``), hold the page arithmetic and a batched read's
whole-page copy to their slow references, and pin what the ordering buys:
the page budget bounds what is *mapped*, and a page written inside a
batch wider than the budget is written back with its new bytes.
"""

from __future__ import annotations

import mmap
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemoryParams
from repro.memcloud.storage import WRITE_CHUNK_BYTES, PagedStorage
from repro.memcloud.trunk import CELL_HEADER_BYTES, MemoryTrunk
from repro.obs import MetricsRegistry
from repro.utils.arrays import gather_ranges

from ._pages import PageTableModel
from ._spans import copy_spans, payloads, trunk_spans

PAGE = 64
OS_PAGE = mmap.ALLOCATIONGRANULARITY    # msync/madvise extents align to it


def make_storage(pages: int, budget: int, page: int = PAGE) -> PagedStorage:
    params = MemoryParams(trunk_size=pages * page, page_size=page,
                          storage="paged", page_budget=budget)
    return PagedStorage(0, params, registry=MetricsRegistry())


# -- the batch walk against the per-page chain ------------------------------

# A span as (page, offset in page, length): offsets and lengths sit on
# and around the page edges — zero-length, ending exactly on an edge,
# one byte over, several pages wide.
OFFSET = st.sampled_from([0, 1, 17, PAGE - 1])
LENGTH = st.sampled_from([0, 1, PAGE - 17, PAGE - 1, PAGE, PAGE + 1,
                          3 * PAGE + 5, 6 * PAGE])
SPAN = st.tuples(st.integers(0, 15), OFFSET, LENGTH)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("read"), SPAN),
        st.tuples(st.just("write"), SPAN),
        st.tuples(st.just("view"), SPAN),
        st.tuples(st.just("copy_spans"), st.lists(SPAN, max_size=12)),
        st.tuples(st.just("release")),
        st.tuples(st.just("flush")),
    ),
    max_size=30,
)


def clip(span, size: int) -> tuple[int, int]:
    page, offset, length = span
    start = min(page * PAGE + offset, size)
    return start, min(start + length, size)


class Harness:
    """One paged storage and its model, stepped together."""

    def __init__(self, pages: int, budget: int):
        self.size = pages * PAGE
        self.storage = make_storage(pages, budget)
        self.model = PageTableModel(PAGE, budget)
        self.shadow = bytearray(self.size)
        self.victims: list[int] = []
        self.stamp = 0
        walk = self.storage._walk

        def recording_walk(*args, **kwargs):
            evicted = walk(*args, **kwargs)
            self.victims += [page for page, _ in evicted]
            return evicted
        self.storage._walk = recording_walk

    def fresh_bytes(self, length: int) -> bytes:
        self.stamp += 1
        return bytes((self.stamp * 31 + i) % 251 for i in range(length))

    def step(self, op) -> None:
        storage, model, shadow = self.storage, self.model, self.shadow
        kind = op[0]
        if kind == "read":
            start, end = clip(op[1], self.size)
            model.read(start, end)
            assert storage.read(start, end) == bytes(shadow[start:end])
        elif kind == "write":
            start, end = clip(op[1], self.size)
            data = self.fresh_bytes(end - start)
            shadow[start:end] = data
            model.write(start, len(data))
            storage.write(start, data)
        elif kind == "view":
            start, end = clip(op[1], self.size)
            data = self.fresh_bytes(end - start)
            shadow[start:end] = data
            model.view(start, end)
            with storage.view(start, end) as view:
                view[:] = data
        elif kind == "copy_spans":
            bounds = [clip(span, self.size) for span in op[1]]
            starts = np.array([b[0] for b in bounds], dtype=np.int64)
            limits = np.array([b[1] for b in bounds], dtype=np.int64)
            model.copy_spans(starts.tolist(), limits.tolist())
            buffer, lo, hi = copy_spans(storage, starts, limits)
            for (start, end), a, b in zip(bounds, lo.tolist(), hi.tolist()):
                assert bytes(buffer[a:b]) == bytes(shadow[start:end])
            assert not np.shares_memory(buffer, storage.as_ndarray())
            pages = model.span_pages(starts.tolist(), limits.tolist())
            assert len(buffer) == len(pages) * PAGE
        elif kind == "release":
            model.release_pins()
            storage.release_pins()
        else:
            assert storage.flush() == model.flush()
        self.check()

    def check(self) -> None:
        storage, model = self.storage, self.model
        assert list(storage._resident) == list(model.order)
        assert storage._dirty == model.dirty
        assert storage._pins == model.pins
        assert self.victims == model.victims
        assert storage._m_fault.value == model.faults
        assert storage._m_evict.value == model.evictions
        assert storage._m_writeback.value == model.writebacks
        assert storage._g_resident.value == len(model.order)
        assert storage._g_pinned.value == len(model.pins)


class TestBatchWalkAgainstPerPageChain:

    @settings(max_examples=200, deadline=None)
    @given(pages=st.integers(8, 16), budget=st.integers(1, 4), ops=OPS)
    def test_same_table_same_victims_same_totals(self, pages, budget, ops):
        harness = Harness(pages, budget)
        try:
            for op in ops:
                harness.step(op)
        finally:
            harness.storage.close()

    def test_all_pinned_overrun_then_release(self):
        # A page pinned while the table was full of pins went straight
        # back out; touched again it has no unpinned page to displace,
        # so the table overruns the budget until the pins go.
        harness = Harness(8, budget=2)
        try:
            for page in (0, 1, 2):
                harness.step(("view", (page, 0, PAGE)))
            assert list(harness.storage._resident) == [0, 1]
            harness.step(("view", (2, 0, PAGE)))
            assert list(harness.storage._resident) == [0, 1, 2]
            harness.step(("copy_spans", [(5, 0, 10), (6, 0, 10)]))
            assert list(harness.storage._resident) == [0, 1, 2]
            assert harness.victims[-2:] == [5, 6]
            harness.step(("release",))
            assert list(harness.storage._resident) == [1, 2]
        finally:
            harness.storage.close()

    def test_batch_wider_than_budget(self):
        harness = Harness(16, budget=3)
        try:
            harness.step(("write", (0, 0, 6 * PAGE)))
            harness.step(("write", (2, 1, 6 * PAGE)))
            harness.step(("copy_spans", [(p, 17, 1) for p in range(10)]))
            harness.step(("read", (1, 0, 6 * PAGE)))
            harness.step(("flush",))
        finally:
            harness.storage.close()


# -- a batch's pages by arithmetic -------------------------------------------

class TestSpanPages:

    @settings(max_examples=200, deadline=None)
    @given(spans=st.lists(SPAN, max_size=40))
    def test_equals_the_set_of_ranges(self, spans):
        storage = make_storage(16, 2)
        try:
            bounds = [clip(span, 16 * PAGE) for span in spans]
            starts = [b[0] for b in bounds]
            limits = [b[1] for b in bounds]
            reference = PageTableModel(PAGE, 2).span_pages(starts, limits)
            pages = storage.span_pages(np.array(starts, dtype=np.int64),
                                       np.array(limits, dtype=np.int64))
            assert pages.tolist() == reference
        finally:
            storage.close()

    def test_interior_pages_of_a_crossing_span_are_included(self):
        storage = make_storage(16, 2)
        try:
            def pages(starts, limits):
                return storage.span_pages(
                    np.array(starts, dtype=np.int64),
                    np.array(limits, dtype=np.int64)).tolist()
            assert pages([PAGE - 1, 9 * PAGE],
                         [4 * PAGE, 9 * PAGE]) == [0, 1, 2, 3]
            # ends exactly on an edge: the next page is not touched
            assert pages([0], [PAGE]) == [0]
            assert pages([], []) == []
        finally:
            storage.close()


# -- a batched read copies whole pages ------------------------------------------

class TestPageCopy:

    PAGE = OS_PAGE

    def storage(self):
        storage = make_storage(64, budget=2, page=self.PAGE)
        arena = storage.as_ndarray()
        arena[:] = np.random.default_rng(5).integers(
            0, 256, len(arena), dtype=np.uint8)
        return storage, arena.copy()

    @pytest.mark.parametrize("shape", ["dense", "sparse", "crossing"])
    def test_copy_holds_the_mapping_bytes(self, shape):
        storage, expected = self.storage()
        try:
            page = self.PAGE
            if shape == "dense":        # many cells on a few adjacent pages
                starts = np.arange(100, 100 + 300 * 40, 40, dtype=np.int64)
                limits = starts + 30
            elif shape == "sparse":     # one cell per page, every other page
                starts = np.arange(0, 64, 2, dtype=np.int64) * page + 100
                limits = starts + 30
            else:                       # cells across one and two edges
                starts = np.array([page - 10, 9 * page + 5, 30 * page - 1,
                                   5 * page, 5 * page], dtype=np.int64)
                limits = starts + np.array([20, 2 * page, 2, 0, page])
            order = np.random.default_rng(6).permutation(len(starts))
            starts, limits = starts[order], limits[order]
            pages = storage.span_pages(starts, limits)
            packed = gather_ranges(expected, starts, limits - starts)
            # On its own, and into rows 3.. of a read-wide buffer whose
            # other rows belong to other trunks and must stay as they are.
            shared = np.full((len(pages) + 5) * page, 0xAB, dtype=np.uint8)
            for buffer, lo, hi in (
                    copy_spans(storage, starts, limits),
                    copy_spans(storage, starts, limits, buffer=shared, at=3)):
                assert storage.pinned_pages == 0
                assert not np.shares_memory(buffer, storage.as_ndarray())
                assert np.array_equal(gather_ranges(buffer, lo, hi - lo),
                                      packed)
                for a, b, start, limit in zip(lo.tolist(), hi.tolist(),
                                              starts.tolist(),
                                              limits.tolist()):
                    assert 0 <= a <= b <= len(buffer)
                    assert np.array_equal(buffer[a:b], expected[start:limit])
            assert buffer is shared
            assert len(copy_spans(storage, starts, limits)[0]) == (
                len(pages) * page)
            assert (shared[:3 * page] == 0xAB).all()
            assert (shared[(len(pages) + 3) * page:] == 0xAB).all()
        finally:
            storage.close()


# -- walk → access → drop ------------------------------------------------------

class RecordingBuf:
    """The arena's mmap with every slice, ``msync`` and ``madvise``
    logged in order."""

    def __init__(self, buf, log: list):
        self._buf = buf
        self._log = log

    def __getitem__(self, key):
        self._log.append(("read", key.start, key.stop))
        return self._buf[key]

    def __setitem__(self, key, value):
        self._log.append(("write", key.start, key.stop))
        self._buf[key] = value

    def flush(self, offset, length):
        self._log.append(("msync", offset, length))
        return self._buf.flush(offset, length)

    def madvise(self, option, offset, length):
        self._log.append(("madvise", offset, length))
        return self._buf.madvise(option, offset, length)


class RecordingArena:

    def __init__(self, arena, log: list):
        self._arena = arena
        self._log = log

    @property
    def buf(self):
        return RecordingBuf(self._arena.buf, self._log)

    def __getattr__(self, name):
        return getattr(self._arena, name)

    def __len__(self):
        return len(self._arena)


def record(storage: PagedStorage) -> list:
    log: list = []
    storage.arena = RecordingArena(storage.arena, log)
    return log


class TestWalkAccessDrop:

    PAGE = OS_PAGE

    def test_a_wide_write_is_written_back_after_its_bytes_land(self):
        page = self.PAGE
        storage = make_storage(16, budget=4, page=page)
        try:
            log = record(storage)
            data = bytes(range(256)) * (8 * page // 256)
            storage.write(page, data)       # 8 pages under a budget of 4
            kinds = [entry[0] for entry in log]
            assert kinds.index("write") < kinds.index("msync")
            assert kinds.index("write") < kinds.index("madvise")
            # the four pages that went were synced with their new bytes
            # as one run and unmapped as one run; the last four stay
            # resident and dirty
            assert log[1:] == [("msync", page, 4 * page),
                               ("madvise", page, 4 * page)]
            assert storage._m_writeback.value == 4
            assert storage.dirty_pages == 4 and storage.resident_pages == 4
            assert storage.flush() == 4
            assert storage.dirty_pages == 0
            assert log[-1] == ("msync", 5 * page, 4 * page)
            with open(storage.arena.path, "rb") as reopened:
                reopened.seek(page)
                assert reopened.read(len(data)) == data
            assert storage.read(page, page + len(data)) == data
        finally:
            storage.close()

    def test_a_wide_read_drops_after_it_has_read(self):
        page = self.PAGE
        storage = make_storage(16, budget=2, page=page)
        try:
            storage.write(0, b"x" * (6 * page))
            storage.flush()
            log = record(storage)
            assert storage.read(0, 6 * page) == b"x" * (6 * page)
            # clean victims: no msync; pages 0-3, faulted and evicted
            # inside the read, go as one run once it has read them; pages
            # 4 and 5 went first and were faulted back: they stay mapped
            assert log == [("read", 0, 6 * page),
                           ("madvise", 0, 4 * page)]
            assert list(storage._resident) == [4, 5]
        finally:
            storage.close()

    def test_a_streamed_chunk_costs_one_msync_and_one_madvise(self):
        # A trunk's fresh run of two chunks' worth of cells reaches the
        # page file as two writes, each one walk, one copy and one drop.
        page = self.PAGE
        footprint = 1024        # a chunk holds a whole number of cells
        count = 2 * WRITE_CHUNK_BYTES // footprint
        params = MemoryParams(trunk_size=2 * WRITE_CHUNK_BYTES,
                              page_size=page, storage="paged",
                              page_budget=4)
        trunk = MemoryTrunk(0, params, registry=MetricsRegistry())
        storage = trunk.storage
        try:
            log = record(storage)
            payload = b"y" * (footprint - CELL_HEADER_BYTES)
            trunk.bulk_put(list(range(count)), [payload] * count)
            writes = [entry for entry in log if entry[0] == "write"]
            syncs = [entry for entry in log if entry[0] == "msync"]
            drops = [entry for entry in log if entry[0] == "madvise"]
            assert writes == [("write", 0, WRITE_CHUNK_BYTES),
                              ("write", WRITE_CHUNK_BYTES,
                               2 * WRITE_CHUNK_BYTES)]
            assert len(syncs) == len(drops) == 2
            assert storage._m_fault.value == 2 * WRITE_CHUNK_BYTES // page
            assert storage.resident_pages == 4
            assert trunk.get(count - 1) == payload
        finally:
            storage.close()

    def test_victims_in_separate_runs_get_separate_calls(self):
        page = self.PAGE
        storage = make_storage(16, budget=3, page=page)
        try:
            for index in (1, 2, 7):
                storage.write(index * page, b"z" * page)
            log = record(storage)
            storage.read(10 * page, 13 * page)
            assert log == [("read", 10 * page, 13 * page),
                           ("msync", page, 2 * page),
                           ("msync", 7 * page, page),
                           ("madvise", page, 2 * page),
                           ("madvise", 7 * page, page)]
        finally:
            storage.close()


def mapped_kb(path: str) -> int:
    """Rss, in kB, of this process's mappings of ``path``."""
    rss = 0
    inside = False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            fields = line.split()
            if "-" in fields[0] and not fields[0].endswith(":"):
                inside = fields[-1] == path
            elif inside and fields[0] == "Rss:":
                rss += int(fields[1])
    return rss


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"),
                    reason="needs /proc/self/smaps (Linux)")
def test_the_page_budget_bounds_what_is_mapped():
    # The table always said 4 pages; the mapping used to hold every page
    # the load and the read had touched, because pages were dropped
    # before the access that faulted them straight back in.  The bound
    # is the budget plus the kernel's fault-around window, not exact.
    params = MemoryParams(trunk_size=1 << 20, storage="paged",
                          page_size=4096, page_budget=4)
    trunk = MemoryTrunk(0, params, registry=MetricsRegistry())
    try:
        path = trunk.storage.arena.path
        uids = list(range(4400))
        values = [bytes([uid % 251]) * 200 for uid in uids]
        trunk.bulk_put(uids, values)
        live_kb = trunk.stats().live_bytes // 1024
        assert live_kb > 800
        assert trunk.storage.resident_pages == 4
        assert mapped_kb(path) <= live_kb // 4

        spans = trunk_spans(trunk, uids)
        assert payloads(spans) == values
        assert trunk.storage.resident_pages == 4
        assert mapped_kb(path) <= live_kb // 4
        del spans
    finally:
        trunk.storage.close()
