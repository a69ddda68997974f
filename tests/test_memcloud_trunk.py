"""Tests for memory trunks: circular allocation, defrag, reservation."""

import numpy as np
import pytest

from repro.config import ClusterConfig, MemoryParams
from repro.errors import (CellLockedError, CellNotFoundError, StaleSpanError,
                          TrunkFullError)
from repro.memcloud.directory import SpanDirectory
from repro.memcloud.trunk import CELL_HEADER_BYTES, MemoryTrunk
from repro.obs import MetricsRegistry

from ._images import trunk_from_bytes
from ._spans import payloads, stale, trunk_spans


def make_trunk(trunk_size=64 * 1024, **kwargs) -> MemoryTrunk:
    params = MemoryParams(trunk_size=trunk_size, page_size=1024, **kwargs)
    return MemoryTrunk(0, params)


def make_paged_trunk(trunk_size=64 * 1024, page_budget=4,
                     **kwargs) -> MemoryTrunk:
    params = MemoryParams(trunk_size=trunk_size, page_size=1024,
                          storage="paged", page_budget=page_budget, **kwargs)
    return MemoryTrunk(0, params, registry=MetricsRegistry())


class TestBasicOps:
    def test_put_get(self):
        trunk = make_trunk()
        trunk.put(1, b"alpha")
        assert trunk.get(1) == b"alpha"

    def test_get_missing_raises(self):
        trunk = make_trunk()
        with pytest.raises(CellNotFoundError):
            trunk.get(404)

    def test_overwrite_same_size_in_place(self):
        trunk = make_trunk()
        trunk.put(1, b"aaaa")
        stats_before = trunk.stats()
        trunk.put(1, b"bbbb")
        assert trunk.get(1) == b"bbbb"
        assert trunk.stats().garbage_bytes == stats_before.garbage_bytes

    def test_shrink_in_place(self):
        trunk = make_trunk()
        trunk.put(1, b"a" * 100)
        trunk.put(1, b"b" * 10)
        assert trunk.get(1) == b"b" * 10

    def test_grow_relocates_and_reserves(self):
        trunk = make_trunk()
        trunk.put(1, b"a" * 10)
        trunk.put(1, b"b" * 100)  # outgrows slot -> relocation
        assert trunk.get(1) == b"b" * 100
        stats = trunk.stats()
        assert stats.relocations == 1
        # reservation_factor 2.0: new slot reserves ~200 bytes
        assert stats.reserved_bytes >= CELL_HEADER_BYTES + 200

    def test_remove(self):
        trunk = make_trunk()
        trunk.put(1, b"x")
        trunk.remove(1)
        assert 1 not in trunk
        with pytest.raises(CellNotFoundError):
            trunk.get(1)

    def test_remove_missing_raises(self):
        trunk = make_trunk()
        with pytest.raises(CellNotFoundError):
            trunk.remove(9)

    def test_len_and_uids(self):
        trunk = make_trunk()
        for uid in (5, 6, 7):
            trunk.put(uid, b"v")
        assert len(trunk) == 3
        assert sorted(trunk.uids()) == [5, 6, 7]

    def test_empty_payload(self):
        trunk = make_trunk()
        trunk.put(1, b"")
        assert trunk.get(1) == b""
        assert trunk.size_of(1) == 0

    def test_resize_grow_and_shrink(self):
        trunk = make_trunk()
        trunk.put(1, b"abc")
        trunk.resize(1, 6, fill=0)
        assert trunk.get(1) == b"abc\x00\x00\x00"
        trunk.resize(1, 2)
        assert trunk.get(1) == b"ab"

    def test_resize_negative_raises(self):
        trunk = make_trunk()
        trunk.put(1, b"abc")
        with pytest.raises(ValueError):
            trunk.resize(1, -1)


class TestZeroCopyViews:
    def test_view_matches_payload(self):
        trunk = make_trunk()
        trunk.put(1, b"zero-copy")
        view = trunk.get_view(1)
        assert bytes(view) == b"zero-copy"
        view.release()

    def test_view_is_writable_in_place(self):
        trunk = make_trunk()
        trunk.put(1, b"abcd")
        view = trunk.get_view(1)
        view[0] = ord("Z")
        view.release()
        assert trunk.get(1) == b"Zbcd"


class TestCircularAllocation:
    def test_fills_then_wraps_after_removal(self):
        trunk = make_trunk(trunk_size=4096)
        # Fill most of the trunk.
        payload = b"x" * 200
        uids = []
        uid = 0
        while True:
            try:
                trunk.put(uid, payload)
            except TrunkFullError:
                break
            uids.append(uid)
            uid += 1
        assert len(uids) > 10
        # Free the first half and keep allocating: the head must wrap
        # (possibly via a defrag pass) without corrupting survivors.
        for victim in uids[: len(uids) // 2]:
            trunk.remove(victim)
        survivors = uids[len(uids) // 2:]
        for fresh in range(1000, 1000 + len(uids) // 3):
            trunk.put(fresh, payload)
        for survivor in survivors:
            assert trunk.get(survivor) == payload

    def test_oversized_cell_rejected(self):
        trunk = make_trunk(trunk_size=4096)
        with pytest.raises(TrunkFullError, match="exceeds trunk size"):
            trunk.put(1, b"x" * 8192)

    def test_full_trunk_raises_after_defrag_attempt(self):
        trunk = make_trunk(trunk_size=2048)
        with pytest.raises(TrunkFullError):
            for uid in range(100):
                trunk.put(uid, b"y" * 128)
        # Data inserted before the failure is intact.
        assert trunk.get(0) == b"y" * 128


class TestDefragmentation:
    def test_defrag_reclaims_garbage(self):
        trunk = make_trunk(defrag_trigger_ratio=1.0)  # manual-only
        for uid in range(20):
            trunk.put(uid, b"d" * 64)
        for uid in range(0, 20, 2):
            trunk.remove(uid)
        assert trunk.stats().garbage_bytes > 0
        assert trunk.defragment()
        stats = trunk.stats()
        assert stats.garbage_bytes == 0
        for uid in range(1, 20, 2):
            assert trunk.get(uid) == b"d" * 64

    def test_defrag_releases_reservations(self):
        trunk = make_trunk(defrag_trigger_ratio=1.0)
        trunk.put(1, b"a" * 10)
        trunk.put(1, b"b" * 100)  # reserved ~200
        trunk.defragment()
        stats = trunk.stats()
        assert stats.reserved_bytes == stats.live_bytes

    def test_defrag_decommits_pages(self):
        trunk = make_trunk(defrag_trigger_ratio=1.0)
        for uid in range(30):
            trunk.put(uid, b"p" * 256)
        committed_before = trunk.stats().committed_bytes
        for uid in range(29):
            trunk.remove(uid)
        trunk.defragment()
        assert trunk.stats().committed_bytes < committed_before

    def test_defrag_aborts_on_pinned_cell(self):
        trunk = make_trunk(defrag_trigger_ratio=1.0)
        trunk.put(1, b"pinned")
        trunk.put(2, b"other")
        trunk.remove(2)
        lock = trunk.lock_of(1)
        lock.acquire()
        try:
            assert trunk.defragment() is False
        finally:
            lock.release()
        assert trunk.defragment() is True

    def test_auto_defrag_triggers_on_ratio(self):
        # Keep cell 0 alive so the tail cannot advance: the garbage is
        # scattered *between* live cells and only compaction reclaims it.
        trunk = make_trunk(trunk_size=8192, defrag_trigger_ratio=0.2)
        for uid in range(8):
            trunk.put(uid, b"z" * 512)
        for uid in range(1, 7):
            trunk.remove(uid)
        assert trunk.stats().defrag_passes >= 1

    def test_front_garbage_reclaimed_without_defrag(self):
        # Garbage immediately behind the tail is the cheap case: the
        # trigger ratio is hit but circular reclamation absorbs it and no
        # compaction pass runs.
        trunk = make_trunk(trunk_size=8192, defrag_trigger_ratio=0.2)
        for uid in range(8):
            trunk.put(uid, b"z" * 512)
        for uid in range(6):
            trunk.remove(uid)
        stats = trunk.stats()
        assert stats.defrag_passes == 0
        assert stats.tail_advances >= 1
        assert stats.garbage_bytes == 0

    def test_utilization_metric(self):
        trunk = make_trunk()
        trunk.put(1, b"u" * 100)
        assert 0.0 < trunk.stats().utilization <= 1.0


class TestLocking:
    def test_update_blocked_by_held_lock(self):
        trunk = make_trunk()
        trunk.put(1, b"v1")
        lock = trunk.lock_of(1)
        lock.acquire()
        try:
            with pytest.raises(CellLockedError):
                trunk.put(1, b"v2-blocked")
        finally:
            lock.release()
        trunk.put(1, b"v2")
        assert trunk.get(1) == b"v2"

    def test_remove_blocked_by_held_lock(self):
        trunk = make_trunk()
        trunk.put(1, b"v")
        lock = trunk.lock_of(1)
        lock.acquire()
        try:
            with pytest.raises(CellLockedError):
                trunk.remove(1)
        finally:
            lock.release()


    @pytest.mark.parametrize("operation", [
        lambda trunk: trunk.put(1, b"v2"),
        lambda trunk: trunk.remove(1),
        lambda trunk: trunk.resize(1, 1),
    ], ids=["put", "remove", "resize"])
    def test_trunk_lock_sites_spin_the_configured_budget(self, operation):
        """``spinlock_budget`` bounds the trunk's own ``with lock:``
        sites, not only the accessors that pass it to ``acquire``."""
        trunk = make_trunk(spinlock_budget=1)
        trunk.put(1, b"v1")
        trunk.lock_of(1).acquire()
        with pytest.raises(CellLockedError, match="spin budget 1 exhausted"):
            operation(trunk)
        assert trunk.get(1) == b"v1"


class TestPersistenceHooks:
    def test_dumped_cells_bulk_load(self):
        source = make_trunk()
        for uid in range(10):
            source.put(uid, bytes([uid]) * uid)
        target = make_trunk()
        target.bulk_put(*zip(*source.dump_cells()))
        for uid in range(10):
            assert target.get(uid) == bytes([uid]) * uid


class TestPagedSpanStaleness:
    """Span staleness under PagedStorage, mirroring the resident-epoch
    tests: a pinned span whose page is invalidated by defrag/mutation
    must fail ``assert_fresh`` instead of silently reading moved bytes.
    """

    def test_defrag_staleness_detected(self):
        trunk = make_paged_trunk()
        try:
            for uid in range(8):
                trunk.put(uid, bytes([uid]) * 200)
            for uid in range(0, 8, 2):
                trunk.remove(uid)
            uids = np.array([1, 3, 5, 7], dtype=np.uint64)
            spans = trunk_spans(trunk, uids)
            [fetched] = spans.epochs
            assert fetched == trunk.mutation_epoch
            assert trunk.defragment()
            assert trunk.mutation_epoch != fetched
        finally:
            trunk.storage.close()

    def test_mutation_staleness_detected(self):
        trunk = make_paged_trunk()
        try:
            trunk.put(1, b"a" * 100)
            spans = trunk_spans(trunk, np.array([1], dtype=np.uint64))
            trunk.put(2, b"b" * 100)  # any structural mutation
            assert stale(spans) == [trunk.trunk_id]
        finally:
            trunk.storage.close()

    def test_mutation_releases_view_pins(self):
        """A span read copies and pins nothing; a view's pins stay
        across it and go with the next structural mutation."""
        trunk = make_paged_trunk(page_budget=16)
        try:
            trunk.put(1, b"a" * 100)
            spans = trunk_spans(trunk, np.array([1], dtype=np.uint64))
            assert trunk.storage.pinned_pages == 0
            assert payloads(spans) == [b"a" * 100]
            with trunk.get_view(1):
                assert trunk.storage.pinned_pages >= 1
            trunk_spans(trunk, np.array([1], dtype=np.uint64))
            assert trunk.storage.pinned_pages >= 1     # still the view's
            trunk.put(2, b"b" * 100)
            assert trunk.storage.pinned_pages == 0
        finally:
            trunk.storage.close()

    def test_cloud_span_group_raises_after_paged_defrag(self):
        from repro.memcloud.cloud import MemoryCloud
        cfg = ClusterConfig(machines=2, trunk_bits=2, memory=MemoryParams(
            trunk_size=64 * 1024, storage="paged", page_size=1024,
            page_budget=4))
        cloud = MemoryCloud(cfg, MetricsRegistry())
        try:
            uids = np.arange(100, dtype=np.uint64)
            cloud.bulk_put(uids, [bytes([i]) * 150 for i in range(100)],
                           presize=False)
            read = cloud.bulk_get_spans(uids[:20])
            for uid in uids[:50].tolist():
                cloud.remove(int(uid))
            cloud.defragment_all()
            with pytest.raises(StaleSpanError):
                read.assert_fresh()
        finally:
            cloud.release_arenas()


class TestSpanCacheInvalidation:
    """Regression: the span directory's mirror of a trunk must go stale
    on *every* path that changes cell layout — not only scalar
    structural mutations.  Checkpoint restore and the parallel-load
    adoption path both went around put().  (The mirror replaced the
    per-trunk span cache these tests were written for; what they hold
    is unchanged: a read after the adoption sees the adopted layout.)
    """

    def _primed_directory(self, trunk):
        """A directory holding a current mirror of ``trunk``, and the
        counter of regions it has recopied."""
        registry = MetricsRegistry()
        directory = SpanDirectory(1, registry)
        trunk_spans(trunk, np.array(sorted(trunk.uids()), dtype=np.uint64),
                    directory)
        refreshed = registry.counter("memcloud.directory.refreshed")
        assert refreshed.value == 1
        return directory, refreshed

    def test_adopt_image_state_drops_span_cache_and_bumps_epoch(self):
        source = make_trunk()
        for uid in range(5):
            source.put(uid, bytes([uid]) * 50)
        state = source.freeze_image_state()
        target = make_trunk()
        directory, refreshed = self._primed_directory(target)
        epoch_before = target.mutation_epoch
        target.adopt_image_state(state)
        assert target.mutation_epoch > epoch_before
        spans = trunk_spans(target, np.arange(5, dtype=np.uint64), directory)
        assert payloads(spans) == [bytes([uid]) * 50 for uid in range(5)]
        assert refreshed.value == 2
        assert dict(target.dump_cells()) == dict(source.dump_cells())

    def test_restored_index_equals_a_scalar_set_rebuild(self):
        """The restore rebuilds the index in one vectorized pass: same
        keys, values, length and capacity as one ``set`` per cell, and
        — the index is rebuilt, not replayed — probe counters at zero."""
        from repro.memcloud import persistence
        from repro.memcloud.hashtable import TrunkHashTable
        source = make_trunk(trunk_size=1 << 20)
        rng = np.random.default_rng(5)
        uids = rng.choice(2**62, size=3000, replace=False).tolist()
        source.bulk_put(uids, [b"p" * (i % 40) for i in range(len(uids))])
        for uid in uids[::7]:
            source.remove(uid)
        for uid in uids[1::7]:
            source.put(uid, b"grown" * 30)      # relocations, free slots
        target = make_trunk(trunk_size=1 << 20)
        assert target._index.get(uids[0]) is None
        assert target._index.lookup_count == 1   # a miss on the pristine trunk
        restored = trunk_from_bytes(
            persistence.trunk_to_bytes(source), target)
        assert restored == len(source)
        state = source.freeze_image_state()
        rebuilt = TrunkHashTable()
        rebuilt.reserve(len(state["cells"]))
        for slot, uid in enumerate(state["cells"][:, 0].tolist()):
            rebuilt.set(uid, slot)
        index = target._index
        assert dict(index.items()) == dict(rebuilt.items())
        assert (len(index), index.capacity) == (len(rebuilt),
                                                rebuilt.capacity)
        assert (index.probe_count, index.lookup_count) == (0, 0)
        assert dict(target.dump_cells()) == dict(source.dump_cells())
        assert target.stats() == source.stats()

    def test_restore_trunk_stales_old_spans_and_keeps_epoch_monotonic(self):
        from repro.compute.checkpoint import CheckpointManager
        from repro.memcloud.cloud import MemoryCloud
        from repro.tfs import TrinityFileSystem
        cfg = ClusterConfig(machines=2, trunk_bits=2)
        cloud = MemoryCloud(cfg, MetricsRegistry())
        uids = np.arange(60, dtype=np.uint64)
        cloud.bulk_put(uids, [bytes([i]) * 40 for i in range(60)],
                       presize=False)
        read = cloud.bulk_get_spans(uids)
        epoch_before = cloud.mutation_epoch()
        manager = CheckpointManager(TrinityFileSystem(), job="trunkreg")
        manager.save_cloud(1, cloud)
        manager.load_cloud(1, cloud)
        # The cloud-wide epoch may never go backwards across a restore:
        # serve-layer caches stamped before it must not validate after.
        assert cloud.mutation_epoch() > epoch_before
        # An outstanding read located cells of the *replaced* trunks and
        # must fail freshness rather than silently pass forever.
        assert stale(read) == read.touched
        with pytest.raises(StaleSpanError):
            read.assert_fresh()
        assert cloud.bulk_get(uids) == [bytes([i]) * 40 for i in range(60)]

    def test_paged_checkpoint_restart_round_trip(self):
        from repro.compute.checkpoint import CheckpointManager
        from repro.memcloud.cloud import MemoryCloud
        from repro.tfs import TrinityFileSystem
        cfg = ClusterConfig(machines=2, trunk_bits=2, memory=MemoryParams(
            trunk_size=64 * 1024, storage="paged", page_size=1024,
            page_budget=4))
        cloud = MemoryCloud(cfg, MetricsRegistry())
        try:
            uids = np.arange(120, dtype=np.uint64)
            values = [bytes([i]) * (30 + i % 90) for i in range(120)]
            cloud.bulk_put(uids, values, presize=False)
            for uid in uids[:30].tolist():
                cloud.remove(int(uid))
            cloud.defragment_all()
            stats_before = {t: cloud.trunks[t].stats() for t in cloud.trunks}
            manager = CheckpointManager(TrinityFileSystem(), job="pagedck")
            manager.save_cloud(3, cloud)
            assert manager.load_cloud(3, cloud) == 90
            # Page-image restore is exact: bytes *and* allocator stats.
            assert cloud.bulk_get(uids[30:]) == values[30:]
            for trunk_id, stats in stats_before.items():
                assert cloud.trunks[trunk_id].stats() == stats
        finally:
            cloud.release_arenas()
