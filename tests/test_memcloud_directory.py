"""The span directory against the scalar store.

``MemoryCloud.bulk_get_spans`` locates a whole window on the cloud's
mirror of every trunk's hash table (``repro.memcloud.directory``).  In
everything that can be observed it has to be a loop of scalar ``get``
calls: the same bytes, the same probe accounting per table, the same id
named when one is missing — and a region is recopied only when its trunk
has changed.  The list prober of ``test_memcloud_hashtable`` is the
oracle for the probing, standing on a copy of each table's slots.
"""

from __future__ import annotations

import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.config import ClusterConfig, MemoryParams
from repro.errors import CellNotFoundError, StaleSpanError
from repro.memcloud import MemoryCloud, persistence
from repro.memcloud.directory import SpanDirectory
from repro.memcloud.hashtable import TrunkHashTable
from repro.obs import MetricsRegistry
from repro.utils.hashing import trunk_of

from ._spans import TableAsTrunk, locate
from .test_memcloud_hashtable import list_prober_of


def make_cloud(storage="resident", trunk_bits=2, page_budget=2, machines=2,
               **kwargs):
    memory = MemoryParams(trunk_size=128 * 1024, page_size=1024,
                          storage=storage, storage_page_size=512,
                          page_budget=page_budget)
    return MemoryCloud(ClusterConfig(machines=machines, trunk_bits=trunk_bits,
                                     memory=memory),
                       MetricsRegistry(), **kwargs)


def probe_counters(cloud) -> list[tuple[int, int]]:
    return [(cloud.trunks[t]._index.probe_count,
             cloud.trunks[t]._index.lookup_count)
            for t in sorted(cloud.trunks)]


def pinned_pages(cloud) -> list[int]:
    """Pages pinned per trunk (resident storage has none to pin)."""
    return [getattr(cloud.trunks[t].storage, "pinned_pages", 0)
            for t in sorted(cloud.trunks)]


def copy_out(groups, count) -> list[bytes]:
    """Every payload of one batched read, in input order; the read is
    checked fresh after the copy."""
    out: list = [None] * count
    for arena, starts, limits, positions in groups:
        for i, lo, hi in zip(positions.tolist(), starts.tolist(),
                             limits.tolist()):
            out[i] = arena[lo:hi].tobytes()
    for group in groups:
        group.assert_fresh()
    return out


def page_faults(cloud) -> list[int]:
    """Faults per trunk of a paged cloud so far."""
    return [cloud.trunks[t].storage._m_fault.value
            for t in sorted(cloud.trunks)]


class TestFailedBatch:
    """A batch that names a missing cell raises as the ``get`` loop
    would, and leaves nothing behind."""

    def test_failed_paged_batch_leaves_no_page_pinned(self):
        """Pins used to be taken trunk by trunk as the batch was looked
        up, so a miss in the last trunk left the earlier trunks' pages
        pinned, with no span group to close.  A paged read now pins
        nothing at all, and a failed one touches no page."""
        cloud = make_cloud("paged", trunk_bits=3, page_budget=4)
        try:
            live = list(range(40))
            for uid in live:
                cloud.put(uid, bytes([uid]) * 100)
            missing = next(uid for uid in range(1000, 2000)
                           if trunk_of(uid, 3) == 7)
            assert len(set(cloud.trunks_of_array(live).tolist())) == 8
            faults = page_faults(cloud)
            with pytest.raises(CellNotFoundError) as raised:
                cloud.bulk_get_spans(live + [missing])
            assert raised.value.cell_id == missing
            assert pinned_pages(cloud) == [0] * 8
            assert page_faults(cloud) == faults
            groups = cloud.bulk_get_spans(live)     # and a good one
            assert pinned_pages(cloud) == [0] * 8
            [buffer] = {id(group.arena): group.arena
                        for group in groups}.values()
            for trunk in cloud.trunks.values():
                assert not np.shares_memory(buffer,
                                            trunk.storage.as_ndarray())
            assert copy_out(groups, 40) == [bytes([uid]) * 100
                                            for uid in live]
        finally:
            cloud.release_arenas()

    def test_a_failing_copy_step_leaves_no_page_pinned(self):
        cloud = make_cloud("paged", trunk_bits=3, page_budget=4)
        try:
            live = list(range(40))
            for uid in live:
                cloud.put(uid, bytes([uid]) * 100)

            def broken(*args):
                raise OSError("page file went away")

            cloud.trunks[5].open_spans = broken
            with pytest.raises(OSError, match="went away"):
                cloud.bulk_get_spans(live)
            assert pinned_pages(cloud) == [0] * 8
            del cloud.trunks[5].open_spans
            assert copy_out(cloud.bulk_get_spans(live), 40) == [
                bytes([uid]) * 100 for uid in live]
        finally:
            cloud.release_arenas()

    def test_the_first_missing_id_in_input_order_is_named(self, cloud):
        """It used to be the first missing id of the lowest-numbered
        trunk touched."""
        bits = cloud.config.trunk_bits
        absent = list(range(1000, 1100))
        first = absent[0]
        later = next(uid for uid in absent
                     if trunk_of(uid, bits) < trunk_of(first, bits))
        cloud.put(0, b"zero")
        cloud.put(1, b"one")
        batch = [0, first, 1, later]
        with pytest.raises(CellNotFoundError) as looped:
            for uid in batch:
                cloud.get(uid)
        with pytest.raises(CellNotFoundError) as raised:
            cloud.bulk_get_spans(batch)
        assert raised.value.cell_id == looped.value.cell_id == first
        with pytest.raises(CellNotFoundError) as copied:
            cloud.bulk_get(np.array(batch[::-1], dtype=np.int64))
        assert copied.value.cell_id == later

    @pytest.mark.parametrize("outside", [-1, -2**63, 2**64, 2**64 + 5])
    def test_an_id_outside_the_range_misses_where_it_stands(self, cloud,
                                                            outside):
        for trunk_id in cloud.trunks:       # -1 mod 2**64 and friends
            cloud.put(2**64 - 1 - trunk_id, b"top")
        cloud.put(7, b"seven")
        for batch, named in (([7, outside, 404], outside),
                             ([7, 404, outside], 404)):
            with pytest.raises(CellNotFoundError) as raised:
                cloud.bulk_get_spans(batch)
            assert raised.value.cell_id == named

    def test_a_failed_batch_counts_like_the_loop_that_fails(self):
        """Lookups up to and including the miss, and none after it."""
        batched, looped = make_cloud(), make_cloud()
        for cloud in (batched, looped):
            for uid in range(30):
                cloud.put(uid, b"v" * uid)
        batch = [3, 9, 3, 500, 11, 12, 600]
        with pytest.raises(CellNotFoundError):
            batched.bulk_get_spans(batch)
        with pytest.raises(CellNotFoundError):
            for uid in batch:
                looped.get(uid)
        assert probe_counters(batched) == probe_counters(looped)


class TestViewPins:
    """Only a ``cloud.pin`` view pins pages; a batched read copies and
    pins nothing."""

    def test_a_batched_read_keeps_a_views_pin(self):
        """A batched read used to end by dropping every pin on its
        trunks, a live ``cloud.pin`` view's included.  The view's page
        stays pinned across the read and goes at the next epoch bump."""
        cloud = make_cloud("paged", trunk_bits=1, page_budget=4, machines=1)
        try:
            same = [uid for uid in range(40) if trunk_of(uid, 1) == 0]
            for uid in same:
                cloud.put(uid, bytes([uid]) * 100)
            pinned, others = same[0], same[1:3]
            storage = cloud.trunk_for(pinned).storage
            with cloud.pin(pinned) as view:
                held = storage.pinned_pages
                assert held >= 1
                assert cloud.bulk_get(others) == [bytes([uid]) * 100
                                                  for uid in others]
                assert storage.pinned_pages == held
                assert bytes(view) == bytes([pinned]) * 100
            assert storage.pinned_pages == held
            cloud.note_cell_write(pinned)
            assert storage.pinned_pages == 0
        finally:
            cloud.release_arenas()


class TestRegions:
    """What is recopied, and when the columns are laid out again."""

    def test_only_a_mutated_trunk_is_recopied(self):
        cloud = make_cloud(trunk_bits=3)
        uids = list(range(64))
        for uid in uids:
            cloud.put(uid, b"x" * 10)
        refreshed = cloud.obs.counter("memcloud.directory.refreshed")
        relayouts = cloud.obs.counter("memcloud.directory.relayouts")
        cloud.bulk_get_spans(uids)
        assert (refreshed.value, relayouts.value) == (8, 1)
        cloud.bulk_get_spans(uids)
        assert (refreshed.value, relayouts.value) == (8, 1)
        cloud.put(5, b"y" * 10)             # in place: same table, new epoch
        cloud.bulk_get_spans([uid for uid in uids
                              if trunk_of(uid, 3) != trunk_of(5, 3)])
        assert refreshed.value == 8         # ... and its trunk not read
        assert copy_out(cloud.bulk_get_spans(uids), 64)[5] == b"y" * 10
        assert (refreshed.value, relayouts.value) == (9, 1)

    def test_a_refresh_storm_shows_in_the_counters(self):
        """Reads interleaved with writes into one large trunk recopy its
        whole region every time: visible as ``refreshed`` growing with
        the reads while ``relayouts`` stands still."""
        cloud = make_cloud(trunk_bits=1, machines=1)
        in_trunk_0 = [uid for uid in range(600) if trunk_of(uid, 1) == 0]
        for uid in in_trunk_0:
            cloud.put(uid, b"p" * 8)
        cloud.bulk_get_spans(in_trunk_0)
        snapshot = cloud.obs.snapshot()
        refreshed = cloud.obs.counter("memcloud.directory.refreshed")
        relayouts = cloud.obs.counter("memcloud.directory.relayouts")
        slots = cloud.obs.gauge("memcloud.directory.slots")
        assert snapshot["memcloud.directory.slots"]["series"][0]["value"] \
            == slots.value == cloud.trunks[0]._index.capacity
        before = refreshed.value, relayouts.value
        for round_no in range(20):
            cloud.put(in_trunk_0[round_no], b"q" * 8)
            cloud.bulk_get_spans(in_trunk_0[:4])
        assert (refreshed.value, relayouts.value) == (before[0] + 20,
                                                      before[1])

    def test_relayout_moves_the_other_regions_intact(self):
        """Growing one trunk's table shifts every region after it; what
        they held must arrive unchanged, without a recopy."""
        tables = [TrunkHashTable() for _ in range(5)]
        trunks = [TableAsTrunk(table) for table in tables]
        for t, table in enumerate(tables):
            for key in range(8):
                table.set(100 * t + key, 10 * t + key)
        registry = MetricsRegistry()
        directory = SpanDirectory(5, registry)
        refreshed = registry.counter("memcloud.directory.refreshed")

        def read_all():
            with directory.lock:
                directory.refresh(trunks, [0, 1, 2, 3, 4])
                keys = np.array([100 * t + key for t in range(5)
                                 for key in range(8)], dtype=np.uint64)
                return directory.probe(
                    keys, np.repeat(np.arange(5), 8))

        expected = [10 * t + key for t in range(5) for key in range(8)]
        starts, _, _, found = read_all()
        assert found.all() and starts.tolist() == expected
        assert refreshed.value == 5
        for grown in (1, 3):
            for key in range(8, 40):        # past 2/3 of 16, then of 32
                tables[grown].set(100 * grown + key, 0)
            trunks[grown].mutation_epoch += 1
        starts, _, _, found = read_all()
        assert found.all() and starts.tolist() == expected
        assert refreshed.value == 7
        assert registry.counter("memcloud.directory.relayouts").value == 2
        assert registry.gauge("memcloud.directory.slots").value == sum(
            table.capacity for table in tables)

    def test_a_trunk_never_read_has_no_region(self):
        cloud = make_cloud(trunk_bits=4)
        cloud.put(1, b"one")
        cloud.bulk_get_spans([1])
        assert cloud.obs.gauge("memcloud.directory.slots").value == 16

    def test_one_trunk_probe_is_the_list_probers_walk(self):
        """Tombstones walked, absent against found, ids repeated."""
        table = TrunkHashTable()
        for key in range(40):
            table.set(key, key + 1)
        for key in range(0, 40, 3):
            table.delete(key)
        keys = [5, 0, 5, 41, 2**64 - 1, 2**63, 39, 3, 1000]
        reference = list_prober_of(table)
        expected = [reference.get(key) for key in keys]
        starts, limits, probes, found, _ = locate(
            SpanDirectory(1, MetricsRegistry()), TableAsTrunk(table), keys)
        assert found.tolist() == [value is not None for value in expected]
        assert starts[found].tolist() == [value for value in expected
                                          if value is not None]
        assert (limits - starts).tolist() == [1] * len(keys)
        assert int(probes.sum()) == reference.probe_count
        assert int(probes.max()) > 1        # some chain was walked


class SpanDirectoryMachine(RuleBasedStateMachine):
    """A small cloud under every kind of change a region has to notice,
    read in batches that repeat ids, name absent ones and stray outside
    ``[0, 2**64)``.  Each batch must hand out the bytes ``cloud.get``
    returns, charge every table what the list prober walks for a ``get``
    loop over the same ids, name the id that loop would raise for, and
    recopy the regions of exactly the trunks touched that have changed
    since their last batched read."""

    STORAGE = "resident"
    TRUNK_BITS = 2
    UIDS = st.one_of(st.integers(0, 47), st.integers(2**63, 2**64 - 1))
    READ_IDS = st.one_of(st.integers(0, 59), st.integers(-3, -1),
                         st.sampled_from([2**64, 2**64 + 9, 2**64 - 1]))
    PAYLOAD = st.binary(min_size=0, max_size=90)

    def __init__(self):
        super().__init__()
        self.cloud = make_cloud(self.STORAGE, self.TRUNK_BITS)
        self.model: dict[int, bytes] = {}
        self.refreshed = self.cloud.obs.counter("memcloud.directory.refreshed")
        # Epoch of each trunk at its last batched read (None: never read).
        self.mirrored: list = [None] * len(self.cloud.trunks)

    def teardown(self):
        self.cloud.release_arenas()

    def trunk_of(self, uid: int) -> int:
        return trunk_of(uid, self.TRUNK_BITS)

    @rule(uid=UIDS, payload=PAYLOAD)
    def put(self, uid, payload):
        self.cloud.put(uid, payload)
        self.model[uid] = payload

    @precondition(lambda self: self.model)
    @rule(data=st.data(), extra=st.binary(min_size=1, max_size=200))
    def grow(self, data, extra):
        uid = data.draw(st.sampled_from(sorted(self.model)))
        self.model[uid] += extra            # outgrows its slot: relocated
        self.cloud.put(uid, self.model[uid])

    @rule(count=st.integers(20, 60))
    def fill(self, count):
        """Enough fresh cells to grow some table past its region."""
        base = 10_000 + 100 * len(self.model)
        for uid in range(base, base + count):
            self.put(uid, b"f" * (uid % 7))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def remove(self, data):
        uid = data.draw(st.sampled_from(sorted(self.model)))
        self.cloud.remove(uid)
        del self.model[uid]

    @rule()
    def defragment(self):
        self.cloud.defragment_all()

    @rule(trunk_id=st.integers(0, 2**TRUNK_BITS - 1))
    def replace_trunk(self, trunk_id):
        self.cloud.replace_trunk(trunk_id)
        self.model = {uid: payload for uid, payload in self.model.items()
                      if self.trunk_of(uid) != trunk_id}

    @rule(trunk_id=st.integers(0, 2**TRUNK_BITS - 1))
    def adopt_image(self, trunk_id):
        image = persistence.trunk_to_bytes(self.cloud.trunks[trunk_id])
        persistence.adopt_trunk_image(self.cloud, trunk_id, image)

    @rule(data=st.data(), ids=st.lists(READ_IDS, max_size=24),
          as_array=st.booleans())
    def read(self, data, ids, as_array):
        cloud, model = self.cloud, self.model
        if model:       # mostly cells that exist, some of them twice
            ids = ids + data.draw(st.lists(
                st.sampled_from(sorted(model)), max_size=24))
            ids = data.draw(st.permutations(ids))
        # What a get loop would do, walked by the list prober.
        probers = [list_prober_of(cloud.trunks[t]._index)
                   for t in sorted(cloud.trunks)]
        missing = None
        for uid in ids:
            if probers[self.trunk_of(uid)].get(uid) is None:
                missing = uid
                break
        touched = sorted({self.trunk_of(uid) for uid in ids})
        stale = [t for t in touched
                 if self.mirrored[t] != cloud.trunks[t].mutation_epoch]
        before, recopied = probe_counters(cloud), self.refreshed.value
        batch = ids
        if as_array and all(0 <= uid < 2**64 for uid in ids):
            batch = np.array(ids, dtype=np.uint64)
        if missing is None:
            payloads = copy_out(cloud.bulk_get_spans(batch), len(ids))
        else:
            assert (missing in model) is False
            with pytest.raises(CellNotFoundError) as raised:
                cloud.bulk_get_spans(batch)
            assert raised.value.cell_id == missing
        assert [(probes - probes_before, lookups - lookups_before)
                for (probes, lookups), (probes_before, lookups_before)
                in zip(probe_counters(cloud), before)] == [
            (prober.probe_count, prober.lookup_count) for prober in probers]
        assert self.refreshed.value - recopied == len(stale)
        for t in touched:
            self.mirrored[t] = cloud.trunks[t].mutation_epoch
        assert not any(pinned_pages(cloud))
        if missing is None:
            assert payloads == [model[uid] for uid in ids]
            assert payloads == [cloud.get(uid) for uid in ids]

    @invariant()
    def holds_what_the_model_holds(self):
        assert len(self.cloud) == len(self.model)


class PagedSpanDirectoryMachine(SpanDirectoryMachine):
    STORAGE = "paged"       # two resident pages a trunk: reads are copies


TestSpanDirectoryMachine = SpanDirectoryMachine.TestCase
TestSpanDirectoryMachine.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None)
TestPagedSpanDirectoryMachine = PagedSpanDirectoryMachine.TestCase
TestPagedSpanDirectoryMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None)


# -- threads ---------------------------------------------------------------

_CELL = struct.Struct("<QI")


def versioned_payload(uid: int, version: int) -> bytes:
    """A payload that names its cell and version and can be recomputed
    from the two: any mix of two cells, or of two versions, is not one."""
    body = bytes([(uid * 31 + version * 7 + k) % 251
                  for k in range(20 + (uid + 13 * version) % 90)])
    return _CELL.pack(uid, version) + body


@pytest.mark.parametrize("storage", ["resident", "paged"])
def test_readers_see_the_oracle_or_a_stale_span_nothing_else(storage):
    """Four reader threads fetch spans and decode them while a writer
    overwrites, grows, removes and re-puts cells and defragments every
    trunk.  A read either raises ``StaleSpanError`` or every payload is,
    byte for byte, a version its cell really had — never older than one
    this reader has already seen."""
    cloud = make_cloud(storage, trunk_bits=2, page_budget=8)
    stable = list(range(48))                # overwritten, never removed
    churn = list(range(100, 124))           # removed and put back
    for uid in stable + churn:
        cloud.put(uid, versioned_payload(uid, 0))
    done = threading.Event()
    failures: list = []
    reads = {"fresh": 0, "stale": 0}

    def writer():
        rng = np.random.default_rng(7)
        try:
            for step in range(1, 400):
                uid = stable[int(rng.integers(len(stable)))]
                cloud.put(uid, versioned_payload(uid, step))
                victim = churn[step % len(churn)]
                if victim in cloud:
                    cloud.remove(victim)
                else:
                    cloud.put(victim, versioned_payload(victim, step))
                if step % 25 == 0:
                    cloud.defragment_all()
        except BaseException as error:      # noqa: BLE001 - reported below
            failures.append(("writer", error))
        finally:
            done.set()

    def reader(seed):
        rng = np.random.default_rng(seed)
        seen = dict.fromkeys(stable, 0)
        try:
            while not done.is_set():
                ids = rng.choice(stable, size=int(rng.integers(1, 40)))
                try:
                    payloads = copy_out(cloud.bulk_get_spans(ids), len(ids))
                except StaleSpanError:
                    reads["stale"] += 1
                    continue
                reads["fresh"] += 1
                for uid, payload in zip(ids.tolist(), payloads):
                    named, version = _CELL.unpack_from(payload)
                    assert named == uid
                    assert payload == versioned_payload(uid, version)
                    assert version >= seen[uid]
                    seen[uid] = version
        except BaseException as error:      # noqa: BLE001 - reported below
            failures.append((f"reader {seed}", error))
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)             # interleave as often as possible
    try:
        threads = [threading.Thread(target=reader, args=(seed,))
                   for seed in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures
        assert reads["fresh"] > 0
        # The store ends as the writer left it, and reads clean again.
        final = copy_out(cloud.bulk_get_spans(stable), len(stable))
        assert final == [cloud.get(uid) for uid in stable]
        assert not any(pinned_pages(cloud))
    finally:
        cloud.release_arenas()
