"""Tests for the per-trunk open-addressing hash table.

The table has one backend (numpy slot arrays, walked through memoryviews
by the scalar operations).  What used to be proved by running two
backends side by side — that the probe statistics the trunk-count
ablation and the bulk-path shadow verification rely on are exactly those
of textbook linear probing — is proved here against a small list-based
reference prober that exists only in this file.

A batch of keys is not looked up by the table but by the cloud's span
directory, on its mirror of the table; ``table_lookup`` makes that
lookup over one bare table, so the batch is held to the same reference.
"""

import random
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.errors import CellNotFoundError, MemoryCloudError
from repro.memcloud import MemoryCloud
from repro.memcloud.hashtable import (_EMPTY, _LIVE, _TRUNK_SALT,
                                      TrunkHashTable)
from repro.obs import MetricsRegistry
from repro.utils.hashing import mix64

from ._spans import table_lookup

UID = st.integers(min_value=0, max_value=2**63 - 1)


def make_table(initial_capacity=16):
    return TrunkHashTable(initial_capacity)


class ReferenceTable:
    """The probe oracle: linear probing over Python lists, first
    tombstone reused, 2/3 load factor, rebuilt in slot order."""

    EMPTY, TOMBSTONE = object(), object()

    def __init__(self):
        self.keys, self.values = [self.EMPTY] * 16, [0] * 16
        self.used = self.tombstones = self.probe_count = self.lookup_count = 0

    def _probe(self, key, record=True):
        mask = len(self.keys) - 1
        index, tombstone, probes = mix64(key ^ _TRUNK_SALT) & mask, -1, 1
        while self.keys[index] is not self.EMPTY and self.keys[index] != key:
            if self.keys[index] is self.TOMBSTONE and tombstone < 0:
                tombstone = index
            index, probes = (index + 1) & mask, probes + 1
        if self.keys[index] is self.EMPTY and tombstone >= 0:
            index = tombstone
        self.lookup_count += record
        self.probe_count += probes * record
        return index

    def get(self, key):
        index = self._probe(key)
        return self.values[index] if self.keys[index] == key else None

    def set(self, key, value):
        index = self._probe(key)
        if self.keys[index] != key:
            self.tombstones -= self.keys[index] is self.TOMBSTONE
            self.keys[index] = key
            self.used += 1
            capacity = len(self.keys)
            if (self.used + self.tombstones) * 3 >= capacity * 2:
                live = [(k, v) for k, v in zip(self.keys, self.values)
                        if isinstance(k, int)]
                capacity <<= self.used * 3 >= capacity * 2
                self.keys, self.values = [self.EMPTY] * capacity, [0] * capacity
                self.tombstones = 0
                for k, v in live:
                    slot = self._probe(k, record=False)
                    self.keys[slot], self.values[slot] = k, v
                index = self._probe(key, record=False)
        self.values[index] = value

    def delete(self, key):
        index = self._probe(key)
        if self.keys[index] != key:
            return False
        self.keys[index] = self.TOMBSTONE
        self.used -= 1
        self.tombstones += 1
        return True


def list_prober_of(table: TrunkHashTable) -> ReferenceTable:
    """The list prober, standing on a copy of ``table``'s slots."""
    keys, values, states = table.columns()
    reference = ReferenceTable()
    reference.keys = [
        key if state == _LIVE
        else reference.EMPTY if state == _EMPTY else reference.TOMBSTONE
        for key, state in zip(keys.tolist(), states.tolist())]
    reference.values = values.tolist()
    return reference


def assert_same_counters(table, reference):
    assert (table.probe_count, table.lookup_count, len(table)) == (
        reference.probe_count, reference.lookup_count, reference.used)


class TestBasics:
    def test_set_get(self):
        table = make_table()
        table.set(42, 7)
        assert table.get(42) == 7

    def test_missing_returns_default(self):
        table = make_table()
        assert table.get(1) is None
        assert table.get(1, -1) == -1

    def test_contains(self):
        table = make_table()
        table.set(5, 0)
        assert 5 in table
        assert 6 not in table

    def test_overwrite(self):
        table = make_table()
        table.set(5, 1)
        table.set(5, 2)
        assert table.get(5) == 2
        assert len(table) == 1

    def test_delete(self):
        table = make_table()
        table.set(5, 1)
        assert table.delete(5)
        assert 5 not in table
        assert len(table) == 0

    def test_delete_missing(self):
        table = make_table()
        assert not table.delete(5)

    def test_negative_value_rejected(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.set(1, -1)

    def test_items_and_keys(self):
        table = make_table()
        expected = {i: i * 10 for i in range(20)}
        for key, value in expected.items():
            table.set(key, value)
        assert dict(table.items()) == expected
        assert sorted(table.keys()) == sorted(expected)


class TestGrowth:
    def test_grows_past_initial_capacity(self):
        table = make_table(initial_capacity=16)
        for i in range(1000):
            table.set(i, i)
        assert len(table) == 1000
        assert all(table.get(i) == i for i in range(1000))
        assert table.capacity >= 1024

    def test_tombstone_reuse_without_growth(self):
        table = make_table(initial_capacity=64)
        # Churn: insert/delete cycles should not balloon capacity.
        for round_ in range(50):
            for i in range(30):
                table.set(i, round_)
            for i in range(30):
                table.delete(i)
        assert table.capacity <= 256

    def test_probe_stats_exposed(self):
        table = make_table()
        for i in range(100):
            table.set(i, i)
        assert table.lookup_count >= 100
        assert table.mean_probe_length >= 1.0

    def test_fuller_table_probes_more(self):
        # The paper's rationale for many trunks: conflict probability
        # grows with load.  Compare mean probes at low vs high load in a
        # fixed-capacity regime by disabling growth via small data.
        sparse = make_table(initial_capacity=4096)
        for i in range(100):
            sparse.set(i, i)
        sparse.probe_count = sparse.lookup_count = 0
        for i in range(100):
            sparse.get(i)
        dense = make_table(initial_capacity=4096)
        for i in range(2500):
            dense.set(i, i)
        dense.probe_count = dense.lookup_count = 0
        for i in range(2500):
            dense.get(i)
        assert dense.mean_probe_length >= sparse.mean_probe_length


class TestBulkPrimitives:
    def test_has_key_does_not_record(self):
        table = make_table()
        table.set(7, 0)
        lookups, probes = table.lookup_count, table.probe_count
        assert table.has_key(7)
        assert not table.has_key(8)
        assert table.lookup_count == lookups
        assert table.probe_count == probes

    def test_has_key_vs_contains(self):
        table = make_table()
        for i in range(50):
            table.set(i, i)
        table.delete(17)
        for key in range(60):
            assert table.has_key(key) == (key in table)

    def test_insert_fresh_matches_get_then_set_counters(self):
        # insert_fresh claims to record exactly the statistics of the
        # scalar get-miss + set pair — verify against a replay.
        keys = [k * 7919 for k in range(200)]
        fused = make_table()
        for i, key in enumerate(keys):
            fused.insert_fresh(key, i)
        replay = make_table()
        for i, key in enumerate(keys):
            assert replay.get(key) is None
            replay.set(key, i)
        assert fused.lookup_count == replay.lookup_count
        assert fused.probe_count == replay.probe_count
        assert dict(fused.items()) == dict(replay.items())
        assert fused.capacity == replay.capacity

    def test_insert_fresh_rejects_negative_value(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.insert_fresh(1, -1)

    def test_reserve_prevents_incremental_resizes(self):
        table = make_table()
        table.reserve(1000)
        capacity = table.capacity
        assert capacity >= 1024
        for i in range(1000):
            table.insert_fresh(i, i)
        assert table.capacity == capacity  # no resize happened

    def test_reserve_never_shrinks(self):
        table = make_table(initial_capacity=1024)
        table.reserve(10)
        assert table.capacity == 1024

    def test_reserve_keeps_contents_and_counters(self):
        table = make_table()
        for i in range(100):
            table.set(i, i)
        lookups, probes = table.lookup_count, table.probe_count
        table.reserve(5000)
        assert table.lookup_count == lookups
        assert table.probe_count == probes
        assert dict(table.items()) == {i: i for i in range(100)}

    def test_reserve_compacts_tombstones(self):
        table = make_table(initial_capacity=64)
        for i in range(30):
            table.set(i, i)
        for i in range(30):
            table.delete(i)
        table.set(99, 1)
        table.reserve(100)
        assert table._tombstones == 0
        assert dict(table.items()) == {99: 1}


class TestKeysOutsideRange:
    """Only ``[0, 2**64)`` is ever stored: reads of anything else miss,
    writes raise, and the scalar and bulk paths agree."""

    OUTSIDE = [-1, -2, -2**63, 2**64, 2**70]

    @pytest.mark.parametrize("key", OUTSIDE)
    def test_reads_miss(self, key):
        table = make_table()
        for stored in (0, 1, 2**64 - 1, 2**64 - 2):
            table.set(stored, 7)
        assert table.get(key) is None
        assert key not in table
        assert not table.has_key(key)
        assert not table.delete(key)
        # A batch is located on the cloud's mirror of its tables, which
        # holds UIDs only: the id misses there as it misses here.
        cloud = MemoryCloud(ClusterConfig(machines=1, trunk_bits=1),
                            MetricsRegistry())
        for stored in (0, 1, 2**64 - 1, 2**64 - 2):
            cloud.put(stored, b"cell")
        for size in (1, 20, 300):
            with pytest.raises(CellNotFoundError) as raised:
                cloud.bulk_get_spans([key] * size)
            assert raised.value.cell_id == key

    @pytest.mark.parametrize("key", OUTSIDE)
    def test_writes_raise_and_store_nothing(self, key):
        table = make_table()
        table.reserve(100)
        with pytest.raises(MemoryCloudError):
            table.set(key, 0)
        with pytest.raises(MemoryCloudError):
            table.insert_fresh(key, 0)
        with pytest.raises(MemoryCloudError):
            table.bulk_insert_fresh([1, key, 2], [0, 1, 2])
        assert len(table) == 0 and list(table.keys()) == []

    @pytest.mark.parametrize("repeat", [1, 5, 60])
    def test_bulk_miss_counts_like_a_get_loop(self, repeat):
        keys = [5, 2**64 - 1, 6, 2**63, 7] * repeat
        bulk, loop = make_table(), make_table()
        for table in (bulk, loop):
            table.set(5, 1)
            table.set(7, 2)
        values, found = table_lookup(bulk, keys)
        expected = [loop.get(key) for key in keys]
        assert found.tolist() == [v is not None for v in expected]
        assert values.tolist() == [v or 0 for v in expected]
        assert (bulk.probe_count, bulk.lookup_count) == (
            loop.probe_count, loop.lookup_count)

    @pytest.mark.parametrize("repeat", [1, 5, 60])
    def test_bulk_miss_outside_the_range_counts_like_a_get_loop(self,
                                                                repeat):
        """Where the keys of the test above used to stray outside the
        range, the batch is the cloud's to fail: at the first such id,
        with every table charged what the loop that fails there counts."""
        keys = [5, 7, -1, 6, 2**64, 7] * repeat
        bulk, loop = (MemoryCloud(ClusterConfig(machines=1, trunk_bits=1),
                                  MetricsRegistry()) for _ in range(2))
        for cloud in (bulk, loop):
            for stored in (5, 7, 2**64 - 1):    # -1 wraps onto the last
                cloud.put(stored, b"cell")
        with pytest.raises(CellNotFoundError) as raised:
            bulk.bulk_get_spans(keys)
        with pytest.raises(CellNotFoundError) as looped:
            for key in keys:
                loop.get(key)
        assert raised.value.cell_id == looped.value.cell_id == -1
        for trunk_id, trunk in bulk.trunks.items():
            other = loop.trunks[trunk_id]._index
            assert (trunk._index.probe_count, trunk._index.lookup_count) == (
                other.probe_count, other.lookup_count)

    def test_top_of_range_is_an_ordinary_key(self):
        table = make_table()
        table.set(2**64 - 1, 3)
        table.set(0, 4)
        assert table.get(2**64 - 1) == 3 and table.get(-1) is None
        for repeat in (1, 10, 150):
            values, found = table_lookup(
                table, np.array([2**64 - 1, 0] * repeat, dtype=np.uint64))
            assert found.all() and values.tolist() == [3, 4] * repeat
        assert dict(table.items()) == {2**64 - 1: 3, 0: 4}


#: Keys drawn from a narrow range collide and re-use tombstones; the odd
#: wide one exercises the full 64 bits.
KEY = st.one_of(st.integers(0, 60), st.integers(0, 2**64 - 1))
OP = st.one_of(
    st.tuples(st.sampled_from(["set", "del", "get", "fresh"]), KEY),
    st.tuples(st.just("bulk"), st.lists(KEY, max_size=64)),
    st.tuples(st.just("wide"), st.lists(KEY, min_size=1, max_size=64)),
    st.tuples(st.just("fill"), st.integers(1, 40)),
)


def run_program(ops):
    """Run ``ops`` on the table and the reference, comparing as it goes."""
    table, reference = make_table(), ReferenceTable()
    for step, (op, arg) in enumerate(ops):
        if op == "set":
            table.set(arg, step)
            reference.set(arg, step)
        elif op == "del":
            assert table.delete(arg) == reference.delete(arg)
        elif op == "get":
            assert table.get(arg) == reference.get(arg)
        elif op == "fresh":
            if table.has_key(arg):
                continue
            table.insert_fresh(arg, step)
            assert reference.get(arg) is None   # the get-miss + set pair
            reference.set(arg, step)
        elif op in ("bulk", "wide"):
            if op == "wide":   # a window's worth, repeats and all
                arg = (arg * 300)[:300]
            values, found = table_lookup(table, arg)
            expected = [reference.get(key) for key in arg]
            assert found.tolist() == [v is not None for v in expected]
            assert values[found].tolist() == [v for v in expected
                                              if v is not None]
        else:  # fill: enough fresh keys to force a resize mid-program
            for key in range(1000 + step * 64, 1000 + step * 64 + arg):
                table.set(key, step)
                reference.set(key, step)
        assert_same_counters(table, reference)
    live = {k: v for k, v in zip(reference.keys, reference.values)
            if isinstance(k, int)}
    assert dict(table.items()) == live
    assert sorted(table.keys()) == sorted(live)
    assert table.capacity == len(reference.keys)


class TestAgainstReferenceProber:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(OP, max_size=80))
    def test_program(self, ops):
        run_program(ops)

    def test_tombstone_chains_resize_and_every_group_size(self):
        ops = [("fill", 40), ("set", 3), ("set", 19), ("set", 35)]
        ops += [("del", 1000 + k) for k in range(0, 40, 2)]
        ops += [("del", 3), ("set", 35), ("fresh", 3)]
        for size in (0, 1, 2, 15, 16, 17, 64, 255, 256, 400):
            ops.append(("bulk", list(range(990, 990 + size))))
        ops += [("fill", 40), ("bulk", list(range(1000, 1064)))]
        run_program(ops)

    def test_bulk_insert_fresh_matches_insert_fresh_loop(self):
        keys = [k * 7919 for k in range(500)]
        slots = list(range(500))
        bulk, loop = make_table(), make_table()
        for table in (bulk, loop):
            table.set(2**40, 0)
            table.delete(2**40)   # a tombstone in the way
            table.reserve(600)
        assert bulk.bulk_insert_fresh(keys, slots)
        for key, slot in zip(keys, slots):
            loop.insert_fresh(key, slot)
        assert dict(bulk.items()) == dict(loop.items())
        assert (len(bulk), bulk.capacity, bulk.lookup_count) == (
            len(loop), loop.capacity, loop.lookup_count)
        values, found = table_lookup(bulk, keys)
        assert found.all() and values.tolist() == slots

    def test_bulk_insert_fresh_refuses_a_batch_that_could_resize(self):
        table = make_table()
        assert not table.bulk_insert_fresh(list(range(11)), list(range(11)))
        assert len(table) == 0 and table.lookup_count == 0


def home_of(key: int, capacity: int) -> int:
    return mix64(key ^ _TRUNK_SALT) & (capacity - 1)


def keys_homed_at(home: int, capacity: int, count: int) -> list[int]:
    """``count`` distinct keys whose first probe slot is ``home``."""
    found, key = [], 0
    while len(found) < count:
        if home_of(key, capacity) == home:
            found.append(key)
        key += 1
    return found


def random_keys(size: int) -> list[int]:
    rng, keys = random.Random(size), {}
    while len(keys) < size:
        keys[rng.getrandbits(64)] = None
    return list(keys)


class TestFreshLayout:
    """An empty table is laid out in one pass — one sort by home slot,
    one running maximum — and is held to the ``insert_fresh`` loop, to
    scalar ``get``, to the list prober and to the span directory."""

    CAPACITY = 2048          # what reserve(1024) gives

    def check(self, keys, expect_one_pass=True):
        slots = list(range(100, 100 + len(keys)))
        bulk, loop = make_table(), make_table()
        for table in (bulk, loop):
            table.reserve(len(keys))
        no_scalar_tail = mock.patch.object(
            TrunkHashTable, "insert_fresh", side_effect=AssertionError)
        with no_scalar_tail if expect_one_pass else nullcontext():
            assert bulk.bulk_insert_fresh(np.array(keys, dtype=np.uint64),
                                          np.array(slots, dtype=np.int64))
        for key, slot in zip(keys, slots):
            loop.insert_fresh(key, slot)
        # the presize contract: contents, len, capacity, lookup_count
        assert dict(bulk.items()) == dict(loop.items()) == dict(
            zip(keys, slots))
        assert (len(bulk), bulk.capacity, bulk.lookup_count) == (
            len(loop), loop.capacity, loop.lookup_count)
        # linear probing's total displacement ignores insertion order
        assert bulk.probe_count == loop.probe_count
        capacity = bulk.capacity
        column, _, states = bulk.columns()
        where = {key: slot for slot, (key, state) in enumerate(
            zip(column.tolist(), states.tolist())) if state == _LIVE}
        assert len(where) == len(keys)
        walks = {key: (where[key] - home_of(key, capacity)) % capacity + 1
                 for key in keys}
        wrapped = any(where[key] < home_of(key, capacity) for key in keys)
        assert wrapped != expect_one_pass
        # probe_count is the sum the layout charged (get-miss + set each)
        assert bulk.probe_count == 2 * sum(walks.values())
        # every key is one scalar get of exactly final - home + 1 probes,
        # and the list prober walks the same slots to it
        prober = list_prober_of(bulk)
        for key, slot in zip(keys, slots):
            before = bulk.probe_count
            assert bulk.get(key) == slot
            assert bulk.probe_count - before == walks[key]
            before = prober.probe_count
            assert prober.get(key) == slot
            assert prober.probe_count - before == walks[key]
        # ... and so does the span directory, on its mirror
        before = bulk.probe_count
        values, found = table_lookup(bulk, keys)
        assert found.all() and values.tolist() == slots
        assert bulk.probe_count - before == sum(walks.values())
        absent = [key ^ 1 for key in keys if key ^ 1 not in where]
        assert not table_lookup(bulk, absent)[1].any()
        assert [prober.get(key) for key in absent] == [None] * len(absent)

    @pytest.mark.parametrize("size", [0, 1, 2, 15, 16, 17, 255, 1024])
    def test_sizes(self, size):
        self.check(random_keys(size))

    def test_every_key_sharing_one_home_slot(self):
        self.check(keys_homed_at(700, self.CAPACITY, 1024))

    def test_one_long_run_among_scattered_keys(self):
        keys = keys_homed_at(5, self.CAPACITY, 300) + random_keys(255)
        self.check(list(dict.fromkeys(keys)))

    def test_a_run_that_ends_exactly_on_the_last_slot(self):
        last = self.CAPACITY - 1
        keys = (keys_homed_at(last - 3, self.CAPACITY, 3)
                + keys_homed_at(last, self.CAPACITY, 1))
        self.check(keys + keys_homed_at(40, self.CAPACITY, 1020))

    def test_a_cluster_that_reaches_past_the_last_slot_falls_back(self):
        last = self.CAPACITY - 1
        keys = (keys_homed_at(last - 3, self.CAPACITY, 3)
                + keys_homed_at(last, self.CAPACITY, 3))
        self.check(keys + keys_homed_at(0, self.CAPACITY, 1018),
                   expect_one_pass=False)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=200))
    def test_any_key_set_matches_the_loop(self, keys):
        bulk, loop = make_table(), make_table()
        for table in (bulk, loop):
            table.reserve(len(keys))
        assert bulk.bulk_insert_fresh(keys, list(range(len(keys))))
        for slot, key in enumerate(keys):
            loop.insert_fresh(key, slot)
        assert dict(bulk.items()) == dict(loop.items())
        assert (len(bulk), bulk.capacity, bulk.lookup_count,
                bulk.probe_count) == (len(loop), loop.capacity,
                                      loop.lookup_count, loop.probe_count)
        prober = list_prober_of(bulk)
        assert [prober.get(key) for key in keys] == list(range(len(keys)))

    def test_an_occupied_table_takes_the_claimant_path(self):
        """A live key and a real tombstone (left after the reserve, so no
        rebuild drops it) sit where the batch wants to go."""
        capacity = 1024
        keys = keys_homed_at(9, capacity, 40) + random_keys(255)
        resident, dead = keys_homed_at(9, capacity, 42)[40:]
        bulk, loop = make_table(), make_table()
        for table in (bulk, loop):
            table.reserve(600)
            assert table.capacity == capacity
            table.set(resident, 7)
            table.set(dead, 8)
            table.delete(dead)
        assert bulk.bulk_insert_fresh(keys, list(range(len(keys))))
        for slot, key in enumerate(keys):
            loop.insert_fresh(key, slot)
        assert dict(bulk.items()) == dict(loop.items())
        assert (len(bulk), bulk.capacity, bulk.lookup_count) == (
            len(loop), loop.capacity, loop.lookup_count)
        prober = list_prober_of(bulk)
        assert [prober.get(key) for key in keys] == list(range(len(keys)))
        assert prober.get(resident) == 7 and prober.get(dead) is None
