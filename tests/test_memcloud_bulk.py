"""Equivalence suite for the batched memory-cloud data path.

The contract under test: ``bulk_put``/``bulk_get`` are *semantically
identical* to a scalar ``put``/``get`` loop — same stored bytes, same
trunk accounting (live/garbage/committed bytes, wraps, defrag counters),
and, when ``presize=False``, bit-identical hash-table probe counters.
The properties run interleaved overwrites, removes, trunk wraps, and a
defragmentation pass after bulk load.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, MemoryParams
from repro.errors import AddressingError, DivergenceError, TrinityError
from repro.memcloud import MemoryCloud
from repro.obs import MetricsRegistry
from repro.oracle import checking

from ._spans import stale

UID = st.integers(min_value=0, max_value=2**63 - 1)
SMALL_UID = st.integers(min_value=0, max_value=23)
PAYLOAD = st.binary(max_size=48)


def make_cloud(trunk_bits=3, checked=False,
               trunk_size=4 * 1024 * 1024, page_size=4096):
    """A cloud; ``checked`` builds it inside the oracle's scope, so it
    keeps a shadow."""
    config = ClusterConfig(
        machines=2, trunk_bits=trunk_bits,
        memory=MemoryParams(trunk_size=trunk_size, page_size=page_size),
    )
    with checking(checked):
        return MemoryCloud(config, MetricsRegistry())


def copy_out(read) -> list[bytes]:
    """Every payload of a batched read, in input order."""
    out: list = [None] * len(read.positions)
    for i, lo, hi in zip(read.positions.tolist(), read.starts.tolist(),
                         read.limits.tolist()):
        out[i] = read.buffer[lo:hi].tobytes()
    return out


def assert_clouds_identical(bulk, scalar, probes=True):
    """Full structural comparison of two clouds built from the same ops."""
    for trunk_id, trunk in bulk.trunks.items():
        other = scalar.trunks[trunk_id]
        assert dict(trunk.dump_cells()) == dict(other.dump_cells())
        assert trunk.stats() == other.stats()
        if probes:
            assert trunk._index.probe_count == other._index.probe_count
            assert trunk._index.lookup_count == other._index.lookup_count


class TestBulkPutBasics:
    def test_roundtrip(self):
        cloud = make_cloud()
        uids = [10, 20, 30]
        payloads = [b"a", b"bb", b"ccc"]
        cloud.bulk_put(uids, payloads)
        assert cloud.bulk_get(uids) == payloads
        assert [cloud.get(u) for u in uids] == payloads

    def test_empty_batch_is_noop(self):
        cloud = make_cloud()
        cloud.bulk_put([], [])
        assert cloud.bulk_get([]) == []
        assert len(cloud) == 0

    def test_length_mismatch(self):
        cloud = make_cloud()
        with pytest.raises(ValueError):
            cloud.bulk_put([1, 2], [b"x"])

    def test_numpy_uid_array(self):
        cloud = make_cloud()
        uids = np.asarray([5, 6, 7], dtype=np.uint64)
        cloud.bulk_put(uids, [b"x", b"y", b"z"])
        assert cloud.get(6) == b"y"

    def test_duplicate_uids_keep_last_write(self):
        # Scalar loop semantics: the later put overwrites the earlier.
        cloud = make_cloud()
        cloud.bulk_put([1, 2, 1], [b"first", b"other", b"second"])
        assert cloud.get(1) == b"second"
        assert cloud.get(2) == b"other"

    def test_overwrite_existing(self):
        cloud = make_cloud()
        cloud.bulk_put([1, 2], [b"a", b"b"])
        cloud.bulk_put([2, 3], [b"B", b"c"])
        assert cloud.bulk_get([1, 2, 3]) == [b"a", b"B", b"c"]

    def test_bulk_get_preserves_input_order(self):
        cloud = make_cloud(trunk_bits=4)
        uids = list(range(100, 200))
        payloads = [bytes([i % 256]) * (i % 7) for i in range(100)]
        cloud.bulk_put(uids, payloads)
        shuffled = uids[::-1]
        assert cloud.bulk_get(shuffled) == payloads[::-1]

    def test_metrics_series(self):
        cloud = make_cloud()
        cloud.bulk_put(list(range(50)), [b"x"] * 50)
        cloud.bulk_get(list(range(50)))
        from repro.obs import MetricsReport
        snapshot = MetricsReport.from_registry(cloud.obs).snapshot

        def value(name):
            return snapshot[name]["series"][0]["value"]

        assert value("memcloud.bulk.put.cells") == 50
        assert value("memcloud.bulk.get.cells") == 50
        assert value("memcloud.bulk.put.batches") >= 1
        assert (snapshot["memcloud.bulk.put.seconds"]["series"][0]["count"]
                == 1)


class TestScalarEquivalence:
    """Direct two-cloud comparison, no shadow involved."""

    def _load(self, batches, presize):
        bulk = make_cloud()
        scalar = make_cloud()
        for uids, payloads in batches:
            bulk.bulk_put(uids, payloads, presize=presize)
            for uid, payload in zip(uids, payloads):
                scalar.put(uid, payload)
        return bulk, scalar

    def test_exact_probes_without_presize(self):
        rng = np.random.default_rng(7)
        uids = np.unique(rng.integers(0, 2**62, size=1500)).tolist()
        payloads = [bytes(rng.integers(0, 256, size=int(s), dtype=np.uint8))
                    for s in rng.integers(0, 64, size=len(uids))]
        batches = [(uids[i:i + 256], payloads[i:i + 256])
                   for i in range(0, len(uids), 256)]
        bulk, scalar = self._load(batches, presize=False)
        assert_clouds_identical(bulk, scalar, probes=True)

    def test_contents_with_presize(self):
        rng = np.random.default_rng(11)
        uids = np.unique(rng.integers(0, 2**62, size=1500)).tolist()
        payloads = [b"p" * int(s) for s in rng.integers(0, 64, len(uids))]
        bulk, scalar = self._load([(uids, payloads)], presize=True)
        # Pre-sizing changes probe lengths, never contents or accounting.
        assert_clouds_identical(bulk, scalar, probes=False)

    def test_bulk_get_counts_like_scalar_gets(self):
        uids = list(range(0, 400, 3))
        payloads = [b"v"] * len(uids)
        bulk, scalar = self._load([(uids, payloads)], presize=False)
        for uid in uids:
            scalar.get(uid)
        bulk.bulk_get(uids)
        assert_clouds_identical(bulk, scalar, probes=True)

    def test_wrap_inside_bulk_batch(self):
        # A trunk small enough that one batch crosses the arena end: the
        # straight-line fast path takes the fitting prefix and the scalar
        # fallback wraps, exactly like a put loop.
        kwargs = dict(trunk_bits=2, trunk_size=4096, page_size=256)
        bulk = make_cloud(**kwargs)
        scalar = make_cloud(**kwargs)
        # FIFO churn in batches: remove the oldest window, bulk-load the
        # next — garbage sits right behind the committed tail, so the
        # circular allocator wraps instead of defragmenting.
        window = 16
        payload_for = (lambda uid: bytes([uid % 256]) * 150)
        for cloud in (bulk, scalar):
            for uid in range(window):
                cloud.put(uid, payload_for(uid))
        for start in range(window, 600, window):
            batch = list(range(start, start + window))
            for cloud in (bulk, scalar):
                for uid in batch:
                    cloud.remove(uid - window)
            bulk.bulk_put(batch, [payload_for(u) for u in batch],
                          presize=False)
            for uid in batch:
                scalar.put(uid, payload_for(uid))
        assert_clouds_identical(bulk, scalar, probes=True)
        assert any(t.stats().wraps for t in bulk.trunks.values())

    def test_defrag_after_bulk_load(self):
        bulk = make_cloud(trunk_bits=2)
        scalar = make_cloud(trunk_bits=2)
        uids = list(range(300))
        payloads = [bytes([i % 256]) * (i % 90) for i in uids]
        bulk.bulk_put(uids, payloads, presize=False)
        for uid, payload in zip(uids, payloads):
            scalar.put(uid, payload)
        for cloud in (bulk, scalar):
            for uid in uids[::3]:
                cloud.remove(uid)
            cloud.defragment_all()
        assert_clouds_identical(bulk, scalar, probes=True)
        live = [u for u in uids if u % 3]
        assert bulk.bulk_get(live) == [scalar.get(u) for u in live]


class TestCrossCheckShadow:
    def test_shadow_verifies_bulk_ops(self):
        cloud = make_cloud(checked=True)
        uids = list(range(500))
        payloads = [bytes([i % 256]) * (i % 33) for i in uids]
        cloud.bulk_put(uids, payloads, presize=False)  # verifies internally
        cloud.bulk_put(uids[::5], [b"overwrite"] * len(uids[::5]),
                       presize=False)
        for uid in uids[::7]:
            cloud.remove(uid)
        cloud.defragment_all()
        cloud.verify_shadow()

    def test_presize_disables_probe_comparison_only(self):
        cloud = make_cloud(checked=True)
        cloud.bulk_put(list(range(2000)), [b"x"] * 2000, presize=True)
        assert not cloud._shadow_probes_comparable
        cloud.verify_shadow()  # bytes + accounting still must match

    def test_divergence_detected(self):
        cloud = make_cloud(checked=True)
        cloud.bulk_put([1, 2, 3], [b"a", b"b", b"c"], presize=False)
        # Tamper with the real world behind the shadow's back.
        cloud.trunk_for(2).put(2, b"corrupted")
        with pytest.raises(DivergenceError):
            cloud.verify_shadow()

    def test_missing_cell_detected(self):
        cloud = make_cloud(checked=True)
        cloud.bulk_put([1, 2, 3], [b"a", b"b", b"c"], presize=False)
        cloud.trunk_for(3).remove(3)
        with pytest.raises(DivergenceError):
            cloud.verify_shadow()

    def test_verify_requires_cross_check(self):
        with pytest.raises(AddressingError):
            make_cloud().verify_shadow()

    def test_divergence_is_assertion_error(self):
        assert issubclass(DivergenceError, AssertionError)
        assert issubclass(DivergenceError, TrinityError)


# One hypothesis "program": an interleaved list of operations.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), SMALL_UID, PAYLOAD),
        st.tuples(st.just("remove"), SMALL_UID),
        st.tuples(st.just("bulk"),
                  st.lists(st.tuples(SMALL_UID, PAYLOAD), max_size=12)),
        st.tuples(st.just("defrag")),
    ),
    max_size=40,
)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_interleaved_program_equivalence(self, ops):
        """Replay one program through the bulk and scalar paths.

        A tiny trunk (one page of slack) forces wraps and defrag activity;
        presize=False keeps even the probe counters comparable.
        """
        kwargs = dict(trunk_bits=2, trunk_size=2048, page_size=128)
        bulk = make_cloud(**kwargs)
        scalar = make_cloud(**kwargs)
        reference: dict[int, bytes] = {}
        for op in ops:
            if op[0] == "put":
                _, uid, payload = op
                bulk.put(uid, payload)
                scalar.put(uid, payload)
                reference[uid] = payload
            elif op[0] == "remove":
                uid = op[1]
                if uid in reference:
                    bulk.remove(uid)
                    scalar.remove(uid)
                    del reference[uid]
            elif op[0] == "bulk":
                pairs = op[1]
                if not pairs:
                    continue
                uids = [uid for uid, _ in pairs]
                payloads = [payload for _, payload in pairs]
                bulk.bulk_put(uids, payloads, presize=False)
                for uid, payload in pairs:
                    scalar.put(uid, payload)
                    reference[uid] = payload
            else:
                bulk.defragment_all()
                scalar.defragment_all()
        assert_clouds_identical(bulk, scalar, probes=True)
        assert len(bulk) == len(reference)
        for uid, payload in reference.items():
            assert bulk.get(uid) == payload
        live = sorted(reference)
        assert bulk.bulk_get(live) == [reference[u] for u in live]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(UID, PAYLOAD), min_size=1, max_size=60))
    def test_cross_check_shadow_accepts_any_batch(self, pairs):
        cloud = make_cloud(checked=True)
        uids = [uid for uid, _ in pairs]
        payloads = [payload for _, payload in pairs]
        cloud.bulk_put(uids, payloads, presize=False)
        cloud.defragment_all()
        cloud.verify_shadow()
        reference = dict(pairs)
        for uid in reference:
            assert cloud.get(uid) == reference[uid]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(SMALL_UID, PAYLOAD), min_size=1, max_size=40))
    def test_bulk_matches_scalar_on_colliding_uids(self, pairs):
        uids = [uid for uid, _ in pairs]
        payloads = [payload for _, payload in pairs]
        bulk, scalar = make_cloud(), make_cloud()
        bulk.bulk_put(uids, payloads, presize=False)
        bulk.bulk_get(sorted(set(uids)))
        for uid, payload in pairs:
            scalar.put(uid, payload)
        for uid in sorted(set(uids)):
            scalar.get(uid)
        assert_clouds_identical(bulk, scalar, probes=True)


class TestBulkGetSpans:
    """The zero-copy read path must hand out every payload byte-for-byte
    (and ``bulk_get``, its copy-out, with it)."""

    def _loaded_cloud(self):
        cloud = make_cloud()
        rng = np.random.default_rng(7)
        uids = rng.choice(2**40, size=200, replace=False).astype(np.int64)
        payloads = [bytes([i % 251]) * (i % 37) for i in range(len(uids))]
        cloud.bulk_put(uids.tolist(), payloads)
        return cloud, uids, payloads

    def test_copy_out_roundtrip(self):
        cloud, uids, payloads = self._loaded_cloud()
        assert cloud.bulk_get(uids) == payloads

    def test_spans_roundtrip(self):
        cloud, uids, payloads = self._loaded_cloud()
        assert copy_out(cloud.bulk_get_spans(uids)) == payloads

    def test_spans_track_mutations(self):
        """Overwrites and removes must invalidate the span caches."""
        cloud, uids, payloads = self._loaded_cloud()
        cloud.bulk_get_spans(uids)  # populate every trunk's span cache
        for i in range(0, len(uids), 3):
            payloads[i] = b"x" * (64 + i)
            cloud.put(int(uids[i]), payloads[i])
        cloud.remove(int(uids[1]))
        keep = np.asarray([u for j, u in enumerate(uids.tolist())
                           if j != 1], dtype=np.int64)
        expected = [p for j, p in enumerate(payloads) if j != 1]
        assert copy_out(cloud.bulk_get_spans(keep)) == expected

    def test_spans_missing_uid_raises(self):
        from repro.errors import CellNotFoundError
        cloud, uids, _ = self._loaded_cloud()
        missing = np.concatenate([uids[:3], [np.int64(2**41 + 5)]])
        with pytest.raises(CellNotFoundError):
            cloud.bulk_get_spans(missing)

    def test_spans_stale_after_defrag(self):
        """Defrag between span fetch and decode must raise, not garble.

        A defragmentation pass relocates cells inside the arena, so span
        offsets fetched before the pass may now point at other cells'
        bytes.  A read carries every touched trunk's structural epoch at
        fetch time; the post-decode freshness check turns the interleaved
        relocation into a canonical ``StaleSpanError``.
        """
        from repro.errors import StaleSpanError
        cloud, uids, payloads = self._loaded_cloud()
        read = cloud.bulk_get_spans(uids)
        read.assert_fresh()  # nothing moved yet: decode is safe
        for trunk in cloud.trunks.values():
            assert trunk.defragment()
        assert stale(read) == read.touched, \
            "defragment must advance the structural epoch"
        with pytest.raises(StaleSpanError):
            read.assert_fresh()
        # A re-fetch observes the post-defrag layout and decodes cleanly.
        assert copy_out(cloud.bulk_get_spans(uids)) == payloads

    def test_a_resident_read_is_one_private_buffer(self, monkeypatch):
        """Every trunk a resident read touches is copied into the read's
        one buffer: it aliases no trunk's arena, and its payloads (empty
        ones among them) are ``bulk_get``'s.  Epochs stay per trunk, so
        a put that relocates cells on one trunk stales exactly that
        trunk, and a batched graph read that straddles such a put
        refuses to answer."""
        from repro.errors import StaleSpanError
        from repro.graph import GraphBuilder
        from repro.graph.model import social_graph_schema
        cloud, uids, payloads = self._loaded_cloud()
        assert b"" in payloads
        copied = cloud.obs.counter("memcloud.cloud.read_buffer_bytes")
        read = cloud.bulk_get_spans(uids)
        # the whole 8-byte words under each cell's span in its arena
        located = {}
        for trunk in cloud.trunks.values():
            _, keys, states, starts, limits = trunk.span_table()
            live = states == 1
            located.update(zip(keys[live].tolist(),
                               zip(starts[live].tolist(),
                                   limits[live].tolist())))
        assert copied.value == 8 * sum(
            (limit + 7) // 8 - start // 8
            for start, limit in map(located.get, uids.tolist()))
        assert copied.value > sum(map(len, payloads))
        assert len(read.touched) >= 2
        for trunk in cloud.trunks.values():
            assert not np.shares_memory(read.buffer,
                                        trunk.storage.as_ndarray())
        assert copy_out(read) == cloud.bulk_get(uids) == payloads
        moved = read.touched[1]
        uid = int(uids[read.positions[read.trunk_ids == moved][0]])
        trunk = cloud.trunk_for(uid)
        relocations = trunk.stats().relocations
        cloud.put(uid, b"z" * 4096)      # outgrows its slot: relocated
        assert trunk.stats().relocations == relocations + 1
        assert stale(read) == [moved]

        graph_cloud = make_cloud()
        builder = GraphBuilder(graph_cloud, social_graph_schema())
        for node in range(64):
            builder.add_node(node, Name=f"n{node}")
        builder.add_edges([(node, (node * 7 + 1) % 64) for node in range(64)])
        graph = builder.finalize()
        decoder = graph._decoder
        decode = decoder.decode_list_csr_spans

        def put_then_decode(*args):
            graph_cloud.put(5, graph_cloud.get(5) + bytes(4096))
            return decode(*args)

        monkeypatch.setattr(decoder, "decode_list_csr_spans",
                            put_then_decode)
        with pytest.raises(StaleSpanError):
            graph.outlinks_batch(np.arange(64))

    def test_a_paged_read_counts_its_whole_pages(self):
        """A paged read copies whole pages, and the read-buffer counter
        says how many bytes that was."""
        memory = MemoryParams(trunk_size=256 * 1024, storage="paged",
                              page_size=512, page_budget=2)
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=3,
                                          memory=memory), MetricsRegistry())
        try:
            uids = list(range(40))
            cloud.bulk_put(uids, [bytes([uid]) * 100 for uid in uids])
            copied = cloud.obs.counter("memcloud.cloud.read_buffer_bytes")
            buffer = cloud.bulk_get_spans(uids).buffer
            assert copied.value == len(buffer)
            assert len(buffer) % 512 == 0 and len(buffer) >= 40 * 100
        finally:
            cloud.release_arenas()
