"""Property-based storage-tier equivalence: resident vs paged trunks.

The storage tier must be invisible to trunk semantics: any interleaving
of put / bulk_put / remove / overwrite / resize / defrag — including
ones that force wraps and constant page eviction (tiny page budget) —
must leave a paged trunk byte-identical to a resident one, down to the
allocator accounting and the hash table's probe-exact counters.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import MemoryParams
from repro.memcloud import persistence
from repro.memcloud.trunk import MemoryTrunk
from repro.obs import MetricsRegistry

TRUNK_SIZE = 2048
PAGE_SIZE = 256          # 8 storage pages per trunk
PAGE_BUDGET = 2          # almost nothing stays resident: constant eviction

SMALL_UID = st.integers(min_value=0, max_value=23)
PAYLOAD = st.binary(max_size=48)

# One "program": an interleaved list of trunk operations.
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), SMALL_UID, PAYLOAD),
        st.tuples(st.just("remove"), SMALL_UID),
        st.tuples(st.just("bulk"),
                  st.lists(st.tuples(SMALL_UID, PAYLOAD), max_size=12)),
        st.tuples(st.just("resize"), SMALL_UID,
                  st.integers(min_value=0, max_value=96)),
        st.tuples(st.just("defrag")),
    ),
    max_size=40,
)


def make_params(storage: str) -> MemoryParams:
    return MemoryParams(
        trunk_size=TRUNK_SIZE, page_size=128, storage=storage,
        storage_page_size=PAGE_SIZE, page_budget=PAGE_BUDGET,
    )


def make_pair() -> tuple[MemoryTrunk, MemoryTrunk]:
    resident = MemoryTrunk(0, make_params("resident"),
                           registry=MetricsRegistry())
    paged = MemoryTrunk(0, make_params("paged"), registry=MetricsRegistry())
    return resident, paged


def run_program(trunk: MemoryTrunk, ops, reference: dict[int, bytes]) -> None:
    """Replay one operation program; ``reference`` tracks expected cells."""
    for op in ops:
        if op[0] == "put":
            _, uid, payload = op
            trunk.put(uid, payload)
            reference[uid] = payload
        elif op[0] == "remove":
            uid = op[1]
            if uid in reference:
                trunk.remove(uid)
                del reference[uid]
        elif op[0] == "bulk":
            pairs = op[1]
            if not pairs:
                continue
            trunk.bulk_put([uid for uid, _ in pairs],
                           [payload for _, payload in pairs],
                           presize=False)
            reference.update(pairs)
        elif op[0] == "resize":
            _, uid, new_size = op
            if uid in reference:
                trunk.resize(uid, new_size)
                old = reference[uid]
                reference[uid] = (old[:new_size]
                                  + b"\x00" * (new_size - len(old)))
        else:
            trunk.defragment()


def assert_trunks_identical(resident: MemoryTrunk, paged: MemoryTrunk,
                            probes: bool = True) -> None:
    assert dict(resident.dump_cells()) == dict(paged.dump_cells())
    assert resident.stats() == paged.stats()
    if probes:
        a, b = resident._index, paged._index
        assert (a.probe_count, a.lookup_count) == (b.probe_count,
                                                   b.lookup_count)


def span_payloads(trunk: MemoryTrunk, uids) -> list[bytes]:
    """Every payload, copied out of the trunk's one bulk read."""
    spans = trunk.bulk_get_spans(np.asarray(uids, dtype=np.uint64))
    try:
        return [bytes(spans.arena[start:limit]) for start, limit
                in zip(spans.starts.tolist(), spans.limits.tolist())]
    finally:
        trunk.release_span_pins()


def close_paged(paged: MemoryTrunk) -> None:
    paged.storage.unlink()


class TestStorageEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(OPS)
    def test_interleaved_program_equivalence(self, ops):
        """Any program leaves both tiers byte- and counter-identical."""
        resident, paged = make_pair()
        try:
            ref_a: dict[int, bytes] = {}
            ref_b: dict[int, bytes] = {}
            run_program(resident, ops, ref_a)
            run_program(paged, ops, ref_b)
            assert ref_a == ref_b
            assert_trunks_identical(resident, paged)
            live = sorted(ref_a)
            if live:
                assert (span_payloads(resident, live)
                        == span_payloads(paged, live)
                        == [ref_a[u] for u in live])
                for uid in live:
                    assert paged.get(uid) == ref_a[uid]
        finally:
            close_paged(paged)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(SMALL_UID, PAYLOAD), min_size=1, max_size=20))
    def test_spans_byte_identical(self, pairs):
        """Span reads materialize the same bytes on both tiers.

        Under a 2-page budget most batches exceed the pinnable working
        set, so the paged trunk degrades them to packed copies — the
        bytes must not care.
        """
        resident, paged = make_pair()
        try:
            reference: dict[int, bytes] = {}
            for uid, payload in pairs:
                resident.put(uid, payload)
                paged.put(uid, payload)
                reference[uid] = payload
            live = sorted(reference)
            assert (span_payloads(resident, live)
                    == span_payloads(paged, live)
                    == [reference[uid] for uid in live])
        finally:
            close_paged(paged)

    @settings(max_examples=20, deadline=None)
    @given(OPS)
    def test_page_image_roundtrip(self, ops):
        """freeze → serialise → adopt restores a paged trunk exactly."""
        _, paged = make_pair()
        fresh = MemoryTrunk(0, make_params("paged"),
                            registry=MetricsRegistry(),
                            spill_dir=None)
        try:
            reference: dict[int, bytes] = {}
            run_program(paged, ops, reference)
            image = persistence.trunk_to_bytes(paged)
            count = persistence.trunk_from_bytes(image, fresh)
            assert count == len(reference)
            assert dict(fresh.dump_cells()) == reference
            assert fresh.stats() == paged.stats()
        finally:
            close_paged(paged)
            close_paged(fresh)


class TestEvictionChurn:
    def test_wrap_churn_stays_identical_and_evicts(self):
        """A deterministic churn loop forces wraps *and* evictions."""
        resident, paged = make_pair()
        try:
            reference: dict[int, bytes] = {}
            for round_no in range(12):
                for uid in range(8):
                    tag = round_no * 8 + uid
                    payload = bytes([tag % 251]) * (40 + (tag * 37) % 140)
                    resident.put(uid, payload)
                    paged.put(uid, payload)
                    reference[uid] = payload
                victim = round_no % 8
                resident.remove(victim)
                paged.remove(victim)
                del reference[victim]
            assert_trunks_identical(resident, paged)
            stats = paged.stats()
            # Growing overwrites relocate, so the circular allocator had
            # to reclaim space one way or another.
            assert (stats.wraps + stats.defrag_passes
                    + stats.tail_advances) > 0
            assert stats.relocations > 0
            assert paged.storage.resident_pages <= PAGE_BUDGET
            live = sorted(reference)
            assert span_payloads(paged, live) == [reference[u] for u in live]
        finally:
            close_paged(paged)

    def test_eviction_metrics_are_real(self):
        """The fault/evict/writeback counters actually tick."""
        registry = MetricsRegistry()
        paged = MemoryTrunk(0, make_params("paged"), registry=registry)
        try:
            for uid in range(16):
                paged.put(uid, bytes([uid]) * 100)
            for uid in range(16):
                assert paged.get(uid) == bytes([uid]) * 100
            snap = registry.snapshot()

            def total(name):
                return sum(s["value"]
                           for s in snap[name]["series"])

            assert total("trunk.page.fault.total") > 0
            assert total("trunk.page.evict.total") > 0
            assert total("trunk.page.writeback.total") > 0
            assert paged.storage.resident_pages <= PAGE_BUDGET
        finally:
            close_paged(paged)

    def test_over_budget_span_batch_falls_back_to_copies(self):
        """A span batch wider than the budget degrades, never fails."""
        registry = MetricsRegistry()
        paged = MemoryTrunk(0, make_params("paged"), registry=registry)
        try:
            payloads = {uid: bytes([uid]) * 120 for uid in range(12)}
            for uid, payload in payloads.items():
                paged.put(uid, payload)
            uids = np.arange(12, dtype=np.uint64)
            spans = paged.bulk_get_spans(uids)
            for i in range(12):
                got = bytes(spans.arena[spans.starts[i]:spans.limits[i]])
                assert got == payloads[i]
            snap = registry.snapshot()
            fallbacks = sum(
                s["value"]
                for s in snap["trunk.page.span_fallback.total"]["series"])
            assert fallbacks >= 1
            assert paged.storage.pinned_pages == 0
        finally:
            close_paged(paged)

    def test_small_span_batch_pins_zero_copy(self):
        """A batch that fits the budget aliases the mapping (no copy)."""
        params = MemoryParams(trunk_size=TRUNK_SIZE, page_size=128,
                              storage="paged", storage_page_size=PAGE_SIZE,
                              page_budget=8)
        paged = MemoryTrunk(0, params, registry=MetricsRegistry())
        try:
            paged.put(1, b"a" * 40)
            paged.put(2, b"b" * 40)
            spans = paged.bulk_get_spans(np.array([1, 2], dtype=np.uint64))
            assert paged.storage.pinned_pages >= 1
            assert spans.arena is paged.storage.as_ndarray()
            paged.release_span_pins()
            assert paged.storage.pinned_pages == 0
        finally:
            close_paged(paged)


class TestConfigValidation:
    def test_paged_needs_aligned_trunk_size(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            MemoryParams(trunk_size=1000, storage="paged",
                         storage_page_size=256)

    def test_unknown_storage_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            MemoryParams(storage="holographic")
