"""Property-based storage-tier equivalence: resident vs paged trunks.

The storage tier must be invisible to trunk semantics: any interleaving
of put / bulk_put / remove / overwrite / resize / defrag — including
ones that force wraps and constant page eviction (tiny page budget) —
must leave a paged trunk byte-identical to a resident one, down to the
allocator accounting and the hash table's probe-exact counters.
"""

from __future__ import annotations

import dataclasses
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import ClusterConfig, MemoryParams
from repro.errors import MemoryCloudError
from repro.memcloud import MemoryCloud, persistence
from repro.memcloud.trunk import MemoryTrunk
from repro.obs import MetricsRegistry

from ._images import reference_image, trunk_from_bytes
from ._spans import payloads, trunk_spans

TRUNK_SIZE = 2048
PAGE_SIZE = 256          # 8 pages per trunk
PAGE_BUDGET = 2          # almost nothing stays resident: constant eviction

SMALL_UID = st.integers(min_value=0, max_value=23)
PAYLOAD = st.binary(max_size=48)

# One "program": an interleaved list of trunk operations.
OP = st.one_of(
    st.tuples(st.just("put"), SMALL_UID, PAYLOAD),
    st.tuples(st.just("remove"), SMALL_UID),
    st.tuples(st.just("bulk"),
              st.lists(st.tuples(SMALL_UID, PAYLOAD), max_size=12)),
    st.tuples(st.just("resize"), SMALL_UID,
              st.integers(min_value=0, max_value=96)),
    st.tuples(st.just("defrag")),
)
OPS = st.lists(OP, max_size=40)
# The same, plus a defragmentation attempted while one cell's lock is held.
PINNED_OPS = st.lists(
    st.one_of(OP, st.tuples(st.just("pinned_defrag"), SMALL_UID)),
    max_size=40,
)
_HEADER = struct.Struct("<QII")     # the in-arena cell header


def _churn_program() -> list[tuple]:
    """Removes, growth past reservation, wraps and a defrag, ending with
    garbage still in the arena (the state an image must round-trip)."""
    program: list[tuple] = []
    for round_no in range(12):
        for uid in range(8):
            tag = round_no * 8 + uid
            program.append(
                ("put", uid, bytes([tag % 251]) * (40 + (tag * 37) % 140)))
        program.append(("remove", round_no % 8))
        if round_no == 5:
            program.append(("defrag",))
    # A remove may compact on its own; a growing overwrite just
    # relocates, so its old slot is still garbage when the image is cut.
    program.append(("put", 1, b"g" * 200))
    return program


CHURN = _churn_program()


def make_params(storage: str) -> MemoryParams:
    return MemoryParams(
        trunk_size=TRUNK_SIZE, page_size=PAGE_SIZE, storage=storage,
        page_budget=PAGE_BUDGET,
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
    """Every payload, copied out of one batched read of the trunk."""
    return payloads(trunk_spans(trunk, np.asarray(uids, dtype=np.uint64)))


def frozen_state(trunk: MemoryTrunk) -> dict:
    """Committed bytes, allocator state and the cell table (in uid order:
    the table is listed in hash-index order, which a rebuild may change)."""
    state = trunk.freeze_image_state()
    state["cells"] = sorted(map(tuple, state["cells"].tolist()))
    return state


def close_paged(paged: MemoryTrunk) -> None:
    paged.storage.close()


def spans_of_cells(trunk: MemoryTrunk) -> dict[int, tuple[int, int]]:
    """uid → payload span ``[start, limit)`` of every live cell, as
    :meth:`MemoryTrunk.span_table` lists them."""
    epoch, keys, states, starts, limits = trunk.span_table()
    assert epoch == trunk.mutation_epoch
    live = states == 1
    return dict(zip(keys[live].tolist(),
                    zip(starts[live].tolist(), limits[live].tolist())))


def assert_table_contract(trunk: MemoryTrunk, reference: dict) -> None:
    """The cell table against the arena and the scalar reads.

    Every span ``span_table`` lists holds what ``get`` returns, behind a
    header naming the cell; ``stats()`` is a from-scratch recount of
    those headers; and the used region ``[tail, head)`` is disjoint live
    footprints plus exactly the garbage.
    """
    spans = spans_of_cells(trunk)
    assert sorted(spans) == sorted(reference)
    tail = trunk._committed_tail
    live = reserved = 0
    footprints = []         # (circular distance from the tail, bytes)
    for uid, (start, limit) in spans.items():
        assert (bytes(trunk.storage.read(start, limit)) == trunk.get(uid)
                == reference[uid])
        header = _HEADER.unpack(trunk.storage.read(start - _HEADER.size,
                                                   start))
        assert header[:2] == (uid, limit - start) and header[1] <= header[2]
        live += _HEADER.size + header[1]
        reserved += _HEADER.size + header[2]
        footprints.append(((start - _HEADER.size - tail) % TRUNK_SIZE,
                           _HEADER.size + header[2]))
    stats = trunk.stats()
    assert (stats.cell_count, stats.live_bytes, stats.reserved_bytes) == (
        len(spans), live, reserved)
    used = trunk._append_head - tail
    if trunk._wrapped:
        used += TRUNK_SIZE
    end = 0
    for position, size in sorted(footprints):
        assert end <= position
        end = position + size
    assert end <= used == reserved + stats.garbage_bytes


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
        """Span reads materialize the same bytes on both tiers: in place
        on the resident trunk, a copy of whole pages on the paged one.
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

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    @settings(max_examples=20, deadline=None)
    @given(OPS)
    def test_trunk_image_roundtrip(self, storage, ops):
        """churn → image → adopt restores a trunk exactly, on both tiers:
        cells, committed bytes, ``stats()`` with every allocator counter,
        and an epoch strictly above the replaced incarnation's."""
        cloud = MemoryCloud(
            ClusterConfig(machines=1, trunk_bits=1,
                          memory=make_params(storage)),
            MetricsRegistry())
        try:
            old = cloud.trunks[0]
            reference: dict[int, bytes] = {}
            run_program(old, CHURN, reference)
            churned = old.stats()
            assert (churned.wraps and churned.relocations
                    and churned.defrag_passes and churned.garbage_bytes)
            run_program(old, ops, reference)
            stats, state = old.stats(), frozen_state(old)
            image = persistence.trunk_to_bytes(old)
            # One varint run, and still byte for byte what the per-value
            # codec wrote (format 3): either side reads the other's.
            assert image == reference_image(old)
            count = persistence.adopt_trunk_image(cloud, 0, image)
            fresh = cloud.trunks[0]
            assert fresh is not old and count == len(reference)
            assert dict(fresh.dump_cells()) == reference
            assert fresh.stats() == stats
            assert frozen_state(fresh) == state
            assert fresh.mutation_epoch > old.mutation_epoch
            # The restored allocator keeps working where the old one was.
            fresh.put(99, b"after-restore")
            assert fresh.get(99) == b"after-restore"
        finally:
            cloud.release_arenas()


@pytest.mark.parametrize("storage", ["resident", "paged"])
class TestCellTableContract:
    """What a trunk's cell table promises, after every step of a program:
    spans, stats and the used region agree with the arena
    (:func:`assert_table_contract`); a cell's lock survives in-place
    updates and defragmentation and is new after a relocation or a
    re-insert; and defragmentation aborts exactly when a lock is held."""

    @settings(max_examples=30, deadline=None)
    @given(PINNED_OPS)
    # Relocations into the slot they freed, a re-insert, a pinned pass.
    @example([("put", 2, b"a"), ("put", 2, b"b" * 40), ("resize", 2, 96),
              ("remove", 2), ("put", 2, b"c"), ("pinned_defrag", 2)])
    def test_table_contract_after_every_op(self, storage, ops):
        trunk = MemoryTrunk(0, make_params(storage),
                            registry=MetricsRegistry())
        try:
            reference: dict[int, bytes] = {}
            retired: dict = {}      # the last lock of a removed cell
            for op in ops:
                # Half the cells have had their lock handed out, half not.
                locks = {uid: trunk.lock_of(uid) for uid in reference
                         if uid % 2 == 0}
                before = trunk.stats()
                pinned = op[0] == "pinned_defrag" and op[1] in reference
                if op[0] == "pinned_defrag":
                    self._pinned_defrag(trunk, op[1], reference)
                else:
                    run_program(trunk, [op], reference)
                after = trunk.stats()
                assert after.defrag_aborts == before.defrag_aborts + pinned
                if op[0] in ("defrag", "pinned_defrag") and not pinned:
                    assert after.defrag_passes == before.defrag_passes + 1
                assert_table_contract(trunk, reference)
                self._check_locks(trunk, op, locks, reference,
                                  after.relocations - before.relocations)
                # A re-inserted cell does not inherit its old lock, even
                # when it lands in the slot the removal freed.
                retired.update((uid, lock) for uid, lock in locks.items()
                               if uid not in reference)
                for uid in [uid for uid in retired if uid in reference]:
                    assert trunk.lock_of(uid) is not retired.pop(uid)
        finally:
            trunk.storage.close()

    @staticmethod
    def _pinned_defrag(trunk, uid, reference) -> None:
        if uid not in reference:        # nothing held: the pass runs
            assert trunk.defragment()
            return
        spans = spans_of_cells(trunk)
        with trunk.lock_of(uid):
            assert not trunk.defragment()
        assert spans_of_cells(trunk) == spans       # nothing moved

    @staticmethod
    def _check_locks(trunk, op, locks, reference, relocated) -> None:
        if op[0] == "bulk":
            touched = {uid for uid, _ in op[1]}
        elif op[0] in ("put", "remove", "resize"):
            touched = {op[1]}
        else:
            touched = set()
        for uid, lock in locks.items():
            if uid not in reference:    # removed: its lock went with it
                continue
            same = trunk.lock_of(uid) is lock
            if uid not in touched or not relocated:
                assert same
            elif op[0] != "bulk":       # the one cell the op relocated
                assert not same


@pytest.mark.parametrize("storage", ["resident", "paged"])
class TestDamagedImage:
    """A damaged or foreign image ends in ``MemoryCloudError`` — never
    another exception type, never a half-adopted trunk."""

    @staticmethod
    def _cloud(storage, **overrides):
        params = dataclasses.replace(make_params(storage), **overrides)
        return MemoryCloud(
            ClusterConfig(machines=1, trunk_bits=1, memory=params),
            MetricsRegistry())

    @staticmethod
    def _adopt_or_reject(cloud, image, reference):
        """Adopt ``image``; whatever happens, trunk 0 reads ``reference``."""
        installed = cloud.trunks[0]
        try:
            persistence.adopt_trunk_image(cloud, 0, image)
        except MemoryCloudError:
            assert cloud.trunks[0] is installed
        assert dict(cloud.trunks[0].dump_cells()) == reference

    def test_every_prefix_and_header_flip(self, storage):
        cloud = self._cloud(storage)
        try:
            reference: dict[int, bytes] = {}
            run_program(cloud.trunks[0], CHURN, reference)
            image = persistence.trunk_to_bytes(cloud.trunks[0])
            for cut in range(len(image)):
                with pytest.raises(MemoryCloudError):
                    persistence.adopt_trunk_image(cloud, 0, image[:cut])
                assert cloud.trunks[0].get(1) == reference[1]
            header = len(image) - sum(
                len(raw) for raw in
                cloud.trunks[0].freeze_image_state()["raw"])
            for position in range(header):
                for bit in (0x01, 0x80):
                    flipped = bytearray(image)
                    flipped[position] ^= bit
                    self._adopt_or_reject(cloud, bytes(flipped), reference)
            self._adopt_or_reject(cloud, image, reference)
        finally:
            cloud.release_arenas()

    def test_other_version_rejected(self, storage):
        cloud = self._cloud(storage)
        try:
            cloud.trunks[0].put(1, b"kept")
            image = persistence.trunk_to_bytes(cloud.trunks[0])
            assert image[4] == 3          # the one version, one byte
            for version in (1, 2, 4):
                body = image[:4] + bytes([version]) + image[5:-4]
                foreign = body + zlib.crc32(body).to_bytes(4, "little")
                with pytest.raises(MemoryCloudError, match="version"):
                    persistence.adopt_trunk_image(cloud, 0, foreign)
            assert cloud.trunks[0].get(1) == b"kept"
        finally:
            cloud.release_arenas()

    def test_foreign_shape_and_used_target_rejected(self, storage):
        source, target = self._cloud(storage), self._cloud(
            storage, page_size=PAGE_SIZE // 2)
        try:
            source.trunks[0].put(1, b"from-source")
            target.trunks[0].put(2, b"kept")
            image = persistence.trunk_to_bytes(source.trunks[0])
            with pytest.raises(MemoryCloudError, match="shape"):
                persistence.adopt_trunk_image(target, 0, image)
            assert target.trunks[0].get(2) == b"kept"
            # trunk_from_bytes loads into the trunk it is given, which
            # must be empty: adopting over live cells would orphan them.
            with pytest.raises(MemoryCloudError, match="empty"):
                trunk_from_bytes(image, source.trunks[0])
            assert source.trunks[0].get(1) == b"from-source"
        finally:
            source.release_arenas()
            target.release_arenas()


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

    def test_over_budget_span_batch_is_a_private_copy(self):
        """A span batch wider than the budget reads, never fails, and
        evicts as it goes: the budget still holds afterwards."""
        paged = MemoryTrunk(0, make_params("paged"),
                            registry=MetricsRegistry())
        try:
            payloads = {uid: bytes([uid]) * 120 for uid in range(12)}
            for uid, payload in payloads.items():
                paged.put(uid, payload)
            uids = np.arange(12, dtype=np.uint64)
            evictions = paged.storage._m_evict.value
            spans = trunk_spans(paged, uids)
            for i in range(12):
                got = bytes(spans.buffer[spans.starts[i]:spans.limits[i]])
                assert got == payloads[i]
            assert not np.shares_memory(spans.buffer,
                                        paged.storage.as_ndarray())
            assert paged.storage._m_evict.value > evictions
            assert paged.storage.resident_pages <= PAGE_BUDGET
            assert paged.storage.pinned_pages == 0
        finally:
            close_paged(paged)

    def test_small_span_batch_is_a_private_copy_too(self):
        """A batch the budget could hold is copied all the same: whole
        pages, nothing pinned, nothing aliasing the mapping."""
        params = MemoryParams(trunk_size=TRUNK_SIZE, page_size=PAGE_SIZE,
                              storage="paged", page_budget=8)
        paged = MemoryTrunk(0, params, registry=MetricsRegistry())
        try:
            paged.put(1, b"a" * 40)
            paged.put(2, b"b" * 40)
            spans = trunk_spans(paged, np.array([1, 2], dtype=np.uint64))
            assert payloads(spans) == [b"a" * 40, b"b" * 40]
            assert len(spans.buffer) == PAGE_SIZE
            assert not np.shares_memory(spans.buffer,
                                        paged.storage.as_ndarray())
            assert paged.storage.pinned_pages == 0
        finally:
            close_paged(paged)


class TestConfigValidation:
    def test_paged_needs_aligned_trunk_size(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            MemoryParams(trunk_size=1000, storage="paged", page_size=256)

    def test_unknown_storage_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            MemoryParams(storage="holographic")
