"""Tests for the MemoryCloud facade and trunk persistence."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, MemoryParams
from repro.errors import CellNotFoundError, MemoryCloudError
from repro.memcloud import MemoryCloud
from repro.memcloud import persistence
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tfs import TrinityFileSystem
from repro.utils.varint import encode_varint

from ._images import checksummed, reference_image, trunk_from_bytes
from ._spans import stale


class TestKeyValue:
    def test_put_get_remove(self, cloud):
        cloud.put(10, b"ten")
        assert cloud.get(10) == b"ten"
        assert 10 in cloud
        cloud.remove(10)
        assert 10 not in cloud

    def test_get_missing(self, cloud):
        with pytest.raises(CellNotFoundError):
            cloud.get(123456)

    def test_len_counts_all_trunks(self, cloud):
        for uid in range(100):
            cloud.put(uid, b"x")
        assert len(cloud) == 100

    def test_size_of(self, cloud):
        cloud.put(1, b"12345")
        assert cloud.size_of(1) == 5

    def test_pin_yields_payload_view(self, cloud):
        cloud.put(1, b"pinme")
        with cloud.pin(1) as view:
            assert bytes(view) == b"pinme"

    def test_pin_releases_lock_on_exit(self, cloud):
        cloud.put(1, b"v")
        with cloud.pin(1):
            pass
        cloud.put(1, b"v2")  # would deadlock if the pin leaked its lock
        assert cloud.get(1) == b"v2"

    @settings(max_examples=20, deadline=None)
    @given(st.dictionaries(st.integers(0, 2**63), st.binary(max_size=128),
                           max_size=60))
    def test_matches_dict_semantics(self, reference):
        cloud = MemoryCloud(ClusterConfig(
            machines=3, trunk_bits=4,
            memory=MemoryParams(trunk_size=128 * 1024),
        ))
        for uid, value in reference.items():
            cloud.put(uid, value)
        assert len(cloud) == len(reference)
        for uid, value in reference.items():
            assert cloud.get(uid) == value


class TestIdsOutsideTheUidRange:
    """Only ``[0, 2**64)`` names a cell.  Reads of anything else find
    nothing, writes are refused, and the scalar and bulk paths agree —
    ``-1`` and ``-2`` used to equal the list table's empty and tombstone
    sentinels (``contains(-1)`` was True on an empty cloud)."""

    OUTSIDE = [-1, -2, -2**63, 2**64, 2**64 + 5]

    @pytest.mark.parametrize("cell_id", OUTSIDE)
    def test_reads_find_nothing(self, cloud, cell_id):
        for trunk_id in cloud.trunks:       # -1 mod 2**64 and friends
            cloud.put(2**64 - 1 - trunk_id, b"top")
        assert not cloud.contains(cell_id)
        assert cell_id not in cloud
        for read in (cloud.get, cloud.size_of, cloud.remove,
                     lambda c: cloud.bulk_get([c]),
                     lambda c: cloud.bulk_get_spans([c] * 20),
                     lambda c: cloud.bulk_get([1, c] * 200)):
            with pytest.raises(CellNotFoundError):
                read(cell_id)

    def test_negative_ids_in_an_int64_array(self, cloud):
        import numpy as np
        cloud.put(2**64 - 1, b"top")
        with pytest.raises(CellNotFoundError) as raised:
            cloud.bulk_get_spans(np.array([-1] * 20, dtype=np.int64))
        assert raised.value.cell_id == -1

    @pytest.mark.parametrize("cell_id", OUTSIDE)
    def test_writes_are_refused_before_anything_is_stored(self, cloud,
                                                          cell_id):
        def stats():
            return [trunk.stats() for trunk in cloud.trunks.values()]
        before = stats()
        with pytest.raises(MemoryCloudError):
            cloud.put(cell_id, b"x")
        for presize in (True, False):
            with pytest.raises(MemoryCloudError):
                cloud.bulk_put([cell_id], [b"x"], presize=presize)
        assert len(cloud) == 0 and stats() == before
        assert not cloud.contains(cell_id)


class TestPlacement:
    def test_every_cell_on_some_machine(self, cloud):
        for uid in range(200):
            cloud.put(uid, b"v")
            assert 0 <= cloud.machine_of(uid) < cloud.config.machines

    def test_cells_on_partition_the_keyspace(self, cloud):
        uids = set(range(300))
        for uid in uids:
            cloud.put(uid, b"v")
        seen = set()
        for machine in range(cloud.config.machines):
            for uid in cloud.cells_on(machine):
                assert uid not in seen
                seen.add(uid)
        assert seen == uids

    def test_machine_stats_aggregates(self, cloud):
        for uid in range(100):
            cloud.put(uid, b"y" * 32)
        total = sum(
            cloud.machine_stats(m).cell_count
            for m in range(cloud.config.machines)
        )
        assert total == 100

    def test_total_byte_accounting(self, cloud):
        for uid in range(50):
            cloud.put(uid, b"z" * 64)
        live = cloud.total_live_bytes()
        assert live >= 50 * (64 + 16)
        assert cloud.total_committed_bytes() >= live

    def test_defragment_all(self, cloud):
        for uid in range(50):
            cloud.put(uid, b"a" * 64)
        for uid in range(0, 50, 2):
            cloud.remove(uid)
        assert cloud.defragment_all() >= 1
        for uid in range(1, 50, 2):
            assert cloud.get(uid) == b"a" * 64


class TestPersistence:
    def test_trunk_image_roundtrip(self, cloud, rng):
        reference = {}
        for _ in range(200):
            uid = rng.getrandbits(60)
            value = bytes(rng.getrandbits(8)
                          for _ in range(rng.randrange(100)))
            cloud.put(uid, value)
            reference[uid] = value
        tfs = TrinityFileSystem(datanodes=3, replication=2)
        persistence.backup_all(cloud, tfs)
        # Wipe a trunk, restore it, verify every cell.
        trunk_id = next(iter(cloud.trunks))
        lost = dict(cloud.trunks[trunk_id].dump_cells())
        from repro.memcloud.trunk import MemoryTrunk
        cloud.trunks[trunk_id] = MemoryTrunk(trunk_id, cloud.config.memory)
        restored = persistence.restore_trunk(cloud, trunk_id, tfs)
        assert restored == len(lost)
        for uid, value in reference.items():
            assert cloud.get(uid) == value

    def test_image_format_guard(self, cloud):
        from repro.memcloud.trunk import MemoryTrunk
        trunk = MemoryTrunk(0, cloud.config.memory)
        with pytest.raises(MemoryCloudError, match="magic"):
            trunk_from_bytes(b"XXXXjunk", trunk)

    def test_image_truncation_detected(self, cloud):
        cloud.put(1, b"payload-bytes")
        trunk_id = None
        for tid, trunk in cloud.trunks.items():
            if 1 in trunk:
                trunk_id = tid
        image = persistence.trunk_to_bytes(cloud.trunks[trunk_id])
        from repro.memcloud.trunk import MemoryTrunk
        fresh = MemoryTrunk(0, cloud.config.memory)
        with pytest.raises(MemoryCloudError, match="truncated"):
            trunk_from_bytes(image[:-4], fresh)

    @pytest.fixture
    def loaded(self, cloud):
        """The cloud with 300 cells, and the fullest trunk's id."""
        for uid in range(300):
            cloud.put(uid, bytes([uid % 251]) * 90)
        return cloud, max(cloud.trunks, key=lambda t: len(cloud.trunks[t]))

    def refused(self, cloud, trunk_id, image, match):
        """``image`` carries a good checksum and is still turned away,
        by the parser and before the installed trunk is touched."""
        from repro.memcloud.trunk import MemoryTrunk
        installed = cloud.trunks[trunk_id]
        cells = dict(installed.dump_cells())
        with pytest.raises(MemoryCloudError, match=match):
            persistence._parse_image(image, cloud.config.memory)
        with pytest.raises(MemoryCloudError, match=match):
            persistence.adopt_trunk_image(cloud, trunk_id, image)
        assert cloud.trunks[trunk_id] is installed
        assert dict(installed.dump_cells()) == cells
        fresh = MemoryTrunk(trunk_id, cloud.config.memory)
        with pytest.raises(MemoryCloudError, match=match):
            trunk_from_bytes(image, fresh)
        assert len(fresh) == 0 and fresh.stats().committed_bytes == 0

    def test_bytes_after_the_last_page_are_refused(self, loaded):
        cloud, trunk_id = loaded
        body = persistence.trunk_to_bytes(cloud.trunks[trunk_id])[:-4]
        self.refused(cloud, trunk_id, checksummed(body + b"\0" * 8),
                     "8 bytes after")

    def test_a_short_last_page_is_refused(self, loaded):
        cloud, trunk_id = loaded
        page = cloud.config.memory.page_size
        body = persistence.trunk_to_bytes(cloud.trunks[trunk_id])[:-4]
        self.refused(cloud, trunk_id, checksummed(body[:-10]),
                     f"holds {page - 10}, should hold {page}")
        # ... and when the recorded length agrees with what is there
        cut = len(body) - page - len(encode_varint(page))
        assert body[cut:-page] == encode_varint(page)
        short = body[:cut] + encode_varint(page - 10) + body[-page:-10]
        self.refused(cloud, trunk_id, checksummed(short),
                     f"records {page - 10} bytes")

    def test_a_page_the_trunk_does_not_have_is_refused(self, loaded):
        cloud, trunk_id = loaded
        trunk = cloud.trunks[trunk_id]
        state = trunk.freeze_image_state()
        state["pages"][-1] = trunk.params.trunk_size // trunk.params.page_size
        self.refused(cloud, trunk_id, reference_image(trunk, state),
                     f"page {state['pages'][-1]} .* should hold 0")

    TRUNK = 256 * 1024

    @pytest.mark.parametrize("column,value,row", [
        (1, 15, 0),                   # the header would start before 0
        (1, TRUNK - 89, -1),          # offset + reserved past the end
        (1, 2**64 - 40, 3),           # ... and not by wrapping the sum
        (3, TRUNK, 0),                # reserved larger than the trunk
        (3, 2**64 - 1, -1),
        (2, 91, 5),                   # size > reserved
    ])
    def test_a_cell_outside_its_trunk_is_refused(self, loaded, column, value,
                                                 row):
        cloud, trunk_id = loaded
        trunk = cloud.trunks[trunk_id]
        assert trunk.params.trunk_size == self.TRUNK
        state = trunk.freeze_image_state()
        assert set(state["cells"][:, 2].tolist()) == {90}
        state["cells"][row, column] = value
        self.refused(cloud, trunk_id, reference_image(trunk, state),
                     "does not fit")
        # the last byte of the trunk is a cell's to use
        state = trunk.freeze_image_state()
        state["cells"][row, 1] = self.TRUNK - 90
        persistence._parse_image(reference_image(trunk, state),
                                 cloud.config.memory)

    def test_a_table_that_stops_short_is_refused(self, loaded):
        """Fewer varints than the header announces: the parser reports
        it as an unusable image, not as the codec's ``ValueError``."""
        cloud, trunk_id = loaded
        trunk = cloud.trunks[trunk_id]
        state = trunk.freeze_image_state()
        whole = reference_image(trunk, state)
        state.update(pages=[], raw=[])
        tail = len(reference_image(trunk, state)) - 4 - 1   # the page count
        for cut in (tail, tail - 1, tail - 40):
            self.refused(cloud, trunk_id, checksummed(whole[:cut]),
                         "malformed")

    def test_the_intact_image_still_loads(self, loaded):
        cloud, trunk_id = loaded
        trunk = cloud.trunks[trunk_id]
        cells = dict(trunk.dump_cells())
        image = persistence.trunk_to_bytes(trunk)
        assert image == reference_image(trunk)
        assert persistence.adopt_trunk_image(cloud, trunk_id,
                                             image) == len(cells)
        assert dict(cloud.trunks[trunk_id].dump_cells()) == cells

    def test_backup_returns_bytes_written(self, cloud):
        cloud.put(1, b"x" * 100)
        tfs = TrinityFileSystem(datanodes=3, replication=1)
        written = persistence.backup_all(cloud, tfs)
        assert written > 100
        assert len(tfs.list_files("/trinity/trunks/")) == len(cloud.trunks)


class TestShadowFollowsTrunkReplacement:
    """A checked cloud's shadow mirrors every trunk the cloud replaces:
    emptied (a machine's memory lost) or adopted from an image (restore,
    recovery, checkpoint load).  Otherwise the cloud reads through a
    stale shadow and ``verify_shadow`` reports a divergence the cloud
    never had."""

    @pytest.fixture(params=["resident", "paged"])
    def checked_cloud(self, request):
        config = ClusterConfig(machines=2, trunk_bits=2, memory=MemoryParams(
            trunk_size=64 * 1024, storage=request.param, page_size=1024,
            page_budget=4))
        with checking():
            cloud = MemoryCloud(config, MetricsRegistry())
        for uid in range(20):
            cloud.put(uid, b"v%d" % uid)
        yield cloud
        cloud.release_arenas()

    def test_restore_after_a_change(self, checked_cloud):
        cloud = checked_cloud
        tfs = TrinityFileSystem()
        persistence.backup_all(cloud, tfs)
        cloud.put(3, b"changed")
        cloud.put(100, b"new")
        trunk_id = cloud.trunk_for(3).trunk_id
        persistence.restore_trunk(cloud, trunk_id, tfs)
        assert cloud.get(3) == b"v3"
        cloud.verify_shadow()

    def test_adopted_images_reach_the_shadow(self, checked_cloud):
        images = {trunk_id: persistence.trunk_to_bytes(trunk)
                  for trunk_id, trunk in checked_cloud.trunks.items()}
        with checking():
            cloud = MemoryCloud(checked_cloud.config, MetricsRegistry())
        try:
            assert persistence.adopt_trunk_images(cloud, images) == 20
            assert cloud.get(3) == b"v3"
            cloud.bulk_put([3, 200], [b"w3", b"w200"])
            cloud.verify_shadow()
        finally:
            cloud.release_arenas()

    def test_an_image_adopted_over_a_live_trunk_reaches_the_shadow(
            self, checked_cloud):
        """Images reach a cloud's trunks only through ``replace_trunk``
        (loading one into a bare trunk object is test-side only), so the
        shadow adopts what the cloud adopts, over cells both held."""
        cloud = checked_cloud
        trunk_id = cloud.trunk_for(3).trunk_id
        new = next(uid for uid in range(300, 400)
                   if cloud.trunk_for(uid).trunk_id == trunk_id)
        other = MemoryCloud(cloud.config, MetricsRegistry())
        try:
            other.put(3, b"from the image")
            other.put(new, b"only in the image")
            image = persistence.trunk_to_bytes(other.trunks[trunk_id])
        finally:
            other.release_arenas()
        persistence.adopt_trunk_image(cloud, trunk_id, image)
        cloud.verify_shadow()
        assert cloud.bulk_get([3, new]) == [b"from the image",
                                            b"only in the image"]
        cloud.put(3, b"changed after")
        cloud.verify_shadow()

    def test_a_lost_trunk_is_lost_in_the_shadow_too(self, checked_cloud):
        cloud = checked_cloud
        cloud.replace_trunk(cloud.trunk_for(3).trunk_id)
        assert 3 not in cloud
        cloud.verify_shadow()


def _paged_config(spill_dir=None) -> ClusterConfig:
    return ClusterConfig(machines=2, trunk_bits=2, memory=MemoryParams(
        trunk_size=64 * 1024, storage="paged", page_size=1024,
        page_budget=4, spill_dir=spill_dir))


class TestArenaWiring:
    """The cloud decides how its trunks are backed, once, and every
    trunk it ever installs is backed that way."""

    def test_replace_trunk_carries_the_epoch_and_stales_old_spans(self, cloud):
        for uid in range(40):
            cloud.put(uid, b"v" * 20)
        read = cloud.bulk_get_spans(list(range(40)))
        before = cloud.epoch_vector()
        fresh = cloud.replace_trunk(0)
        assert cloud.trunks[0] is fresh and len(fresh) == 0
        after = cloud.epoch_vector()
        assert after[0] > before[0] and after[1:] == before[1:]
        assert stale(read) == [0]

    def test_two_paged_clouds_cannot_share_a_spill_dir(self, tmp_path):
        """They would map the same page files and read each other's
        bytes; the second is refused and the first loses nothing."""
        import gc
        import os
        config = _paged_config(spill_dir=str(tmp_path))
        first = MemoryCloud(config)
        first.put(1, b"AAAAAAAA")
        with pytest.raises(MemoryCloudError, match="trunk-00000.pages"):
            MemoryCloud(config)
        gc.collect()    # whatever the refused cloud made is collected
        assert first.get(1) == b"AAAAAAAA"
        assert len(os.listdir(tmp_path)) == len(first.trunks)
        first.release_arenas()
        assert os.listdir(tmp_path) == []
        MemoryCloud(config).release_arenas()    # the directory is free again

    def test_use_after_release_is_a_cloud_error(self):
        cloud = MemoryCloud(_paged_config())
        cloud.put(1, b"one")
        cloud.release_arenas()
        for use in (lambda: cloud.get(1), lambda: cloud.put(2, b"two"),
                    lambda: cloud.bulk_get([1])):
            with pytest.raises(MemoryCloudError, match="after close"):
                use()


class TestEpochColumn:
    """The cloud's epoch column is the one source of trunk epochs: after
    every mutation kind ``epoch_vector()`` is what the installed trunks
    report, only the owner's component moved, and none moved back."""

    @staticmethod
    def moved(cloud, before, owners) -> tuple:
        """Check the column against the trunks and that exactly the
        components of ``owners`` rose; returns the vector now."""
        after = cloud.epoch_vector()
        assert after == tuple(cloud.trunks[t].mutation_epoch
                              for t in range(len(after)))
        assert cloud.mutation_epoch() == sum(after)
        assert [t for t, (old, new) in enumerate(zip(before, after))
                if new != old] == sorted(owners)
        assert all(new >= old for old, new in zip(before, after))
        return after

    def test_each_mutation_kind_moves_its_owner_only(self, cloud):
        def owner(uid):
            return int(cloud.trunks_of_array([uid])[0])

        epochs = cloud.epoch_vector()
        cloud.put(1, b"one")
        epochs = self.moved(cloud, epochs, {owner(1)})
        cloud.put(2, b"two" * 10)
        epochs = self.moved(cloud, epochs, {owner(2)})
        cloud.trunk_for(2).resize(2, 300)           # grow
        epochs = self.moved(cloud, epochs, {owner(2)})
        cloud.remove(1)
        epochs = self.moved(cloud, epochs, {owner(1)})
        cloud.note_cell_write(2)                    # an accessor write
        epochs = self.moved(cloud, epochs, {owner(2)})
        cloud.trunk_for(2).defragment()
        epochs = self.moved(cloud, epochs, {owner(2)})
        assert cloud.defragment_all() == len(cloud.trunks)
        epochs = self.moved(cloud, epochs, set(cloud.trunks))
        image = persistence.trunk_to_bytes(cloud.trunk_for(2))
        retired = cloud.trunk_for(2)
        persistence.adopt_trunk_image(cloud, owner(2), image)   # adopted
        epochs = self.moved(cloud, epochs, {owner(2)})
        assert cloud.trunk_for(2) is not retired
        assert retired.mutation_epoch < epochs[owner(2)]
        cloud.replace_trunk(5)                      # emptied
        epochs = self.moved(cloud, epochs, {5})
        assert cloud.get(2) == b"two" * 10 + bytes(270)

    def test_machine_failure_and_recovery_move_the_lost_trunks(self, cluster):
        client = cluster.new_client()
        for uid in range(200):
            client.put_cell(uid, bytes([uid % 251]) * 8)
        cluster.backup_to_tfs()
        cloud = cluster.cloud
        lost = set(cloud.addressing.trunks_of(1))
        epochs = cloud.epoch_vector()
        cluster.fail_machine(1)
        epochs = self.moved(cloud, epochs, lost)
        cluster.report_failure(1)
        self.moved(cloud, epochs, lost)
        assert client.get_cell(7) == bytes([7]) * 8

    def test_a_standalone_trunk_owns_a_one_slot_column(self, cloud):
        from repro.memcloud.trunk import MemoryTrunk
        trunk = MemoryTrunk(3, cloud.config.memory, registry=MetricsRegistry())
        epochs = cloud.epoch_vector()
        assert trunk.mutation_epoch == 0
        trunk.put(3, b"alone")
        trunk.touch()
        assert trunk.mutation_epoch == 2
        assert trunk._epoch_slots.obj.tolist() == [2]
        self.moved(cloud, epochs, set())            # the cloud's stood
