"""Tests: TFS durability across process restarts (disk-backed mode)."""


from repro.config import ClusterConfig, MemoryParams
from repro.memcloud import MemoryCloud, persistence
from repro.tfs import TrinityFileSystem


class TestDiskBackedTfs:
    def test_blocks_survive_reopen(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=3, replication=2,
                                block_size=64, disk_root=tmp_path)
        payload = bytes(range(256)) * 2
        tfs.write("/data/a", payload)
        tfs.write("/data/b", b"second file")

        reopened = TrinityFileSystem(datanodes=3, replication=2,
                                     block_size=64, disk_root=tmp_path)
        assert reopened.read("/data/a") == payload
        assert reopened.read("/data/b") == b"second file"
        assert reopened.list_files("/data/") == ["/data/a", "/data/b"]

    def test_overwrite_survives_reopen(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=2, replication=1,
                                disk_root=tmp_path)
        tfs.write("/f", b"v1")
        tfs.write("/f", b"v2-longer-content")
        reopened = TrinityFileSystem(datanodes=2, replication=1,
                                     disk_root=tmp_path)
        assert reopened.read("/f") == b"v2-longer-content"
        assert reopened.stat("/f").version == 2

    def test_delete_removes_disk_blocks(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=2, replication=2,
                                disk_root=tmp_path)
        tfs.write("/gone", b"x" * 100)
        tfs.delete("/gone")
        reopened = TrinityFileSystem(datanodes=2, replication=2,
                                     disk_root=tmp_path)
        assert not reopened.exists("/gone")
        # No stray block files left behind.
        assert not list(tmp_path.glob("node-*/*.blk"))

    def test_new_writes_after_reopen_do_not_collide(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=2, replication=1,
                                disk_root=tmp_path)
        tfs.write("/a", b"first")
        reopened = TrinityFileSystem(datanodes=2, replication=1,
                                     disk_root=tmp_path)
        reopened.write("/b", b"fresh block ids")
        assert reopened.read("/a") == b"first"
        assert reopened.read("/b") == b"fresh block ids"

    def test_a_crashed_commit_leaves_nothing_behind(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=3, replication=2,
                                block_size=64, disk_root=tmp_path)
        kept = bytes(range(256)) * 2
        tfs.write("/kept", kept)
        tfs.write("/replaced", b"old version")
        committed = set(tmp_path.glob("node-*/*.blk"))
        batch = tfs.batch()
        batch.__enter__()
        tfs.write("/replaced", b"new version, never committed" * 5)
        tfs.write("/fresh", b"x" * 300)
        tfs.delete("/kept")
        assert set(tmp_path.glob("node-*/*.blk")) > committed

        # the process dies here: the batch never exits
        reopened = TrinityFileSystem(datanodes=3, replication=2,
                                     block_size=64, disk_root=tmp_path)
        assert reopened.list_files() == ["/kept", "/replaced"]
        assert reopened.read("/kept") == kept
        assert reopened.read("/replaced") == b"old version"
        assert set(tmp_path.glob("node-*/*.blk")) == committed
        assert not list(tmp_path.glob("*.tmp"))

    def test_re_replicated_copies_survive_reopen(self, tmp_path):
        tfs = TrinityFileSystem(datanodes=3, replication=2,
                                block_size=64, disk_root=tmp_path)
        tfs.write("/r", b"block" * 40)
        tfs.nodes[0].fail()
        assert tfs.re_replicate() > 0
        placed = {block_id: sorted(holders) for block_id, holders
                  in tfs._block_locations.items()}
        reopened = TrinityFileSystem(datanodes=3, replication=2,
                                     block_size=64, disk_root=tmp_path)
        # the new holders were committed, so no copy is taken for an orphan
        assert {block_id: sorted(holders) for block_id, holders
                in reopened._block_locations.items()} == placed
        assert sum(node.block_count for node in reopened.nodes) == (
            2 * len(placed))
        assert reopened.read("/r") == b"block" * 40

    def test_whole_memory_cloud_survives_restart(self, tmp_path):
        """End to end: trunk images written before 'shutdown' restore a
        brand-new cloud in a brand-new 'process'."""
        config = ClusterConfig(machines=3, trunk_bits=4,
                               memory=MemoryParams(trunk_size=256 * 1024))
        cloud = MemoryCloud(config)
        reference = {uid: bytes([uid % 256]) * (uid % 40)
                     for uid in range(300)}
        for uid, value in reference.items():
            cloud.put(uid, value)
        tfs = TrinityFileSystem(datanodes=3, replication=2,
                                disk_root=tmp_path)
        persistence.backup_all(cloud, tfs)

        del cloud, tfs  # "process exit"

        tfs2 = TrinityFileSystem(datanodes=3, replication=2,
                                 disk_root=tmp_path)
        cloud2 = MemoryCloud(config)
        for trunk_id in cloud2.trunks:
            persistence.restore_trunk(cloud2, trunk_id, tfs2)
        for uid, value in reference.items():
            assert cloud2.get(uid) == value
