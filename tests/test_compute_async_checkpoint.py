"""Tests for the async engine and checkpoint manager."""

import pytest

from repro.compute import AsyncEngine, CheckpointManager
from repro.errors import ComputeError, RecoveryError
from repro.tfs import TrinityFileSystem

INF = 10**9


def bfs_relax(values, vertex, topo):
    """Async BFS relaxation: wake neighbors whose level improved."""
    wake = []
    level = values[vertex]
    for neighbor in topo.out_neighbors(vertex):
        neighbor = int(neighbor)
        if values[neighbor] > level + 1:
            values[neighbor] = level + 1
            wake.append(neighbor)
    return wake


class TestAsyncEngine:
    def test_async_bfs_matches_reference(self, rmat_topology, rmat_networkx):
        networkx = pytest.importorskip("networkx")
        values = [INF] * rmat_topology.n
        values[0] = 0
        engine = AsyncEngine(rmat_topology)
        result = engine.run(bfs_relax, values, [0])
        reference = networkx.single_source_shortest_path_length(
            rmat_networkx, 0
        )
        for vertex in range(rmat_topology.n):
            expected = reference.get(vertex, INF)
            assert result.values[vertex] == expected

    def test_terminates(self, rmat_topology):
        values = [INF] * rmat_topology.n
        values[0] = 0
        result = AsyncEngine(rmat_topology).run(bfs_relax, values, [0])
        assert result.terminated
        assert result.updates > 0
        assert result.elapsed > 0

    def test_update_budget_respected(self, rmat_topology):
        values = [INF] * rmat_topology.n
        values[0] = 0
        result = AsyncEngine(rmat_topology).run(
            bfs_relax, values, [0], max_updates=10,
        )
        assert result.updates <= 10

    def test_messages_counted_for_cross_machine_wakes(self, rmat_topology):
        values = [INF] * rmat_topology.n
        values[0] = 0
        result = AsyncEngine(rmat_topology).run(bfs_relax, values, [0])
        assert result.messages > 0

    def test_snapshots_written_at_interruptions(self, rmat_topology):
        tfs = TrinityFileSystem(datanodes=3, replication=2)
        manager = CheckpointManager(tfs, job="async-bfs")
        values = [INF] * rmat_topology.n
        values[0] = 0
        engine = AsyncEngine(rmat_topology, checkpoints=manager,
                             interrupt_every=100)
        result = engine.run(bfs_relax, values, [0])
        assert result.snapshots
        assert manager.saved == len(result.snapshots)

    def test_empty_frontier_terminates_immediately(self, rmat_topology):
        values = [INF] * rmat_topology.n
        result = AsyncEngine(rmat_topology).run(bfs_relax, values, [])
        assert result.updates == 0
        assert result.terminated

    def test_bad_initial_values(self, rmat_topology):
        with pytest.raises(ComputeError):
            AsyncEngine(rmat_topology).run(bfs_relax, [1, 2], [0])


class TestCheckpointManager:
    @pytest.fixture
    def manager(self):
        return CheckpointManager(
            TrinityFileSystem(datanodes=3, replication=2),
            job="test", every=3,
        )

    def test_save_load_roundtrip(self, manager):
        manager.save(5, [1.0, 2.0, None], metadata={"superstep": 5})
        values, metadata = manager.load(5)
        assert values == [1.0, 2.0, None]
        assert metadata == {"superstep": 5}

    def test_load_latest(self, manager):
        manager.save(1, [1])
        manager.save(9, [9])
        manager.save(4, [4])
        tag, values, _ = manager.load_latest()
        assert tag == 9
        assert values == [9]

    def test_load_latest_empty_raises(self, manager):
        with pytest.raises(RecoveryError):
            manager.load_latest()

    def test_maybe_checkpoint_interval(self, manager):
        saved = [manager.maybe_checkpoint(step, [step])
                 for step in range(9)]
        # every=3: saves after supersteps 2, 5, 8.
        assert saved == [False, False, True] * 3
        assert manager.tags() == [2, 5, 8]

    def test_prune_keeps_newest(self, manager):
        for tag in range(6):
            manager.save(tag, [tag])
        removed = manager.prune(keep=2)
        assert removed == 4
        assert manager.tags() == [4, 5]

    def test_prune_rejects_negative_keep(self, manager):
        for tag in range(5):
            manager.save(tag, [tag])
        with pytest.raises(RecoveryError, match=">= 0"):
            manager.prune(keep=-1)
        assert manager.tags() == [0, 1, 2, 3, 4]

    def test_prune_drops_every_file_of_a_tag_in_one_commit(self, manager):
        from unittest import mock

        from repro.config import ClusterConfig, MemoryParams
        from repro.memcloud import MemoryCloud
        from repro.obs import MetricsRegistry
        cloud = MemoryCloud(ClusterConfig(
            machines=2, trunk_bits=2,
            memory=MemoryParams(trunk_size=64 * 1024)), MetricsRegistry())
        cloud.put(7, b"seven")
        for tag in range(6):
            manager.save(tag, [tag])
            manager.save_state(tag, {"superstep": tag})
            manager.save_cloud(tag, cloud)
        with mock.patch.object(
                TrinityFileSystem, "_save_manifest", autospec=True,
                side_effect=TrinityFileSystem._save_manifest) as commits:
            assert manager.prune(keep=2) == 4
        assert commits.call_count == 1
        prefix = "/trinity/checkpoints/test/"
        left = {path[len(prefix):len(prefix) + 8]
                for path in manager.tfs.list_files()}
        assert left == {"00000004", "00000005"}
        assert len(manager.tfs.list_files()) == 2 * (2 + len(cloud.trunks))
        assert manager.tags() == [4, 5]
        # one block per file, two replicas each: nothing leaked
        assert sum(node.block_count for node in manager.tfs.nodes) == (
            2 * len(manager.tfs.list_files()))

    def test_unserialisable_values_rejected(self, manager):
        with pytest.raises(RecoveryError, match="JSON"):
            manager.save(0, [object()])

    def test_bsp_integration(self, rmat_topology):
        from repro.compute import BspEngine, VertexProgram

        class Count(VertexProgram):
            def init(self, ctx, v):
                ctx.set_value(v, 0)

            def compute(self, ctx, v, messages):
                ctx.value = ctx.value + 1
                if ctx.superstep >= 6:
                    ctx.vote_to_halt()

        manager = CheckpointManager(
            TrinityFileSystem(datanodes=3, replication=2),
            job="bsp", every=2,
        )
        engine = BspEngine(rmat_topology)
        engine.run(Count(), max_supersteps=8,
                   on_superstep=manager.maybe_checkpoint)
        assert manager.tags()  # checkpoints were written
        # Restoring the latest checkpoint gives a consistent value vector.
        _, values, _ = manager.load_latest()
        assert len(values) == rmat_topology.n

    def test_interval_validated(self):
        with pytest.raises(RecoveryError):
            CheckpointManager(TrinityFileSystem(), every=0)
