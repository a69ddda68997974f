"""Tests for the async engine and checkpoint manager."""

import pytest

from repro.compute import AsyncEngine, CheckpointManager
from repro.config import BARRIER_COST
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

    def test_rounds_charge_no_barrier(self, rmat_topology):
        """A slice is a round of the one loop, but machines overlap in
        the async model: the loop charges it no barrier."""
        values = [INF] * rmat_topology.n
        values[0] = 0
        result = AsyncEngine(rmat_topology).run(bfs_relax, values, [0])
        assert 0 < result.elapsed < BARRIER_COST

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
        manager = CheckpointManager(tfs, job="async-bfs", every=2)
        values = [INF] * rmat_topology.n
        values[0] = 0
        engine = AsyncEngine(rmat_topology, checkpoints=manager)
        result = engine.run(bfs_relax, values, [0])
        assert result.snapshots
        assert manager.saved == len(result.snapshots)
        assert manager.tags() == result.snapshots

    def test_empty_frontier_terminates_immediately(self, rmat_topology):
        values = [INF] * rmat_topology.n
        result = AsyncEngine(rmat_topology).run(bfs_relax, values, [])
        assert result.updates == 0
        assert result.terminated

    def test_bad_initial_values(self, rmat_topology):
        with pytest.raises(ComputeError):
            AsyncEngine(rmat_topology).run(bfs_relax, [1, 2], [0])

    @pytest.mark.parametrize("frontier, max_updates", [
        (lambda n: [-1], 10), (lambda n: [n], 10),
        (lambda n: [0], -5), (lambda n: [0], 0),
    ], ids=["vertex-minus-one", "vertex-n", "negative-budget", "no-budget"])
    def test_bad_input_rejected_before_any_update(self, rmat_topology,
                                                  frontier, max_updates):
        n = rmat_topology.n
        ran = []

        def update(values, vertex, topo):
            ran.append(vertex)
            return ()

        with pytest.raises(ComputeError):
            AsyncEngine(rmat_topology).run(update, [0] * n, frontier(n),
                                           max_updates=max_updates)
        assert ran == []


class TestCheckpointManager:
    @pytest.fixture
    def manager(self):
        return CheckpointManager(
            TrinityFileSystem(datanodes=3, replication=2),
            job="test", every=3,
        )

    def test_prune_keeps_newest(self, manager):
        for tag in range(6):
            manager.save_state(tag, {"superstep": tag})
        removed = manager.prune(keep=2)
        assert removed == 4
        assert manager.tags() == [4, 5]

    def test_prune_rejects_negative_keep(self, manager):
        for tag in range(5):
            manager.save_state(tag, {"superstep": tag})
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
        assert len(manager.tfs.list_files()) == 2 * (1 + len(cloud.trunks))
        assert manager.tags() == [4, 5]
        # one block per file, two replicas each: nothing leaked
        assert sum(node.block_count for node in manager.tfs.nodes) == (
            2 * len(manager.tfs.list_files()))

    @staticmethod
    def _run_count(topology, every, supersteps):
        from repro.compute import BspEngine, VertexProgram

        class Count(VertexProgram):
            def init(self, ctx, v):
                ctx.set_value(v, 0)

            def compute(self, ctx, v, messages):
                ctx.value = ctx.value + 1

        manager = CheckpointManager(
            TrinityFileSystem(datanodes=3, replication=2),
            job="bsp", every=every,
        )
        BspEngine(topology, checkpoints=manager).run(
            Count(), max_supersteps=supersteps)
        return manager

    def test_maybe_checkpoint_interval(self, rmat_topology):
        """The engine images a run every ``every`` supersteps."""
        manager = self._run_count(rmat_topology, every=3, supersteps=9)
        # every=3: images after supersteps 2, 5, 8.
        assert manager.tags() == [2, 5, 8]
        assert manager.saved == 3

    def test_bsp_integration(self, rmat_topology):
        """An engine image restores a whole value vector."""
        manager = self._run_count(rmat_topology, every=2, supersteps=8)
        assert manager.tags() == [1, 3, 5, 7]
        values = manager.load_state(7)["values"]
        assert len(values) == rmat_topology.n
        assert set(values) == {8}

    def test_interval_validated(self):
        with pytest.raises(RecoveryError):
            CheckpointManager(TrinityFileSystem(), every=0)
