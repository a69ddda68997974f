"""Tests for cluster roles, heartbeats, leader election and recovery."""

import pytest

from repro.config import ClusterConfig
from repro.cluster import TrinityCluster
from repro.errors import (
    CellNotFoundError,
    LeaderElectionError,
    RecoveryError,
)


@pytest.fixture
def loaded_cluster(cluster, rng):
    """Cluster pre-loaded with 200 cells, backed up to TFS."""
    client = cluster.new_client()
    reference = {}
    for _ in range(200):
        uid = rng.getrandbits(60)
        value = bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 50)))
        client.put_cell(uid, value)
        reference[uid] = value
    cluster.backup_to_tfs()
    return cluster, client, reference


class TestRoles:
    def test_client_kv_roundtrip(self, cluster):
        client = cluster.new_client()
        client.put_cell(1, b"one")
        assert client.get_cell(1) == b"one"

    def test_client_missing_cell(self, cluster):
        client = cluster.new_client()
        with pytest.raises(CellNotFoundError):
            client.get_cell(999)

    def test_clients_have_distinct_addresses(self, cluster):
        a, b = cluster.new_client(), cluster.new_client()
        assert a.client_id != b.client_id

    def test_slave_owns_its_cells(self, cluster):
        client = cluster.new_client()
        client.put_cell(7, b"x")
        owner = cluster.cloud.machine_of(7)
        assert cluster.slaves[owner].owns(7)

    def test_proxy_scatter_gather(self):
        cluster = TrinityCluster(ClusterConfig(machines=3, proxies=1))
        for slave in cluster.slaves.values():
            slave.register_protocol(
                "count",
                lambda m, d, s=slave: s.machine_id.to_bytes(4, "little"),
            )
        proxy = cluster.proxies[0]
        replies = proxy.scatter_gather("count", b"")
        assert len(replies) == 3
        total = proxy.scatter_gather(
            "count", b"",
            combine=lambda rs: sum(int.from_bytes(r, "little") for r in rs),
        )
        assert total == 0 + 1 + 2

    def test_client_call_via_proxy(self):
        cluster = TrinityCluster(ClusterConfig(machines=2, proxies=1))
        cluster.proxies[0].register_protocol("hello", lambda m, d: b"world")
        client = cluster.new_client()
        assert client.call_proxy("hello", b"") == b"world"

    def test_no_proxy_raises(self, cluster):
        client = cluster.new_client()
        with pytest.raises(RecoveryError, match="proxy"):
            client.call_proxy("x", b"")

    def test_slave_protocol_counts_messages(self, cluster):
        slave = cluster.slaves[1]
        slave.register_protocol("ping", lambda m, d: b"pong")
        client = cluster.new_client()
        client.call(1, "ping", b"")
        assert slave.messages_handled == 1


class TestHeartbeat:
    def test_no_failures_no_detection(self, cluster):
        assert cluster.heartbeat.tick() == []

    def test_detects_after_threshold(self, cluster):
        cluster.slaves[2].fail()
        detected = []
        for _ in range(5):
            detected.extend(cluster.heartbeat.tick())
        assert detected == [2]
        assert cluster.heartbeat.missed_beats(2) >= 3

    def test_reports_failure_once(self, cluster):
        cluster.slaves[2].fail()
        total = []
        for _ in range(10):
            total.extend(cluster.heartbeat.tick())
        assert total == [2]

    def test_recovered_machine_beats_again(self, cluster):
        cluster.slaves[2].fail()
        cluster.heartbeat.run_until_detection()
        cluster.slaves[2].restart()
        assert cluster.heartbeat.tick() == []


class TestLeaderElection:
    def test_initial_leader_is_lowest(self, cluster):
        assert cluster.leader_id == 0
        assert cluster.election.is_leader(0)

    def test_epoch_increases(self, cluster):
        epoch = cluster.election.current_epoch()
        cluster.election.elect([1, 2, 3])
        assert cluster.election.current_epoch() == epoch + 1
        assert cluster.election.current_leader() == 1

    def test_no_candidates(self, cluster):
        with pytest.raises(LeaderElectionError):
            cluster.election.elect([])

    def test_leader_failure_triggers_reelection(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        old_leader = cluster.leader_id
        cluster.fail_machine(old_leader)
        assert cluster.leader_id != old_leader
        assert cluster.election.is_leader(cluster.leader_id)


class TestRecovery:
    def test_data_survives_machine_failure(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(2)
        for uid, value in reference.items():
            assert client.get_cell(uid) == value

    def test_failed_machine_owns_nothing_after_recovery(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(2)
        cluster.report_failure(2)
        assert cluster.cloud.addressing.trunks_of(2) == []

    def test_recovery_via_heartbeat_path(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(1)
        failed = cluster.detect_and_recover()
        assert failed == [1]
        for uid, value in reference.items():
            assert client.get_cell(uid) == value

    def test_buffered_log_covers_post_backup_writes(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        # Writes after the TFS backup live only in memory + buffered log.
        for uid in range(5000, 5050):
            client.put_cell(uid, b"fresh-%d" % uid)
            reference[uid] = b"fresh-%d" % uid
        cluster.fail_machine(3)
        for uid, value in reference.items():
            assert client.get_cell(uid) == value

    def test_two_sequential_failures(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        for uid in range(6000, 6020):
            client.put_cell(uid, b"x%d" % uid)
            reference[uid] = b"x%d" % uid
        cluster.fail_machine(1)
        assert all(client.get_cell(u) == v for u, v in reference.items())
        cluster.fail_machine(2)
        assert all(client.get_cell(u) == v for u, v in reference.items())

    def test_without_buffered_log_post_backup_writes_lost(self, rng):
        cluster = TrinityCluster(
            ClusterConfig(machines=4, trunk_bits=5),
            enable_buffered_log=False,
        )
        client = cluster.new_client()
        client.put_cell(1, b"backed-up")
        cluster.backup_to_tfs()
        # Find a cell landing on a specific machine, written after backup.
        victim = cluster.cloud.machine_of(1)
        uid = 2
        while cluster.cloud.machine_of(uid) != victim:
            uid += 1
        client.put_cell(uid, b"volatile")
        cluster.fail_machine(victim)
        assert client.get_cell(1) == b"backed-up"
        with pytest.raises(CellNotFoundError):
            client.get_cell(uid)

    def test_addressing_persisted_before_commit(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(0)
        cluster.report_failure(0)
        persisted = cluster.recovery.load_persisted_addressing()
        assert persisted == cluster.cloud.addressing

    def test_spurious_failure_report_ignored(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        recoveries = cluster.recovery.recoveries
        cluster.report_failure(1)  # machine 1 is alive
        assert cluster.recovery.recoveries == recoveries

    def test_slave_replicas_sync_after_recovery(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(2)
        cluster.report_failure(2)
        primary = cluster.cloud.addressing
        for machine_id, slave in cluster.slaves.items():
            if slave.alive:
                assert slave.addressing_replica == primary

    def test_restart_machine_rejoins_empty(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        cluster.fail_machine(3)
        cluster.report_failure(3)
        cluster.restart_machine(3)
        assert cluster.slaves[3].alive
        with pytest.raises(RecoveryError):
            cluster.restart_machine(3)  # already alive

    def test_failure_stales_old_spans_and_never_rewinds_epochs(
            self, loaded_cluster):
        """A lost trunk is *replaced*: readers of the dead incarnation
        must notice, and no epoch component may go backwards (a cache
        entry stamped before the crash would validate again)."""
        cluster, client, reference = loaded_cluster
        cloud = cluster.cloud
        groups = cloud.bulk_get_spans(list(reference))
        before = cloud.epoch_vector()
        lost = set(cloud.addressing.trunks_of(1))
        assert any(before[t] for t in lost)
        cluster.fail_machine(1)
        cluster.report_failure(1)
        after = cloud.epoch_vector()
        for trunk_id, (old, new) in enumerate(zip(before, after)):
            assert new > old if trunk_id in lost else new == old
        assert all(g.stale == (g.trunk.trunk_id in lost) for g in groups)
        assert all(client.get_cell(u) == v for u, v in reference.items())

    def test_paged_replacement_keeps_its_page_file_in_the_spill_dir(self):
        import os
        from repro.config import MemoryParams
        cluster = TrinityCluster(ClusterConfig(
            machines=2, trunk_bits=2, memory=MemoryParams(
                trunk_size=64 * 1024, storage="paged",
                storage_page_size=1024, page_budget=4)))
        cloud = cluster.cloud
        try:
            client = cluster.new_client()
            for uid in range(20):
                client.put_cell(uid, b"cell-%d" % uid)
            cluster.backup_to_tfs()
            cluster.fail_machine(0)
            files = sorted(os.listdir(cloud.spill_dir))
            assert files == [f"trunk-{t:05d}.pages" for t in cloud.trunks]
            for trunk in cloud.trunks.values():
                assert os.path.dirname(
                    trunk.storage.arena.path) == cloud.spill_dir
            cluster.report_failure(0)
            assert sorted(os.listdir(cloud.spill_dir)) == files
            assert all(client.get_cell(u) == b"cell-%d" % u
                       for u in range(20))
        finally:
            cloud.release_arenas()
        assert cloud.spill_dir is None


class TestJoin:
    def test_add_machine_rebalances(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        new_id = cluster.add_machine()
        assert len(cluster.cloud.addressing.trunks_of(new_id)) > 0
        for uid, value in reference.items():
            assert client.get_cell(uid) == value

    def test_new_machine_serves_requests(self, loaded_cluster):
        cluster, client, reference = loaded_cluster
        new_id = cluster.add_machine()
        # Find (or create) a cell owned by the new machine.
        uid = 9000
        while cluster.cloud.machine_of(uid) != new_id:
            uid += 1
        client.put_cell(uid, b"served-by-newcomer")
        assert client.get_cell(uid) == b"served-by-newcomer"
