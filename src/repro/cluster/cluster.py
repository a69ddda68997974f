"""The TrinityCluster facade: wiring every component together.

Owns the memory cloud, the fabric, TFS, the slave/proxy/client roles and
the fault-tolerance machinery, and exposes the orchestration entry points
(fail a machine, report a failure, drive recovery, add a machine).
"""

from __future__ import annotations

from ..config import ClusterConfig
from ..errors import CellNotFoundError, RecoveryError
from ..faults import FaultInjector, FaultPlan
from ..memcloud import MemoryCloud, persistence
from ..net import MessageRuntime, SimNetwork
from ..obs import MetricsRegistry, MetricsReport, get_registry
from ..tfs import TrinityFileSystem
from .client import Client
from .heartbeat import HeartbeatMonitor
from .leader import LeaderElection
from .proxy import Proxy
from .recovery import BufferedLog, RecoveryCoordinator
from .slave import Slave


class TrinityCluster:
    """A complete simulated Trinity deployment.

    Examples
    --------
    >>> from repro.config import ClusterConfig
    >>> cluster = TrinityCluster(ClusterConfig(machines=4))
    >>> client = cluster.new_client()
    >>> client.put_cell(7, b"hello")
    >>> client.get_cell(7)
    b'hello'
    """

    def __init__(self, config: ClusterConfig | None = None,
                 schema=None, enable_buffered_log: bool = True,
                 disk_root=None, registry: MetricsRegistry | None = None,
                 faults: FaultPlan | None = None):
        self.config = config or ClusterConfig()
        self.obs = registry if registry is not None else get_registry()
        self.cloud = MemoryCloud(self.config, registry=self.obs)
        self.network = SimNetwork(self.config.network, registry=self.obs)
        self.runtime = MessageRuntime(self.network, schema=schema)
        self.faults = (FaultInjector(faults, registry=self.obs)
                       if faults is not None else None)
        # RPCs and parallel rounds on this fabric now pay for injected
        # drops/duplicates/delays/partitions; crashes fire in run_chaos().
        self.network.faults = self.faults
        # With a disk_root, TFS blocks live in real files and the whole
        # deployment can be restored after a process restart via
        # restore_from_tfs().
        self.tfs = TrinityFileSystem(
            datanodes=max(3, self.config.machines),
            replication=self.config.replication,
            disk_root=disk_root,
        )
        self.tfs.faults = self.faults
        self.buffered_log = (
            BufferedLog(self.config.machines, self.config.replication)
            if enable_buffered_log else None
        )
        self.slaves: dict[int, Slave] = {
            machine_id: Slave(machine_id, self)
            for machine_id in range(self.config.machines)
        }
        proxy_base = self.config.machines
        self.proxies: list[Proxy] = [
            Proxy(proxy_base + i, self) for i in range(self.config.proxies)
        ]
        self._client_base = proxy_base + self.config.proxies
        self._clients_created = 0
        self.heartbeat = HeartbeatMonitor(self)
        self.election = LeaderElection(self.tfs)
        self.recovery = RecoveryCoordinator(self)
        self.leader_id = self.election.elect(self.slaves.keys())
        self._install_kv_protocols()
        self.recovery.persist_addressing()

    # -- roles ---------------------------------------------------------------

    def new_client(self) -> Client:
        """Create a client handle with its own fabric address."""
        client = Client(self._client_base + self._clients_created, self)
        self._clients_created += 1
        return client

    def alive_machines(self) -> list[int]:
        return [m for m, s in self.slaves.items() if s.alive]

    # -- built-in key-value protocols -------------------------------------

    def _install_kv_protocols(self) -> None:
        for machine_id, slave in self.slaves.items():

            # One-byte reply status: b"F"+data = found, b"N" = no such
            # cell, b"K" = write acknowledged, b"W" = wrong machine (the
            # caller's table replica is stale — re-sync and re-route).
            # A slave must refuse cells it does not own: serving a
            # misrouted write would log it under the wrong origin, and
            # that record would never be replayed when the true owner
            # crashes.
            def _owns_after_sync(slave, cell_id):
                if slave.owns(cell_id):
                    return True
                slave.sync_addressing()
                return slave.owns(cell_id)

            def get_handler(message, payload, slave=slave):
                cell_id = int.from_bytes(payload[:8], "little")
                if not _owns_after_sync(slave, cell_id):
                    return b"W"
                try:
                    return b"F" + slave.local_get(cell_id)
                except CellNotFoundError:
                    return b"N"

            def put_handler(message, payload, slave=slave):
                cell_id = int.from_bytes(payload[:8], "little")
                if not _owns_after_sync(slave, cell_id):
                    return b"W"
                slave.local_put(cell_id, bytes(payload[8:]))
                return b"K"

            self.runtime.register_handler(
                machine_id, "__get_cell__", get_handler
            )
            self.runtime.register_handler(
                machine_id, "__put_cell__", put_handler
            )

    # -- persistence ---------------------------------------------------------

    def backup_to_tfs(self) -> int:
        """Back every trunk up to TFS; truncates satisfied buffered logs."""
        written = persistence.backup_all(self.cloud, self.tfs)
        if self.buffered_log is not None:
            for machine_id in self.slaves:
                self.buffered_log.truncate(machine_id)
        return written

    def restore_from_tfs(self) -> int:
        """Reload every trunk from its TFS image; returns cells restored.

        Together with a disk-backed TFS this restarts a whole deployment
        from cold: construct a fresh cluster with the same ``disk_root``
        and call this to repopulate the memory cloud.
        """
        restored = 0
        for trunk_id in self.cloud.trunks:
            if self.tfs.exists(persistence.trunk_image_path(trunk_id)):
                restored += persistence.restore_trunk(
                    self.cloud, trunk_id, self.tfs
                )
        return restored

    # -- failure handling ----------------------------------------------------

    def fail_machine(self, machine_id: int) -> None:
        """Crash one slave: its trunks' in-memory contents are lost."""
        slave = self.slaves[machine_id]
        slave.fail()
        self.runtime.fail_machine(machine_id)
        for trunk_id in self.cloud.addressing.trunks_of(machine_id):
            # Losing the machine loses the DRAM: model it honestly.
            self.cloud.replace_trunk(trunk_id)
        if machine_id == self.leader_id:
            self.leader_id = self.election.elect(self.alive_machines())

    def report_failure(self, machine_id: int) -> None:
        """A failed access was detected: confirm and run recovery."""
        slave = self.slaves.get(machine_id)
        if slave is None or slave.alive:
            return  # spurious report — the paper confirms before recovery
        self.recovery.recover_machine(machine_id)

    def detect_and_recover(self, max_ticks: int = 100) -> list[int]:
        """Heartbeat path: detect silent machines and recover each."""
        failed = self.heartbeat.run_until_detection(max_ticks)
        for machine_id in failed:
            if machine_id == self.leader_id:
                self.leader_id = self.election.elect(self.alive_machines())
            self.recovery.recover_machine(machine_id)
        return failed

    def run_chaos(self, max_ticks: int = 100) -> list[int]:
        """Drive the attached fault plan through simulated time.

        Each heartbeat tick: fire the plan's crashes scheduled for that
        round, let the heartbeat monitor detect the silence, and run the
        Section 6.2 recovery for whatever it reports — re-electing the
        leader when the dead machine held it.  Returns the machines that
        were crashed-and-recovered, in detection order.
        """
        if self.faults is None:
            raise RecoveryError(
                "run_chaos needs a FaultPlan: construct the cluster with "
                "faults=FaultPlan(seed=...)"
            )
        recovered = []
        for _ in range(max_ticks):
            tick = self.heartbeat.time + 1
            self.faults.begin_round(tick)
            for machine_id in self.faults.take_crashes(tick):
                slave = self.slaves.get(machine_id)
                if slave is None or not slave.alive:
                    continue  # already dead (or never existed): no-op
                if len(self.alive_machines()) <= 1:
                    continue  # refuse to kill the last machine standing
                self.fail_machine(machine_id)
            for machine_id in self.heartbeat.tick():
                if machine_id == self.leader_id:
                    self.leader_id = self.election.elect(
                        self.alive_machines()
                    )
                self.recovery.recover_machine(machine_id)
                recovered.append(machine_id)
        return recovered

    def add_machine(self) -> int:
        """Join a new machine: relocate trunks to it and broadcast.

        The relocated trunks are reloaded from TFS on their new owner (the
        data "moves" machine; in the simulation the trunk contents are
        already present, so only placement and the table change).
        """
        new_id = max(self.slaves) + 1
        self.slaves[new_id] = Slave(new_id, self)
        self.runtime.recover_machine(new_id)
        self.cloud.addressing.add_machine(new_id)
        self.recovery.persist_addressing()
        self.recovery.broadcast_addressing()
        # Late registration of the built-in protocols for the newcomer.
        self._install_kv_protocols()
        self.heartbeat.machine_restarted(new_id)
        if self.buffered_log is not None:
            self.buffered_log.rebalance(self.alive_machines())
        return new_id

    # -- observability -------------------------------------------------------

    def metrics_report(self) -> MetricsReport:
        """Everything the deployment recorded: trunk allocator series,
        network rounds, per-slave request latency, engine spans."""
        return MetricsReport.from_registry(self.obs)

    def restart_machine(self, machine_id: int) -> None:
        """Bring a crashed slave back (empty; it rejoins the pool)."""
        slave = self.slaves[machine_id]
        if slave.alive:
            raise RecoveryError(f"machine {machine_id} is already alive")
        slave.restart()
        self.runtime.recover_machine(machine_id)
        # Announce the rejoin to the failure detector: otherwise a crash
        # before the first periodic beat would never be re-detected.
        self.heartbeat.machine_restarted(machine_id)
        if self.buffered_log is not None:
            # Returning capacity can lift origins back to full log
            # replication: while few machines were alive the ring may
            # have offered a single holder, and waiting for the next
            # crash to rebalance would be one crash too late.
            self.buffered_log.rebalance(self.alive_machines())
