"""Configuration objects shared across the Trinity reproduction.

The paper's cluster is parameterised by the number of machines ``m``, the
number of memory trunks ``2**p`` (Section 3), and the network fabric
(Section 7 lists both an IPoIB and a gigabit adapter).  The simulation keeps
all of those knobs explicit so benchmarks can sweep them the way the paper's
evaluation does.

All times are seconds and all sizes are bytes unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class NetworkParams:
    """Cost model for the simulated cluster fabric.

    The defaults approximate the paper's gigabit-Ethernet deployment: ~100 us
    one-way latency including the software stack, 1 Gbps payload bandwidth,
    and a small fixed per-message CPU overhead that message packing (Section
    4.2) exists to amortise.
    """

    latency: float = 100e-6
    """One-way propagation + OS stack latency per network transfer."""

    bandwidth: float = 125e6
    """Payload bytes per second (1 Gbps = 125 MB/s)."""

    per_message_overhead: float = 5e-8
    """CPU cost of handling one logical message.  Deliberately small:
    Trinity packs small messages into shared transfers (Section 4.2), so
    the marginal per-message work is a ~16-byte memcpy plus amortised
    dispatch (~50 ns) — contrast with the ~4 us two-sided handshake the
    PBGL/MPI cost model charges per message."""

    packing_enabled: bool = True
    """Pack small messages bound for the same machine into one transfer."""

    def transfer_time(self, size: int, messages: int = 1) -> float:
        """Simulated wall-clock time to move ``size`` payload bytes.

        ``messages`` logical messages are carried; with packing enabled the
        whole transfer pays one latency hop, otherwise each message pays its
        own.
        """
        latency_part, serial_part = self.transfer_components(size, messages)
        return latency_part + serial_part

    def transfer_components(self, size: int,
                            messages: int = 1) -> tuple[float, float]:
        """Split one transfer's cost into (latency, serialised) parts.

        The latency part overlaps with other in-flight transfers from the
        same sender (the NIC pipelines sends to different destinations);
        the serialised part (wire occupancy + per-message CPU) does not.
        :class:`~repro.net.simnet.ParallelRound` uses the split to model
        a machine fanning out to many peers in one round.
        """
        if size < 0:
            raise ConfigError(f"negative transfer size: {size}")
        wire = size / self.bandwidth
        overhead = messages * self.per_message_overhead
        if self.packing_enabled:
            # Packed buffers stream: one latency to first byte, then
            # wire-limited.
            return self.latency, wire + overhead
        # Unpacked small messages each pay their own round-trip setup —
        # the cost message packing exists to remove (Section 4.2).
        return messages * self.latency, wire + overhead


@dataclass(frozen=True)
class MemoryParams:
    """Parameters for memory trunks (Sections 3 and 6.1)."""

    trunk_size: int = 4 * 1024 * 1024
    """Reserved virtual address space per trunk.  The paper reserves 2 GB;
    the simulation defaults to 4 MB, sized to its graphs (10^4-10^6 nodes
    over 256 trunks), and benchmarks raise it when they need to.  As in the
    paper, reserving is free: a trunk costs RAM only for the pages written."""

    page_size: int = 4096
    """Commit granularity: pages are committed as the append head advances."""

    defrag_trigger_ratio: float = 0.25
    """Run the defragmentation daemon once this fraction of committed bytes
    is garbage (gaps left by cell removal or relocation)."""

    reservation_factor: float = 2.0
    """Short-lived reservation: when a cell grows, over-allocate by this
    factor so repeated growth does not keep relocating the cell (Section
    6.1).  ``1.0`` disables reservation."""

    spinlock_budget: int = 1 << 16
    """Number of spins before ``CellLockedError`` (deadlock guard)."""

    storage: str = "resident"
    """Byte backing per trunk: ``"resident"`` keeps the whole arena in
    RAM (the default, behaviour-identical to the pre-tier trunk);
    ``"paged"`` backs the arena with an mmap'd page file and keeps at
    most ``page_budget`` pages of it resident — graphs bigger than RAM
    load and serve at the cost of page faults (Section 3's 10^9-node
    claims need exactly this spill tier)."""

    storage_page_size: int = 4096
    """Paging granularity of the ``"paged"`` storage tier (bytes).
    Independent of ``page_size``, which is the *commit* accounting
    granularity shared by both tiers."""

    page_budget: int = 64
    """Maximum RAM-resident pages per paged trunk.  Touching more pages
    evicts the least recently used unpinned one (dirty pages are written
    back first).  Ignored by resident storage."""

    spill_dir: str | None = None
    """Directory for paged trunks' page files, one cloud at a time: the
    files are created exclusively, and a second cloud on the same
    directory is refused.  ``None`` lets each owner (the cloud, or a
    standalone trunk) manage a private temp location that is removed
    with it."""

    layout_policy: object = None
    """Adjacency layout selection for schemas bound to this cloud:
    ``None`` (keep each schema's own policy — the adaptive default),
    ``"adaptive"``, ``"raw"`` (pre-layout fixed-width wire format), or a
    :class:`~repro.tsl.layout.LayoutPolicy` with custom thresholds.
    Installed onto a schema's edge-annotated ``List<long>`` fields when a
    :class:`~repro.graph.GraphBuilder` or :class:`~repro.graph.Graph`
    binds that schema to a cloud built with these params."""

    def __post_init__(self) -> None:
        if self.trunk_size <= 0:
            raise ConfigError("trunk_size must be positive")
        if self.storage not in ("resident", "paged"):
            raise ConfigError(
                f"storage must be 'resident' or 'paged', "
                f"got {self.storage!r}"
            )
        if self.storage_page_size <= 0:
            raise ConfigError("storage_page_size must be positive")
        if self.storage == "paged" and self.trunk_size % self.storage_page_size:
            raise ConfigError(
                "trunk_size must be a multiple of storage_page_size "
                "when storage='paged'"
            )
        if self.page_budget < 1:
            raise ConfigError("page_budget must be >= 1")
        if self.page_size <= 0 or self.trunk_size % self.page_size:
            raise ConfigError("trunk_size must be a multiple of page_size")
        if not 0.0 < self.defrag_trigger_ratio <= 1.0:
            raise ConfigError("defrag_trigger_ratio must be in (0, 1]")
        if self.reservation_factor < 1.0:
            raise ConfigError("reservation_factor must be >= 1.0")
        try:
            self.resolved_layout_policy()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_layout_policy(self):
        """The ``layout_policy`` knob as a LayoutPolicy (or None)."""
        from .tsl.layout import resolve_layout_policy
        return resolve_layout_policy(self.layout_policy)


@dataclass(frozen=True)
class ComputeParams:
    """Per-machine compute cost model used by the simulated clock.

    These constants determine only the *simulated* times reported by
    benchmarks; algorithm results are computed for real.  The defaults are
    calibrated so that a 13-degree power-law graph reproduces the paper's
    headline numbers (3-hop people search < 100 ms on 8 machines; one
    PageRank superstep on a 1B-node graph < 60 s on 8 machines).
    """

    cell_access_cost: float = 1.0e-7
    """Simulated time to hash a UID and touch its cell in a trunk."""

    edge_scan_cost: float = 6e-9
    """Simulated time per adjacency-list entry scanned."""

    vertex_compute_cost: float = 1.5e-8
    """Simulated per-vertex user-code cost in a BSP superstep."""

    threads_per_machine: int = 24
    """Hardware parallelism per machine (paper: 2 CPUs x 12 threads)."""

    barrier_cost: float = 1e-3
    """Synchronisation cost per BSP barrier."""


@dataclass(frozen=True)
class ClusterConfig:
    """Top-level description of a simulated Trinity cluster."""

    machines: int = 8
    """Number of slave machines."""

    trunk_bits: int = 8
    """p: the memory cloud is partitioned into 2**p trunks (Section 3).
    The paper requires ``2**p > m`` so each machine hosts several trunks."""

    proxies: int = 0
    """Optional middle-tier proxies (Section 2)."""

    replication: int = 2
    """TFS replication factor for persisted trunks."""

    network: NetworkParams = field(default_factory=NetworkParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    compute: ComputeParams = field(default_factory=ComputeParams)

    def __post_init__(self) -> None:
        if self.machines <= 0:
            raise ConfigError("machines must be positive")
        if not 1 <= self.trunk_bits <= 24:
            raise ConfigError("trunk_bits must be in [1, 24]")
        if 2 ** self.trunk_bits <= self.machines:
            raise ConfigError(
                f"2**trunk_bits ({2 ** self.trunk_bits}) must exceed the "
                f"machine count ({self.machines}); the paper requires "
                "multiple trunks per machine"
            )
        if self.proxies < 0:
            raise ConfigError("proxies must be non-negative")
        if self.replication < 1:
            raise ConfigError("replication must be at least 1")

    @property
    def trunk_count(self) -> int:
        """Total number of memory trunks in the cloud (2**p)."""
        return 2 ** self.trunk_bits
