"""The simulated cluster fabric and its accounting primitives.

Three pieces:

* :class:`SimClock` — a monotonically advancing simulated wall clock.
* :class:`SimNetwork` — charges every transfer against the
  :class:`~repro.config.NetworkParams` cost model and keeps global
  counters (messages, bytes, transfers) that benchmarks report.
* :class:`ParallelRound` — the unit of simulated parallel execution.
  Algorithms run in *rounds* (a BSP superstep, one hop of a breadth-first
  exploration wave): every machine accumulates compute time and outgoing
  messages, and the round's elapsed time is::

      max over machines (compute[m] / effective_parallelism
                         + serialised send time of m's outgoing traffic)

  which is the standard alpha-beta bulk-synchronous model.  Results are
  still computed for real — the round only decides what the simulated
  clock says.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..config import PER_MESSAGE_OVERHEAD, NetworkParams
from ..obs import Counter, MetricsRegistry, get_registry

# Skew can't go below 1 (max/mean); resolve the interesting 1x-10x band.
_SKEW_BUCKETS = (1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)


class SimClock:
    """Simulated wall clock (seconds)."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError(f"cannot advance clock by negative {dt}")
        self.now += dt
        return self.now

    def reset(self) -> None:
        self.now = 0.0


@dataclass
class NetworkCounters:
    """Cumulative traffic statistics."""

    messages: int = 0
    payload_bytes: int = 0
    transfers: int = 0        # physical sends after packing
    local_messages: int = 0   # messages that never left the machine


class SimNetwork:
    """The fabric: per-transfer cost model plus global accounting."""

    def __init__(self, params: NetworkParams | None = None,
                 registry: MetricsRegistry | None = None):
        self.params = params or NetworkParams()
        self.clock = SimClock()
        self.counters = NetworkCounters()
        self.obs = registry if registry is not None else get_registry()
        #: Optional :class:`~repro.faults.FaultInjector`; when set, round
        #: transfers and synchronous RPCs pay for injected drops,
        #: duplicates, delays and partitions.
        self.faults = None
        self._machine_sent: dict[int, Counter] = {}
        self._m_rounds = self.obs.counter("net.round.total")
        self._h_elapsed = self.obs.histogram("net.round.elapsed.seconds")
        self._h_compute = self.obs.histogram("net.round.compute.seconds")
        self._h_latency = self.obs.histogram("net.round.latency.seconds")
        self._h_send = self.obs.histogram("net.round.send.seconds")
        self._h_skew = self.obs.histogram("net.round.traffic_skew",
                                          buckets=_SKEW_BUCKETS)

    def machine_sent(self, machine: int) -> Counter:
        """Cached per-machine sent-bytes counter (traffic skew series)."""
        counter = self._machine_sent.get(machine)
        if counter is None:
            counter = self.obs.counter("net.machine.sent.bytes",
                                       machine=machine)
            self._machine_sent[machine] = counter
        return counter

    def transfer(self, src: int, dst: int, size: int,
                 messages: int = 1) -> float:
        """Charge one machine-to-machine transfer; returns its duration.

        Messages between co-located components (``src == dst``) skip the
        wire entirely — the memory cloud makes local access a pointer
        dereference — but still pay the per-message handling overhead.
        """
        self.counters.messages += messages
        self.counters.payload_bytes += size
        if src == dst:
            # Local deliveries never hit the wire: they must not show up
            # in the per-machine sent-bytes series (traffic skew would be
            # polluted by co-located message volume).
            self.counters.local_messages += messages
            return messages * PER_MESSAGE_OVERHEAD
        self.machine_sent(src).inc(size)
        self.counters.transfers += 1
        return self.params.transfer_time(size, messages)

    def reset_counters(self) -> None:
        self.counters = NetworkCounters()


@dataclass
class _MachineLoad:
    compute: float = 0.0   # parallelisable CPU seconds
    serial: float = 0.0    # non-parallelisable CPU seconds
    # dst -> [message count, payload bytes]
    outgoing: dict[int, list[int]] = field(
        default_factory=lambda: defaultdict(lambda: [0, 0])
    )


class ParallelRound:
    """Accumulates one round of simulated parallel work.

    Example — one hop of a query wave::

        wave = ParallelRound(network)
        wave.add_compute(machine, cells_touched * CELL_ACCESS_COST)
        wave.add_message(machine, remote_machine, payload_bytes)
        elapsed = wave.finish(parallelism=THREADS_PER_MACHINE)
    """

    def __init__(self, network: SimNetwork):
        self.network = network
        self._loads: dict[int, _MachineLoad] = defaultdict(_MachineLoad)
        self._finished = False

    def add_compute(self, machine: int, seconds: float) -> None:
        """Add per-machine CPU work (divided by parallelism at finish)."""
        if seconds < 0:
            raise ValueError("compute time cannot be negative")
        self._loads[machine].compute += seconds

    def add_serial_compute(self, machine: int, seconds: float) -> None:
        """CPU work that does not parallelise (charged undivided)."""
        if seconds < 0:
            raise ValueError("compute time cannot be negative")
        self._loads[machine].serial += seconds

    def add_message(self, src: int, dst: int, size: int,
                    count: int = 1) -> None:
        """Record ``count`` messages totalling ``size`` payload bytes."""
        if size < 0 or count < 0:
            raise ValueError("message size/count cannot be negative")
        entry = self._loads[src].outgoing[dst]
        entry[0] += count
        entry[1] += size

    def finish(self, parallelism: int = 1) -> float:
        """Charge the round to the network and advance the clock.

        Returns the round's elapsed simulated time: the slowest machine's
        compute (spread over ``parallelism`` threads) plus its serialised
        outgoing transfer time.
        """
        if self._finished:
            raise RuntimeError("ParallelRound.finish() called twice")
        self._finished = True
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        elapsed = 0.0
        slowest = (0.0, 0.0, 0.0)      # breakdown of the slowest machine
        sent_bytes = []
        remote_pairs = []              # fault-charged after the load scan
        params = self.network.params
        for machine, load in self._loads.items():
            compute = load.serial + load.compute / parallelism
            # Sends to different destinations pipeline: propagation
            # latencies overlap, wire occupancy and per-message CPU
            # serialise on the sender's NIC.
            max_latency = 0.0
            serial_send = 0.0
            machine_bytes = 0
            for dst, (count, size) in load.outgoing.items():
                if not count and not size:
                    # add_message(..., count=0) creates the entry without
                    # any traffic; charging it would fabricate a physical
                    # transfer and inflate counters.transfers.
                    continue
                self.network.transfer(machine, dst, size, count)
                if dst == machine:
                    # Local delivery: per-message handling only, and no
                    # contribution to the wire-bytes skew series.
                    serial_send += count * PER_MESSAGE_OVERHEAD
                    continue
                machine_bytes += size
                remote_pairs.append((machine, dst, size, count))
                latency_part, serial_part = params.transfer_components(
                    size, count
                )
                max_latency = max(max_latency, latency_part)
                serial_send += serial_part
            total = compute + max_latency + serial_send
            if total >= elapsed:
                elapsed = total
                slowest = (compute, max_latency, serial_send)
            if machine_bytes:
                sent_bytes.append(machine_bytes)
        network = self.network
        if network.faults is not None and remote_pairs:
            # Sorted pair order keeps the injector's hash-token sequence
            # independent of dict insertion order, so the reference and
            # vectorized BSP paths draw identical faults (a checked run
            # compares round timings bit-for-bit).
            for src, dst, size, count in sorted(remote_pairs):
                elapsed += network.faults.charge_transfer_faults(
                    network, src, dst, size, count
                )
        network._m_rounds.inc()
        network._h_elapsed.observe(elapsed)
        network._h_compute.observe(slowest[0])
        network._h_latency.observe(slowest[1])
        network._h_send.observe(slowest[2])
        if len(sent_bytes) > 1:
            mean = sum(sent_bytes) / len(sent_bytes)
            network._h_skew.observe(max(sent_bytes) / mean)
        network.clock.advance(elapsed)
        return elapsed

    @property
    def machines_touched(self) -> int:
        return len(self._loads)
