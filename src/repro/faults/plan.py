"""Deterministic fault schedules for the memory cloud.

A :class:`FaultPlan` is a *pure description* of what goes wrong in a run:
machine crashes keyed to round numbers (BSP supersteps or heartbeat
ticks), message drops / duplications / extra latency decided by a seeded
hash, network partitions over round intervals, and trunk-image read
corruption in TFS.  The plan holds no mutable state and every query is a
pure function of ``(seed, inputs)``, so the same plan replayed over the
same workload injects exactly the same faults — which is what lets the
chaos-equivalence test layer assert *bit-identical* results against the
fault-free run.

The stateful side (consuming crash events, counting metrics, charging
retries to the simulated clock) lives in
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass

from ..errors import ConfigError


@dataclass(frozen=True)
class CrashFault:
    """One scheduled machine crash.

    ``round`` is the unit of the hosting context: a BSP superstep when
    the plan is attached to a :class:`~repro.compute.bsp.BspEngine`, a
    heartbeat tick when attached to a
    :class:`~repro.cluster.cluster.TrinityCluster`.
    """

    round: int
    machine: int


@dataclass(frozen=True)
class Partition:
    """A network partition over the half-open round interval
    ``[start, end)``: machines in ``group`` cannot exchange messages
    with machines outside it while the partition is up."""

    start: int
    end: int
    group: frozenset

    def active(self, round_: int) -> bool:
        return self.start <= round_ < self.end

    def separates(self, src: int, dst: int) -> bool:
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, fully deterministic schedule of injected faults.

    Every probabilistic decision hashes ``(seed, kind, coordinates)``
    through BLAKE2b, so outcomes are reproducible across runs and
    independent of ``PYTHONHASHSEED``.

    Examples
    --------
    >>> plan = FaultPlan(seed=7, crashes=((3, 1),), drop_rate=0.1)
    >>> plan.crashes_at(3)
    [1]
    >>> plan.should_drop(0, 2, round_=5, attempt=0) == \\
    ...     plan.should_drop(0, 2, round_=5, attempt=0)
    True
    """

    seed: int = 0
    crashes: tuple = ()
    """``CrashFault`` entries (or plain ``(round, machine)`` pairs)."""

    drop_rate: float = 0.0
    """Per-transfer-attempt probability that the message is lost on the
    wire and must be retransmitted after a timeout."""

    duplicate_rate: float = 0.0
    """Probability a delivered transfer arrives twice; the receiver
    suppresses the copy by correlation id, the wire cost is still paid."""

    delay_rate: float = 0.0
    """Probability a transfer is struck by ``extra_latency`` seconds."""

    extra_latency: float = 500e-6
    """Extra seconds charged to a delayed transfer."""

    partitions: tuple = ()
    """``Partition`` entries (or plain ``(start, end, machines)``)."""

    corrupt_rate: float = 0.0
    """Probability the *first* surviving replica consulted by a TFS block
    read fails its checksum and is skipped (the read fails over to the
    next replica, so with replication >= 2 no data is lost)."""

    max_attempts: int = 6
    """Retry budget per logical send before the sender gives up."""

    retry_timeout: float = 1e-3
    """Base retransmit timeout; attempt ``k`` backs off to
    ``retry_timeout * backoff_factor ** k`` simulated seconds."""

    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_rate",
                     "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {rate}")
        if self.extra_latency < 0:
            raise ConfigError("extra_latency cannot be negative")
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.retry_timeout <= 0:
            raise ConfigError("retry_timeout must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigError("backoff_factor must be >= 1.0")
        object.__setattr__(self, "crashes", tuple(
            entry if isinstance(entry, CrashFault) else CrashFault(*entry)
            for entry in self.crashes
        ))
        normalised = []
        for entry in self.partitions:
            if isinstance(entry, Partition):
                normalised.append(entry)
            else:
                start, end, group = entry
                normalised.append(Partition(start, end, frozenset(group)))
            if normalised[-1].start >= normalised[-1].end:
                raise ConfigError(
                    f"partition interval [{normalised[-1].start}, "
                    f"{normalised[-1].end}) is empty"
                )
        object.__setattr__(self, "partitions", tuple(normalised))

    # -- seeded hash ---------------------------------------------------------

    def _unit(self, kind: str, *parts) -> float:
        """A uniform [0, 1) draw, deterministic in (seed, kind, parts).

        The integer coordinates are hashed by value: ``repr`` of a numpy
        integer names its type, and a draw must not depend on whether a
        machine id came out of a ``range`` or an array."""
        parts = tuple(map(operator.index, parts))
        digest = hashlib.blake2b(
            repr((self.seed, kind) + parts).encode("ascii"),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / 2.0 ** 64

    # -- queries -------------------------------------------------------------

    def crashes_at(self, round_: int) -> list[int]:
        """Machines scheduled to crash during ``round_``."""
        return [c.machine for c in self.crashes if c.round == round_]

    def is_partitioned(self, src: int, dst: int, round_: int) -> bool:
        return any(p.active(round_) and p.separates(src, dst)
                   for p in self.partitions)

    def should_drop(self, src: int, dst: int, round_: int,
                    attempt: int, token: int = 0) -> bool:
        return (self.drop_rate > 0.0
                and self._unit("drop", src, dst, round_, attempt, token)
                < self.drop_rate)

    def should_duplicate(self, src: int, dst: int, round_: int,
                         token: int = 0) -> bool:
        return (self.duplicate_rate > 0.0
                and self._unit("dup", src, dst, round_, token)
                < self.duplicate_rate)

    def delay_for(self, src: int, dst: int, round_: int,
                  token: int = 0) -> float:
        if (self.delay_rate > 0.0
                and self._unit("delay", src, dst, round_, token)
                < self.delay_rate):
            return self.extra_latency
        return 0.0

    def should_corrupt(self, block_id: int, node_id: int,
                       token: int = 0) -> bool:
        return (self.corrupt_rate > 0.0
                and self._unit("corrupt", block_id, node_id, token)
                < self.corrupt_rate)

    def backoff(self, attempt: int) -> float:
        """Timeout charged before retransmit number ``attempt + 1``."""
        return self.retry_timeout * self.backoff_factor ** attempt
