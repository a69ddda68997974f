"""Per-cell spin locks (Section 3).

The paper associates every key-value pair with a spin lock that serves two
purposes: concurrency control between threads, and *pinning* — the
defragmentation daemon must not relocate a cell while a thread holds a
reference into its blob.  Trinity requires every accessor (reader, writer,
or the defrag daemon itself) to acquire the lock first.

The reproduction runs its cluster simulation in one process, but the locks
are real: they are thread-safe, they enforce the acquire-before-touch
protocol (cell accessors and the defragmenter both take them), and they
count contention so the trunk-count ablation can report lock pressure.
"""

from __future__ import annotations

import threading

from ..errors import CellLockedError
from ..obs import get_registry

# Cells number in the millions, so per-lock metric objects would swamp the
# registry; contention is aggregated process-wide instead.  Individual
# locks still carry their own counts for the trunk-count ablation.
_ACQUIRES = get_registry().counter("spinlock.acquire.total")
_CONTENTION = get_registry().counter("spinlock.contention.total")
_EXHAUSTED = get_registry().counter("spinlock.exhausted.total")


class SpinLock:
    """A test-and-set spin lock with a bounded spin budget.

    ``acquire`` spins up to ``budget`` times before raising
    :class:`CellLockedError`; an unbounded spin would deadlock the
    single-process simulation if a caller leaks a lock, so the bound doubles
    as a bug detector.  The budget is the lock's own — a trunk hands its
    cells ``SpinLock(params.spinlock_budget)`` — so every way of taking
    the lock (``acquire()``, ``with lock:``) spins the configured bound.
    """

    __slots__ = ("_flag", "_budget", "contention_count", "acquire_count")

    def __init__(self, budget: int = 1 << 16) -> None:
        # A non-blocking threading.Lock acquire is an atomic test-and-set,
        # which is exactly the primitive a spin lock spins on.
        self._flag = threading.Lock()
        self._budget = budget
        self.contention_count = 0
        self.acquire_count = 0

    @property
    def held(self) -> bool:
        return self._flag.locked()

    def try_acquire(self) -> bool:
        """Single test-and-set attempt; True if the lock was taken."""
        return self._flag.acquire(blocking=False)

    def acquire(self, budget: int | None = None) -> None:
        """Spin until acquired or the budget (by default the lock's own)
        is exhausted."""
        if budget is None:
            budget = self._budget
        self.acquire_count += 1
        _ACQUIRES.inc()
        if self.try_acquire():
            return
        self.contention_count += 1
        _CONTENTION.inc()
        for _ in range(budget):
            if self.try_acquire():
                return
        _EXHAUSTED.inc()
        raise CellLockedError(f"spin budget {budget} exhausted")

    def release(self) -> None:
        if not self._flag.locked():
            raise CellLockedError("releasing a lock that is not held")
        self._flag.release()

    def __enter__(self) -> "SpinLock":
        self.acquire()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.release()
