"""Concurrency stress tests: real threads against the memory cloud.

The trunk-level design claim (Section 3): "trunk level parallelism can
be achieved without any overhead of locking" — different trunks never
contend; within a cell, the spin lock serialises accessors.  These tests
run actual Python threads (the GIL interleaves them finely enough to
expose ordering bugs) against the structures.
"""

import threading
import time

import pytest

from repro.config import ClusterConfig, MemoryParams
from repro.errors import CellLockedError
from repro.memcloud import MemoryCloud
from repro.memcloud.minitransaction import (
    MiniTransaction,
    TransactionAborted,
)


@pytest.fixture
def big_cloud():
    return MemoryCloud(ClusterConfig(
        machines=4, trunk_bits=6,
        memory=MemoryParams(trunk_size=1024 * 1024,
                            spinlock_budget=1 << 22),
    ))


class TestConcurrentCloud:
    def test_parallel_writers_disjoint_keys(self, big_cloud):
        """Writers on disjoint key ranges touch different trunks most of
        the time; all writes must land."""
        errors: list[Exception] = []

        def writer(base: int):
            try:
                for i in range(200):
                    big_cloud.put(base + i, f"{base}:{i}".encode())
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t * 1000,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for t in range(4):
            base = t * 1000
            for i in range(200):
                assert big_cloud.get(base + i) == f"{base}:{i}".encode()

    def test_pin_blocks_concurrent_update(self, big_cloud):
        """While one thread pins a cell, another thread's update spins
        until the pin is released — and then succeeds."""
        big_cloud.put(1, b"original")
        pinned = threading.Event()
        release = threading.Event()
        done = threading.Event()

        def pinner():
            with big_cloud.pin(1) as view:
                assert bytes(view) == b"original"
                pinned.set()
                release.wait(timeout=5)

        def updater():
            pinned.wait(timeout=5)
            big_cloud.put(1, b"updated")  # spins on the cell lock
            done.set()

        threads = [threading.Thread(target=pinner),
                   threading.Thread(target=updater)]
        for thread in threads:
            thread.start()
        pinned.wait(timeout=5)
        assert not done.is_set()  # updater is spinning behind the pin
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        assert done.is_set()
        assert big_cloud.get(1) == b"updated"

    def test_configured_budget_outlasts_a_slow_pin_holder(self):
        """The trunk's own lock sites spin ``spinlock_budget``: a holder
        that keeps its pin for 100 ms (many GIL slices; 2**16 spins last
        about one) does not defeat an updater configured to wait."""
        cloud = MemoryCloud(ClusterConfig(
            machines=1, trunk_bits=1,
            memory=MemoryParams(trunk_size=64 * 1024,
                                spinlock_budget=1 << 26)))
        cloud.put(1, b"original")
        pinned = threading.Event()
        errors: list[Exception] = []

        def pinner():
            with cloud.pin(1):
                pinned.set()
                time.sleep(0.1)

        def updater():
            pinned.wait(timeout=5)
            try:
                cloud.put(1, b"updated")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=pinner),
                   threading.Thread(target=updater)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cloud.get(1) == b"updated"

    def test_concurrent_cas_increments_never_lose_updates(self, big_cloud):
        """Mini-transaction CAS loops from several threads: the final
        counter equals the number of successful commits."""
        big_cloud.put(7, (0).to_bytes(8, "little"))
        successes = []
        lock = threading.Lock()

        def incrementer():
            done = 0
            while done < 25:
                current = big_cloud.get(7)
                value = int.from_bytes(current, "little")
                try:
                    (MiniTransaction(big_cloud)
                     .compare(7, current)
                     .write(7, (value + 1).to_bytes(8, "little"))
                     .commit())
                    done += 1
                except (TransactionAborted, CellLockedError):
                    continue
            with lock:
                successes.append(done)

        threads = [threading.Thread(target=incrementer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert sum(successes) == 75
        assert int.from_bytes(big_cloud.get(7), "little") == 75
