"""Tests for the spin-lock primitives."""

import threading

import pytest

from repro.errors import CellLockedError
from repro.memcloud.locks import SpinLock


class TestSpinLock:
    def test_acquire_release(self):
        lock = SpinLock()
        lock.acquire()
        assert lock.held
        lock.release()
        assert not lock.held

    def test_try_acquire(self):
        lock = SpinLock()
        assert lock.try_acquire()
        assert not lock.try_acquire()
        lock.release()
        assert lock.try_acquire()

    def test_budget_exhaustion_raises(self):
        lock = SpinLock()
        lock.acquire()
        with pytest.raises(CellLockedError):
            lock.acquire(budget=10)

    def test_release_unheld_raises(self):
        lock = SpinLock()
        with pytest.raises(CellLockedError):
            lock.release()

    def test_context_manager(self):
        lock = SpinLock()
        with lock:
            assert lock.held
        assert not lock.held

    def test_context_manager_releases_on_exception(self):
        lock = SpinLock()
        with pytest.raises(RuntimeError):
            with lock:
                raise RuntimeError("boom")
        assert not lock.held

    def test_contention_counted(self):
        lock = SpinLock()
        lock.acquire()
        with pytest.raises(CellLockedError):
            lock.acquire(budget=1)
        assert lock.contention_count == 1
        assert lock.acquire_count == 2

    def test_cross_thread_mutual_exclusion(self):
        lock = SpinLock()
        counter = {"value": 0}
        iterations = 200

        def worker():
            for _ in range(iterations):
                lock.acquire()
                current = counter["value"]
                counter["value"] = current + 1
                lock.release()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter["value"] == 4 * iterations
