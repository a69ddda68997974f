"""The reference clock: how fast the box is, right now.

A shared host gets slower and faster by a fifth for seconds or minutes at a
time, wall ÷ CPU at 1.0 throughout: the processor itself slows when its
neighbours are busy.  A run that lands in a slow spell reads a fifth worse in
every timing, and ten runs of the same code spread by more than any bound a
benchmark could set (README, finding 8).

So the runner times a fixed piece of work, :func:`kernel`, before and after
every block and every set-up, and each timing is reported *on the reference
clock*: multiplied by ``NOMINAL_S`` ÷ what the kernel took around it.  That
is the time the block would have taken on a box where the kernel takes
``NOMINAL_S`` -- which is this box in a quiet spell, so the numbers stay
absolute.  The kernel is half interpreter (objects, a dict, attribute access,
small tuples) and half numpy (gather, sort, cumsum, bincount), like the
program; both halves live in a few hundred KiB, so the kernel reads the speed
of the core and not how much of the cache the program happens to occupy.

The kernel is part of the benchmark's definition: changing it, or
``NOMINAL_S``, changes every number.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: What :func:`kernel` takes in a quiet spell on the 2-core box this was
#: written on (median of the quiet runs of finding 8).
NOMINAL_S = 4.8e-3

_rng = np.random.default_rng(20130622)
_VALUES = _rng.integers(0, 1 << 40, size=1 << 13)
_INDEX = _rng.integers(0, 1 << 13, size=1 << 13)


class _Cell:
    __slots__ = ("key", "payload")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload


def _interpreter() -> int:
    table = {}
    total = 0
    for i in range(10000):
        cell = _Cell(i, (i, "x"))
        table[i & 255] = cell
        total += len(table) + cell.key
    return total


def _arrays() -> int:
    total = 0
    for _ in range(24):
        ordered = np.sort(_VALUES[_INDEX])
        total += int(np.cumsum(ordered & 1023)[-1])
        total += int(np.bincount(_INDEX & 4095).max())
    return total


def kernel() -> int:
    return _interpreter() + _arrays()


def sample(repeats: int = 3) -> float:
    """Seconds one :func:`kernel` takes now: the median of ``repeats`` (the
    first finds its data evicted by whatever ran before)."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def on_reference_clock(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the kernel took ``reference_s``, as the
    box would have read them with the kernel at ``NOMINAL_S``."""
    return seconds * NOMINAL_S / reference_s
