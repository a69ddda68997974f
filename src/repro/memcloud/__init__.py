"""The Trinity memory cloud — a distributed in-memory key-value store.

This package implements Section 3 ("The Memory Cloud") and Section 6.1
("Circular Memory Management") of the paper:

* :mod:`~repro.memcloud.locks` — per-cell spin locks used for concurrency
  control and physical memory pinning.
* :mod:`~repro.memcloud.hashtable` — the per-trunk open-addressing hash
  table mapping a 64-bit UID to the cell's (offset, size) inside the trunk.
* :mod:`~repro.memcloud.arena` — the trunk arena: one ``mmap`` (private
  anonymous, or file-backed) that costs RAM only where it is written.
* :mod:`~repro.memcloud.trunk` — memory trunks: append-head/committed-tail
  circular allocation over an arena, short-lived memory reservation, and a
  defragmentation pass.
* :mod:`~repro.memcloud.addressing` — the 2**p-slot addressing table that
  maps trunks to machines, with consistent join/leave relocation.
* :mod:`~repro.memcloud.directory` — a mirror of every trunk's hash table,
  on which a batched read locates its whole window in one probe pass.
* :mod:`~repro.memcloud.cloud` — the :class:`MemoryCloud` facade combining
  all of the above into a globally addressable key-value store.
* :mod:`~repro.memcloud.persistence` — trunk image serialisation for TFS
  backup and failure recovery.
"""

from .locks import SpinLock
from .hashtable import TrunkHashTable
from .arena import Arena
from .trunk import CELL_HEADER_BYTES, MemoryTrunk, TrunkStats
from .addressing import AddressingTable
from .cloud import MemoryCloud, SpanGroup

__all__ = [
    "SpinLock",
    "TrunkHashTable",
    "Arena",
    "MemoryTrunk",
    "TrunkStats",
    "CELL_HEADER_BYTES",
    "AddressingTable",
    "MemoryCloud",
    "SpanGroup",
]
