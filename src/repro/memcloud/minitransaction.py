"""Multi-cell atomic primitives (Section 4.4).

Trinity guarantees atomicity only per cell and "does not provide ACID
transaction support.  For applications that need transaction support, we
can implement light-weight atomic operation primitives that span multiple
cells, such as MultiOp primitives [Chandra et al.] and Mini-transaction
primitives [Sinfonia], on top of the atomic cell operation primitives."

This module implements both on top of the per-cell spin locks:

* :class:`MiniTransaction` — Sinfonia-style: a *compare set* (cell must
  equal an expected value), a *read set* and a *write set*, executed
  atomically.  All involved cells are locked in global cell-id order
  (deadlock freedom), compares are checked, and only then do writes
  apply; any compare failure aborts with nothing written.
* :func:`multi_op` — Chandra et al.'s MultiOp: a list of guard
  predicates over cells plus two operation lists (``then`` / ``else``),
  one of which is applied atomically depending on the guards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CellNotFoundError, MemoryCloudError
from .cloud import MemoryCloud


class TransactionAborted(MemoryCloudError):
    """A compare failed (or a cell vanished); nothing was written."""


@dataclass
class _Write:
    cell_id: int
    value: bytes


@dataclass
class MiniTransaction:
    """A Sinfonia-style mini-transaction over memory-cloud cells.

    Examples
    --------
    >>> from repro.config import ClusterConfig
    >>> cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=3))
    >>> cloud.put(1, b"a")
    >>> tx = MiniTransaction(cloud)
    >>> tx.compare(1, b"a").write(1, b"b").commit()
    {}
    >>> cloud.get(1)
    b'b'
    """

    cloud: MemoryCloud
    _compares: list[_Write] = field(default_factory=list)
    _reads: list[int] = field(default_factory=list)
    _writes: list[_Write] = field(default_factory=list)
    _done: bool = False

    # -- building ------------------------------------------------------------

    def compare(self, cell_id: int, expected: bytes) -> "MiniTransaction":
        """Require ``cell_id`` to currently hold ``expected``."""
        self._check_open()
        self._compares.append(_Write(cell_id, expected))
        return self

    def read(self, cell_id: int) -> "MiniTransaction":
        """Read ``cell_id`` atomically with the rest of the transaction;
        the value appears in the dict :meth:`commit` returns."""
        self._check_open()
        self._reads.append(cell_id)
        return self

    def write(self, cell_id: int, value: bytes) -> "MiniTransaction":
        """Write ``cell_id`` if every compare passes."""
        self._check_open()
        self._writes.append(_Write(cell_id, value))
        return self

    # -- executing ---------------------------------------------------------

    def participants(self) -> list[int]:
        """All cell ids touched, in the global locking order."""
        ids = {w.cell_id for w in self._compares}
        ids.update(self._reads)
        ids.update(w.cell_id for w in self._writes)
        return sorted(ids)

    def commit(self) -> dict[int, bytes]:
        """Execute atomically; returns the read set's values.

        Locks every participant in ascending cell-id order (two
        transactions can never deadlock), validates compares, applies
        writes, unlocks.  Raises :class:`TransactionAborted` on any
        compare mismatch — with no partial effects.
        """
        self._check_open()
        self._done = True
        participants = self.participants()
        locked: list = []
        try:
            for cell_id in participants:
                # A write may create the cell; only existing cells have
                # locks to take.
                if self.cloud.contains(cell_id):
                    lock = self.cloud.trunk_for(cell_id).lock_of(cell_id)
                    lock.acquire()
                    locked.append(lock)
            for compare in self._compares:
                try:
                    current = self._peek(compare.cell_id)
                except CellNotFoundError:
                    raise TransactionAborted(
                        f"compare target {compare.cell_id:#x} is missing"
                    ) from None
                if current != compare.value:
                    raise TransactionAborted(
                        f"compare failed on cell {compare.cell_id:#x}"
                    )
            reads = {cell_id: self._peek(cell_id)
                     for cell_id in self._reads}
        finally:
            for lock in locked:
                lock.release()
        # Compares validated under locks; apply writes.  (Single-writer
        # simulation: between release and write nothing else runs; a
        # fully concurrent implementation would write before releasing,
        # which the per-trunk structural lock would otherwise deadlock.)
        for write in self._writes:
            self.cloud.put(write.cell_id, write.value)
        return reads

    # -- helpers -------------------------------------------------------------

    def _peek(self, cell_id: int) -> bytes:
        trunk = self.cloud.trunk_for(cell_id)
        with trunk.get_view(cell_id) as view:
            return bytes(view)

    def _check_open(self) -> None:
        if self._done:
            raise MemoryCloudError("mini-transaction already committed")


def multi_op(cloud: MemoryCloud, guards, then_ops, else_ops=()):
    """Chandra-et-al MultiOp: atomically apply ``then_ops`` if every
    guard holds, otherwise ``else_ops``.

    ``guards`` is an iterable of ``(cell_id, expected_bytes)``;
    ``then_ops``/``else_ops`` are iterables of ``(cell_id, new_bytes)``.
    Returns True if the guards held (then-branch applied).
    """
    guards = list(guards)
    tx = MiniTransaction(cloud)
    for cell_id, expected in guards:
        tx.compare(cell_id, expected)
    for cell_id, value in then_ops:
        tx.write(cell_id, value)
    try:
        tx.commit()
        return True
    except TransactionAborted:
        fallback = MiniTransaction(cloud)
        for cell_id, value in else_ops:
            fallback.write(cell_id, value)
        fallback.commit()
        return False
