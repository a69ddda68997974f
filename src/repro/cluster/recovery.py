"""Failure recovery: trunk reload, table broadcast and buffered logging.

Section 6.2's recovery path, end to end:

1. a failure is confirmed (heartbeat or failed access);
2. the leader redistributes the failed machine's trunk slots over the
   survivors and **reloads those trunks from their TFS images**;
3. online updates made since the last TFS backup are replayed from the
   RAMCloud-style **buffered log** — each write was logged "to remote
   memory buffers before committing [it] to the local memory";
4. the primary addressing table is persisted to TFS *before* the update
   commits, then broadcast; slaves that miss the broadcast re-sync
   lazily on their next failed load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BlockNotFoundError, RecoveryError
from ..memcloud import persistence
from ..utils.hashing import trunk_of

_ADDRESSING_PATH = "/trinity/addressing.tbl"


@dataclass
class _LogRecord:
    sequence: int
    cell_id: int
    value: bytes


@dataclass
class BufferedLog:
    """Remote-memory operation log for online update queries.

    Every write on machine *M* is appended to buffers held in the memory
    of ``replication`` other machines before it commits locally, so a
    crash of *M* loses nothing: survivors replay the records on recovery.
    """

    machines: int
    replication: int = 2
    # holder machine -> origin machine -> records
    _buffers: dict[int, dict[int, list[_LogRecord]]] = field(
        default_factory=dict
    )
    _sequence: int = 0

    def _ring_candidates(self, origin: int, alive=None) -> list[int]:
        """Holder candidates in ring order after ``origin``, live first."""
        candidates = []
        for step in range(1, self.machines):
            machine = (origin + step) % self.machines
            if machine == origin:
                continue
            if alive is not None and machine not in alive:
                continue
            candidates.append(machine)
        return candidates

    def holders_for(self, origin: int, alive=None) -> list[int]:
        """The machines holding origin's log: the next ``replication``
        *live* machines on the ring, skipping origin itself.  A buffer on
        a dead machine is gone the moment that machine's DRAM is, so
        logging to one would silently void the guarantee."""
        return self._ring_candidates(origin, alive)[:self.replication]

    def append(self, origin: int, cell_id: int, value: bytes,
               alive=None) -> None:
        """Log one write before it commits on ``origin``.

        Targets the ring holders plus any live machine already buffering
        this origin (a holder recruited by :meth:`rebalance` after a
        crash): skipping those would fork the copies, leaving each record
        on fewer holders than the replication factor promises.  The
        transiently wider holder set collapses at the next ``truncate``.
        """
        self._sequence += 1
        record = _LogRecord(self._sequence, cell_id, value)
        targets = set(self.holders_for(origin, alive))
        targets.update(
            h for h, by in self._buffers.items()
            if by.get(origin) and (alive is None or h in alive)
        )
        for holder in targets:
            self._buffers.setdefault(holder, {}).setdefault(
                origin, []
            ).append(record)

    def records_for(self, origin: int,
                    exclude_holders=()) -> list[_LogRecord]:
        """All surviving log records for a failed machine, in order."""
        best: dict[int, _LogRecord] = {}
        for holder, by_origin in self._buffers.items():
            if holder in exclude_holders:
                continue
            for record in by_origin.get(origin, ()):
                best[record.sequence] = record
        return [best[s] for s in sorted(best)]

    def truncate(self, origin: int) -> None:
        """Drop origin's log (after a fresh TFS backup makes it redundant)."""
        for by_origin in self._buffers.values():
            by_origin.pop(origin, None)

    def drop_holder(self, holder: int) -> None:
        """A holder machine crashed: its buffered copies are gone too."""
        self._buffers.pop(holder, None)

    def rebalance(self, alive) -> int:
        """Restore the replication factor after a holder crashed.

        A crash that takes out a log *holder* leaves every origin it was
        buffering for one replica short; enough such crashes in a row
        erase an origin's log entirely while the origin itself never
        failed — exactly the sequence that loses an acknowledged write if
        the origin dies before its next TFS backup.

        The guarantee must hold per *record*, not per holder: copies
        diverge across crashes (a holder recruited here missed earlier
        appends; ring holders recruited by ``append`` missed this
        merge), so an origin can show ``replication`` live holders while
        some record survives on only one of them.  Merge the surviving
        records, overwrite any stale live copy with the merged list, and
        recruit fresh holders until the factor is met; returns the number
        of holder copies created or repaired.
        """
        alive = set(alive)
        repaired = 0
        dead_holders = [h for h in self._buffers if h not in alive]
        origins = {o for by in self._buffers.values() for o in by}
        for origin in origins:
            merged = self.records_for(origin, exclude_holders=dead_holders)
            if not merged:
                continue
            sequences = {r.sequence for r in merged}
            candidates = self._ring_candidates(origin, alive)
            want = min(self.replication, len(candidates))
            current = {
                h for h, by in self._buffers.items()
                if h in alive and by.get(origin)
            }
            for holder in current:
                held = self._buffers[holder][origin]
                if {r.sequence for r in held} != sequences:
                    self._buffers[holder][origin] = list(merged)
                    repaired += 1
            for holder in candidates:
                if len(current) >= want:
                    break
                if holder in current:
                    continue
                self._buffers.setdefault(holder, {})[origin] = list(merged)
                current.add(holder)
                repaired += 1
        return repaired


class RecoveryCoordinator:
    """The leader-side recovery logic."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.recoveries = 0

    # -- addressing table persistence -------------------------------------

    def persist_addressing(self) -> None:
        """Write the primary table to TFS (must precede the commit)."""
        self.cluster.tfs.write(
            _ADDRESSING_PATH, self.cluster.cloud.addressing.to_bytes()
        )

    def load_persisted_addressing(self):
        from ..memcloud.addressing import AddressingTable
        return AddressingTable.from_bytes(
            self.cluster.tfs.read(_ADDRESSING_PATH)
        )

    def broadcast_addressing(self) -> int:
        """Push the primary table to every live slave's replica."""
        updated = 0
        for slave in self.cluster.slaves.values():
            if slave.alive and slave.sync_addressing():
                updated += 1
        return updated

    # -- the recovery flow ---------------------------------------------------

    def recover_machine(self, failed_id: int) -> dict[int, int]:
        """Run the full Section-6.2 recovery for one failed machine.

        Returns the trunk relocation map.  Raises
        :class:`RecoveryError` if some trunk has neither a TFS image nor
        buffered-log coverage (i.e. data genuinely lost).
        """
        cluster = self.cluster
        survivors = [
            m for m, slave in cluster.slaves.items()
            if slave.alive and m != failed_id
        ]
        if not survivors:
            raise RecoveryError("no survivors to recover onto")

        failed_trunks = cluster.cloud.addressing.trunks_of(failed_id)
        # 1) persist the *new* table before committing it (paper: "an
        # update to the primary table must be applied to the persistent
        # replica before committing").
        moves = cluster.cloud.addressing.remove_machine(failed_id, survivors)
        self.persist_addressing()

        # 2) reload each lost trunk from TFS onto its new owner.
        missing_images = []
        for trunk_id in failed_trunks:
            try:
                persistence.restore_trunk(
                    cluster.cloud, trunk_id, cluster.tfs
                )
            except BlockNotFoundError:
                missing_images.append(trunk_id)
        if missing_images:
            # Without an image the trunk starts empty; the buffered log
            # below replays online updates, which covers the case where
            # the machine never completed a backup.
            for trunk_id in missing_images:
                cluster.cloud.replace_trunk(trunk_id)

        # 3) replay buffered-log records for the failed machine, then
        # re-persist the restored trunks to TFS *before* truncating the
        # log — otherwise a second failure of the new owner would lose
        # the replayed writes (they exist nowhere else).
        replayed = 0
        if cluster.buffered_log is not None:
            records = cluster.buffered_log.records_for(
                failed_id, exclude_holders=(failed_id,)
            )
            for record in records:
                # Only replay writes that actually lived on the failed
                # machine's trunks (its log may predate a relocation).
                if trunk_of(record.cell_id,
                            cluster.config.trunk_bits) in failed_trunks:
                    cluster.cloud.put(record.cell_id, record.value)
                    replayed += 1
            if replayed:
                with cluster.tfs.batch():
                    for trunk_id in failed_trunks:
                        persistence.backup_trunk(
                            cluster.cloud, trunk_id, cluster.tfs
                        )
            cluster.buffered_log.truncate(failed_id)
            cluster.buffered_log.drop_holder(failed_id)
            # The failed machine may have been buffering other origins'
            # logs: restore their replication factor from the surviving
            # copies before another failure can erase the last one.
            cluster.buffered_log.rebalance(survivors)

        # 4) broadcast the new table.
        self.broadcast_addressing()
        self.recoveries += 1
        self.last_replayed = replayed
        return moves
