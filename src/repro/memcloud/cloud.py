"""The memory cloud facade: a globally addressable key-value store.

Combines the addressing table and the memory trunks into the store the rest
of the system is built on (Figure 2: "Memory Cloud (Distributed Key-Value
Store)").  Keys are 64-bit UIDs, values are blobs of arbitrary length.

The whole cloud lives in one process, but the ownership structure is real:
every trunk belongs to exactly one simulated machine, lookups resolve
through the addressing table exactly as in Figure 3, and the simulated
network layer charges for every access that crosses a machine boundary.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import tempfile
from itertools import repeat

import numpy as np

from ..config import ClusterConfig
from ..errors import AddressingError, CellNotFoundError, StaleSpanError
from ..obs import MetricsRegistry, MetricsReport, get_registry
from ..oracle import shadow
from ..utils.arrays import SpanBatch, as_span_batch
from ..utils.hashing import trunk_of, trunk_of_array
from ..utils.sorting import stable_argsort
from .addressing import AddressingTable
from .directory import SpanDirectory
from .hashtable import wrap_keys
from .storage import make_trunk_storage
from .trunk import MemoryTrunk, TrunkStats


class SpanGroup:
    """One trunk's spans plus the machinery to detect staleness.

    Iterates as the legacy ``(arena, starts, limits, positions)`` 4-tuple
    so existing decoders keep unpacking it; additionally carries the trunk
    and the structural epoch at fetch time so consumers can
    :meth:`assert_fresh` right before (or after) decoding.  ``arena`` is
    the trunk's own arena when resident, and on a paged cloud the one
    buffer every group of the read shares.
    """

    __slots__ = ("arena", "starts", "limits", "positions", "trunk", "epoch")

    def __init__(self, arena, starts, limits, positions, trunk, epoch):
        self.arena = arena
        self.starts = starts
        self.limits = limits
        self.positions = positions
        self.trunk = trunk
        self.epoch = epoch

    def __iter__(self):
        return iter((self.arena, self.starts, self.limits, self.positions))

    @property
    def stale(self) -> bool:
        return self.trunk.mutation_epoch != self.epoch

    def assert_fresh(self) -> None:
        """Raise :class:`~repro.errors.StaleSpanError` if the trunk has
        structurally changed since these spans were fetched."""
        current = self.trunk.mutation_epoch
        if current != self.epoch:
            raise StaleSpanError(self.trunk.trunk_id, self.epoch, current)


class MemoryCloud:
    """A distributed in-memory key-value store over 2**p memory trunks.

    Parameters
    ----------
    config:
        Cluster shape: machine count, trunk bits, memory parameters.

    Examples
    --------
    >>> from repro.config import ClusterConfig
    >>> cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=5))
    >>> cloud.put(42, b"hello")
    >>> cloud.get(42)
    b'hello'
    """

    def __init__(self, config: ClusterConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 cross_check: bool = False):
        self.config = config or ClusterConfig()
        self.obs = registry if registry is not None else get_registry()
        self.addressing = AddressingTable(
            self.config.trunk_bits, range(self.config.machines)
        )
        # Paged clouds keep all their trunks' page files under one spill
        # directory; a private temp dir is removed with release_arenas().
        self._spill_dir: str | None = None
        memory = self.config.memory
        if memory.storage == "paged":
            self._spill_dir = (memory.spill_dir
                               or tempfile.mkdtemp(prefix="repro-cloud-"))
        self.trunks: dict[int, MemoryTrunk] = {}
        for trunk_id in range(self.config.trunk_count):
            self.replace_trunk(trunk_id)
        self._directory = SpanDirectory(self.config.trunk_count, self.obs)
        self._m_bulk_put_cells = self.obs.counter("memcloud.bulk.put.cells")
        self._m_bulk_put_batches = self.obs.counter(
            "memcloud.bulk.put.batches")
        self._m_bulk_get_cells = self.obs.counter("memcloud.bulk.get.cells")
        self._m_bulk_get_batches = self.obs.counter(
            "memcloud.bulk.get.batches")
        self._h_bulk_put = self.obs.histogram("memcloud.bulk.put.seconds")
        self._h_bulk_get = self.obs.histogram("memcloud.bulk.get.seconds")
        # Mirroring BspEngine's cross_check: a shadow cloud replays every
        # mutation through the scalar path (own registry so the trunk
        # metric series don't merge) and verify_shadow() compares worlds.
        self._shadow: MemoryCloud | None = None
        self._shadow_probes_comparable = True
        if cross_check:
            # The shadow always runs resident storage: on a paged cloud,
            # cross_check then doubles as a storage-tier equivalence
            # proof (identical cells, stats, and probe counters across
            # backing tiers), and the shadow never pays page faults.
            shadow_config = self.config
            if memory.storage != "resident":
                shadow_config = dataclasses.replace(
                    self.config,
                    memory=dataclasses.replace(
                        memory, storage="resident", spill_dir=None
                    ),
                )
            self._shadow = MemoryCloud(shadow_config, MetricsRegistry())

    # -- addressing ----------------------------------------------------------

    def trunk_for(self, cell_id: int) -> MemoryTrunk:
        """The trunk that stores ``cell_id`` (first hash of Figure 3)."""
        return self.trunks[trunk_of(cell_id, self.config.trunk_bits)]

    def machine_of(self, cell_id: int) -> int:
        """The machine hosting ``cell_id`` per the addressing table."""
        return self.addressing.machine_for_cell(cell_id)

    def machines_of_array(self, cell_ids) -> np.ndarray:
        """Vectorized :meth:`machine_of`: owning machine per UID."""
        return self.addressing.machines_for_cells(cell_ids)

    def trunks_on(self, machine_id: int) -> list[MemoryTrunk]:
        """All trunks currently owned by one machine."""
        return [self.trunks[t] for t in self.addressing.trunks_of(machine_id)]

    def cells_on(self, machine_id: int):
        """Yield every cell UID stored on ``machine_id``."""
        for trunk in self.trunks_on(machine_id):
            yield from trunk.uids()

    def replace_trunk(self, trunk_id: int) -> MemoryTrunk:
        """Install a fresh, empty trunk under ``trunk_id``; returns it.

        The one place a cloud's trunks are made — at construction, when
        a trunk image is adopted, when a machine's memory is lost — so
        every trunk gets the cloud's registry and spill-file wiring.
        Replacing a trunk has two hazards, both handled here:

        * Outstanding zero-copy span groups hold the *old* trunk object,
          so replacing it silently would leave their epoch checks forever
          green against dead state — the old trunk is touched first so
          they all go stale, and its storage is released before the
          successor claims the same page file.
        * The cloud-wide :meth:`mutation_epoch` is a sum over trunks and
          :meth:`epoch_vector` lists them; a successor restarting at 0
          would move both *backwards*, validating serving-layer cache
          entries stamped before the replacement.  The successor adopts
          the old epoch as a floor and bumps past it.
        """
        old = self.trunks.get(trunk_id)
        if old is not None:
            old.touch()
            old.storage.close()
        memory = self.config.memory
        fresh = MemoryTrunk(
            trunk_id, memory, registry=self.obs,
            storage=make_trunk_storage(
                trunk_id, memory, registry=self.obs,
                spill_dir=self._spill_dir),
        )
        if old is not None:
            fresh.adopt_epoch(old.mutation_epoch)
        self.trunks[trunk_id] = fresh
        return fresh

    # -- key-value operations ----------------------------------------------

    def put(self, cell_id: int, value: bytes) -> None:
        """Insert or overwrite a cell."""
        self.trunk_for(cell_id).put(cell_id, value)
        if self._shadow is not None:
            self._shadow.put(cell_id, value)

    def get(self, cell_id: int) -> bytes:
        """Read a copy of a cell's payload; raises CellNotFoundError."""
        if self._shadow is not None:
            self._shadow.get(cell_id)  # keep probe counters comparable
        return self.trunk_for(cell_id).get(cell_id)

    def remove(self, cell_id: int) -> None:
        """Delete a cell; raises CellNotFoundError if absent."""
        self.trunk_for(cell_id).remove(cell_id)
        if self._shadow is not None:
            self._shadow.remove(cell_id)

    def reencode_cell(self, cell_id: int, expected: bytes,
                      replacement: bytes) -> bool:
        """Compare-and-swap a cell's bytes through its trunk's CAS.

        The layout re-encoder's write primitive: applied only if the cell
        still byte-equals ``expected`` and is not locked by an accessor.
        A shadow replica (if any) mirrors the swap only when the primary
        applied it, so both stay byte-identical.
        """
        applied = self.trunk_for(cell_id).reencode_cell(
            cell_id, expected, replacement)
        if applied and self._shadow is not None:
            self._shadow.put(cell_id, replacement)
        return applied

    def contains(self, cell_id: int) -> bool:
        if self._shadow is not None:
            self._shadow.contains(cell_id)
        return cell_id in self.trunk_for(cell_id)

    def mutation_epoch(self) -> int:
        """Cloud-wide mutation version: the sum of every trunk's epoch.

        Strictly increases on *any* mutation anywhere in the cloud —
        puts, removes, resizes, defrag passes, wraps, and in-place
        accessor writes (:meth:`note_cell_write`) — so a value cached
        against this number is provably fresh while it matches.  The
        coarse validity token: snapshot consumers (the serving layer's
        CSR snapshot) stamp with it; caches that know which trunks they
        read use :meth:`epoch_vector` instead.
        """
        return sum(t.mutation_epoch for t in self.trunks.values())

    def epoch_vector(self) -> tuple[int, ...]:
        """Per-trunk mutation epochs, indexed by trunk id.

        The fine-grained validity token: a cached value that recorded
        which trunks it was decoded from only needs those components to
        still match — a write to trunk 7 leaves entries that never read
        trunk 7 provably fresh.  Each component is the same counter that
        guards zero-copy spans (:attr:`MemoryTrunk.mutation_epoch`), so
        every mutation path that bumps the scalar epoch moves exactly
        its owning trunk's component here.
        """
        return tuple(self.trunks[t].mutation_epoch
                     for t in range(self.config.trunk_count))

    def trunks_of_array(self, cell_ids) -> np.ndarray:
        """Owning trunk id per UID — one vectorized first-hash pass.

        The serving layer uses this to record the trunk *footprint* of a
        batched read, so cache entries can be stamped with exactly the
        :meth:`epoch_vector` components they depend on.
        """
        ids = np.asarray(cell_ids, dtype=np.int64)
        return trunk_of_array(ids, self.config.trunk_bits).astype(np.int64)

    def note_cell_write(self, cell_id: int) -> None:
        """Bump the owning trunk's epoch after an in-place arena write
        (the cell-accessor fixed-field path, which never calls put)."""
        self.trunk_for(cell_id).touch()
        if self._shadow is not None:
            self._shadow.note_cell_write(cell_id)

    __contains__ = contains

    def size_of(self, cell_id: int) -> int:
        if self._shadow is not None:
            self._shadow.size_of(cell_id)
        return self.trunk_for(cell_id).size_of(cell_id)

    # -- bulk fast path ------------------------------------------------------

    def _route(self, cell_ids) -> tuple:
        """``(uids, outside, order, trunks, lows)``: :func:`wrap_keys` of
        the batch; the stable order that sorts it by owning trunk (one
        vectorized hash pass, Figure 3's first hop), so each trunk's ids
        stay in input order, as a scalar loop would send them; the trunk
        ids in that order, and where each trunk's run of them begins."""
        uids, outside = wrap_keys(cell_ids)
        trunks = trunk_of_array(uids, self.config.trunk_bits).astype(np.int64)
        order = stable_argsort(trunks)
        trunks = trunks[order]
        cuts = np.flatnonzero(trunks[1:] != trunks[:-1]) + 1
        return uids, outside, order, trunks, [0, *cuts.tolist()]

    def bulk_put(self, cell_ids, values, presize: bool = True) -> None:
        """Insert or overwrite a batch of cells along the batched path.

        ``values`` is a :class:`~repro.utils.arrays.SpanBatch` or a
        sequence of blobs (packed once).  Routes the whole UID array to
        its trunks with one vectorized hash pass, then hands each trunk
        its subsequence (input order preserved) as spans of the one
        buffer via :meth:`MemoryTrunk.bulk_put`.  Equivalent to a scalar
        :meth:`put` loop: same stored bytes and trunk accounting, and
        bit-identical probe counters when ``presize=False``.
        """
        cells = as_span_batch(values)
        if len(cell_ids) != len(cells.starts):
            raise ValueError(
                f"bulk_put got {len(cell_ids)} uids but "
                f"{len(cells.starts)} values"
            )
        if not len(cell_ids):
            return
        with self._h_bulk_put.time():
            uids, outside, order, trunks, lows = self._route(cell_ids)
            if outside is not None:
                # Routed like the scalar path routes them (by the wrapped
                # value) but handed on as they are, for the trunk to refuse.
                uids = uids.astype(object)
                uids[outside] = [int(cell_ids[i]) for i in outside.tolist()]
            uids = uids[order]
            starts, limits = cells.starts[order], cells.limits[order]
            for low, high in zip(lows, [*lows[1:], len(order)]):
                run = SpanBatch(cells.buffer, starts[low:high],
                                limits[low:high])
                self.trunks[int(trunks[low])].bulk_put(
                    uids[low:high], run, presize=presize)
        self._m_bulk_put_cells.inc(len(cell_ids))
        self._m_bulk_put_batches.inc(len(lows))
        if self._shadow is not None:
            if presize:
                self._shadow_probes_comparable = False
            for cell_id, value in zip(cell_ids, cells.blobs()):
                self._shadow.put(int(cell_id), value)
            self.verify_shadow()

    def bulk_get(self, cell_ids) -> list[bytes]:
        """Payload copies for a batch of UIDs, in input order: a copy-out
        over :meth:`bulk_get_spans` (same lookups, same accounting)."""
        out: list = [None] * len(cell_ids)
        groups = self.bulk_get_spans(cell_ids)
        for arena, starts, limits, positions in groups:
            for i, lo, hi in zip(positions.tolist(), starts.tolist(),
                                 limits.tolist()):
                out[i] = arena[lo:hi].tobytes()
        for group in groups:
            group.assert_fresh()
        return out

    def bulk_get_spans(self, cell_ids) -> list[SpanGroup]:
        """Payload spans for a batch, grouped per trunk.

        Returns one :class:`SpanGroup` per trunk touched, in trunk order
        — unpacking as ``(arena, starts, limits, positions)`` — where
        ``arena[starts[i]:limits[i]]`` is the payload of
        ``cell_ids[positions[i]]``.  On resident trunks nothing is
        copied: the views alias trunk arenas and are only valid until the
        next write or defragmentation on those trunks, which is exactly
        the lifetime a query hop needs (fetch a frontier, decode it, move
        on).  On a paged cloud every touched trunk's pages land in **one
        read-wide buffer**, each trunk in its own rows of it, so every
        group's ``arena`` is that one buffer and the read decodes once.
        Each group records the structural epoch its cells were located
        at; decoders call :meth:`SpanGroup.assert_fresh` so an
        interleaved mutation raises :class:`~repro.errors.StaleSpanError`
        instead of yielding bytes read from relocated cells.

        The whole window is located in one probe pass over the cloud's
        :class:`~repro.memcloud.directory.SpanDirectory`; a trunk touched
        then costs a slice of the result (and, paged, one walk, copy and
        drop of its pages).  Observably the batch is a scalar :meth:`get`
        loop: the same probe accounting per table, and a missing cell
        raises for the first such id in input order, before any page is
        touched.
        """
        count = len(cell_ids)
        if not count:
            return []
        if self._shadow is not None:
            for cell_id in cell_ids:
                self._shadow.get(int(cell_id))
        with self._h_bulk_get.time():
            uids, outside, order, trunk_ids, lows = self._route(cell_ids)
            touched = trunk_ids[lows].tolist()
            with self._directory.lock:
                epochs = self._directory.refresh(self.trunks, touched)
                starts, limits, probes, found = self._directory.probe(
                    uids[order], trunk_ids)
            if outside is not None or not found.all():
                # Fail as the get loop fails: count the lookups up to the
                # first id in input order that names no cell (one outside
                # [0, 2**64) never does) and raise for that id.
                for cell_id in map(int, cell_ids):
                    self.trunk_for(cell_id).get(cell_id)
                # Not reached, unless the cell was put since the probe.
                raise CellNotFoundError(
                    int(cell_ids[int(order[~found].min())]))
            highs = [*lows[1:], count]
            # resident: read in place, no pages and no buffer
            pages, rows, buffer = repeat(None), repeat(0), None
            memory = self.config.memory
            if memory.storage == "paged":
                # Size one buffer for every trunk's pages, then each
                # trunk fills its own rows of it under its own mutex.
                pages = [self.trunks[trunk_id].storage.span_pages(
                             starts[low:high], limits[low:high])
                         for trunk_id, low, high in zip(touched, lows, highs)]
                rows = np.cumsum([0, *map(len, pages)]).tolist()
                buffer = np.empty(rows[-1] * memory.storage_page_size,
                                  dtype=np.uint8)
            spans: list[SpanGroup] = []
            for trunk_id, epoch, walked, low, high, batch, at in zip(
                    touched, epochs, np.add.reduceat(probes, lows).tolist(),
                    lows, highs, pages, rows):
                trunk = self.trunks[trunk_id]
                arena, begin, end = trunk.open_spans(
                    starts[low:high], limits[low:high], walked, batch,
                    buffer, at)
                spans.append(SpanGroup(arena, begin, end, order[low:high],
                                       trunk, epoch))
        self._m_bulk_get_cells.inc(count)
        self._m_bulk_get_batches.inc(len(spans))
        return spans

    def verify_shadow(self) -> None:
        """Compare every trunk against the scalar shadow replay.

        Raises :class:`~repro.errors.DivergenceError` unless stored
        cells are bit-identical and trunk accounting (live/garbage/
        committed bytes, wraps, defrag counters — the full
        :class:`TrunkStats`) matches.
        Hash-table probe counters are compared too while every bulk call
        so far used ``presize=False`` (pre-sizing legitimately changes
        probe lengths, never contents).
        """
        if self._shadow is None:
            raise AddressingError("cloud was not built with cross_check=True")
        # One list entry per trunk, in trunk-id order: the index a
        # divergence is reported at is the trunk it happened in.
        mine = [self.trunks[t] for t in sorted(self.trunks)]
        theirs = [self._shadow.trunks[t] for t in sorted(self.trunks)]
        where = "memcloud.cloud.verify_shadow"
        shadow(f"{where}.cells", [dict(t.dump_cells()) for t in mine],
               [dict(t.dump_cells()) for t in theirs])
        shadow(f"{where}.stats", [t.stats() for t in mine],
               [t.stats() for t in theirs])
        if self._shadow_probes_comparable:
            shadow(f"{where}.probes",
                   [(t._index.probe_count, t._index.lookup_count)
                    for t in mine],
                   [(t._index.probe_count, t._index.lookup_count)
                    for t in theirs])

    def __len__(self) -> int:
        return sum(len(t) for t in self.trunks.values())

    @property
    def spill_dir(self) -> str | None:
        """Directory holding paged trunks' page files (None if resident)."""
        return self._spill_dir

    def release_arenas(self) -> None:
        """Unmap every trunk arena and remove paged trunks' page files.

        Call when the cloud is done: any later use of it raises
        :class:`~repro.errors.MemoryCloudError`.  Views handed out
        earlier stay readable until they are garbage collected.
        """
        for trunk in self.trunks.values():
            trunk.storage.close()
        if self._spill_dir is not None and self.config.memory.spill_dir is None:
            with contextlib.suppress(OSError):
                os.rmdir(self._spill_dir)  # the temp dir made above
            self._spill_dir = None
        if self._shadow is not None:
            self._shadow.release_arenas()

    @contextlib.contextmanager
    def pin(self, cell_id: int):
        """Lock a cell and yield a zero-copy view of its payload.

        While the view is held the cell cannot be moved by the defrag
        daemon or mutated by another accessor — the "lock and pin" protocol
        of Section 3.  The view is released (and the lock dropped) on exit.
        """
        trunk = self.trunk_for(cell_id)
        lock = trunk.lock_of(cell_id)
        lock.acquire()
        try:
            view = trunk.get_view(cell_id)
            try:
                yield view
            finally:
                view.release()
        finally:
            lock.release()

    # -- accounting ----------------------------------------------------------

    def machine_stats(self, machine_id: int) -> TrunkStats:
        """Aggregated trunk statistics for one machine."""
        stats = [t.stats() for t in self.trunks_on(machine_id)]
        if not stats:
            raise AddressingError(f"machine {machine_id} owns no trunks")
        return TrunkStats(
            cell_count=sum(s.cell_count for s in stats),
            live_bytes=sum(s.live_bytes for s in stats),
            reserved_bytes=sum(s.reserved_bytes for s in stats),
            garbage_bytes=sum(s.garbage_bytes for s in stats),
            committed_bytes=sum(s.committed_bytes for s in stats),
            trunk_size=sum(s.trunk_size for s in stats),
            defrag_passes=sum(s.defrag_passes for s in stats),
            relocations=sum(s.relocations for s in stats),
            wraps=sum(s.wraps for s in stats),
            tail_advances=sum(s.tail_advances for s in stats),
            defrag_aborts=sum(s.defrag_aborts for s in stats),
            inplace_resizes=sum(s.inplace_resizes for s in stats),
        )

    def total_live_bytes(self) -> int:
        """Live bytes (headers + payloads) across the whole cloud."""
        return sum(t.stats().live_bytes for t in self.trunks.values())

    def total_committed_bytes(self) -> int:
        return sum(t.stats().committed_bytes for t in self.trunks.values())

    def defragment_all(self) -> int:
        """Run a defrag pass on every trunk; returns trunks compacted."""
        if self._shadow is not None:
            self._shadow.defragment_all()
        return sum(1 for t in self.trunks.values() if t.defragment())

    def metrics_report(self) -> MetricsReport:
        """Trunk-layer metrics (alloc/wrap/defrag/garbage) as a report."""
        return MetricsReport.from_registry(self.obs).filter("trunk.")
