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
from typing import NamedTuple

import numpy as np

from ..config import ClusterConfig
from ..errors import AddressingError, CellNotFoundError, StaleSpanError
from ..obs import MetricsRegistry, MetricsReport, get_registry
from ..oracle import checking, is_checking, shadow
from ..utils.arrays import SpanBatch, as_span_batch
from ..utils.hashing import trunk_of, trunk_of_array
from ..utils.sorting import stable_argsort
from .addressing import AddressingTable
from .arena import Arena, slice_stride
from .directory import SpanDirectory
from .hashtable import wrap_keys
from .storage import make_trunk_storage, word_spans
from .trunk import MemoryTrunk, TrunkStats


class SpanRead(NamedTuple):
    """One batched read: ``buffer[starts[i]:limits[i]]`` is the payload
    of id ``positions[i]``, in trunk ``trunk_ids[i]``; the cells of the
    trunks ``touched`` were located at ``epochs``, which
    :meth:`assert_fresh` compares with the cloud's epoch ``column`` now
    (a replaced trunk's successor counts on from a later one)."""

    buffer: np.ndarray
    starts: np.ndarray
    limits: np.ndarray
    positions: np.ndarray
    trunk_ids: np.ndarray
    column: np.ndarray
    touched: list
    epochs: list

    def assert_fresh(self) -> None:
        """Raise :class:`~repro.errors.StaleSpanError` for the first
        touched trunk that has changed structurally since the read."""
        current = self.column[self.touched].tolist()
        if current != self.epochs:      # one compare while fresh
            i = next(i for i, now in enumerate(current)
                     if now != self.epochs[i])
            raise StaleSpanError(self.touched[i], self.epochs[i], current[i])


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
                 registry: MetricsRegistry | None = None):
        self.config = config or ClusterConfig()
        self.obs = registry if registry is not None else get_registry()
        self.addressing = AddressingTable(
            self.config.trunk_bits, range(self.config.machines)
        )
        # Paged clouds keep all their trunks' page files under one spill
        # directory (a private temp dir is removed with release_arenas());
        # a resident cloud reserves one arena, trunk t its slice t.
        self._spill_dir: str | None = None
        self._arena: Arena | None = None    # resident clouds only
        memory = self.config.memory
        self._stride = slice_stride(memory.trunk_size)
        if memory.storage == "paged":
            self._spill_dir = (memory.spill_dir
                               or tempfile.mkdtemp(prefix="repro-cloud-"))
        else:
            self._arena = Arena(self.config.trunk_count * self._stride)
        self._shadow: MemoryCloud | None = None   # set below, if checking
        # Slot t of each: the installed trunk t's epoch, and its mutex
        # with its hash table (one pair, so a read charges the table of
        # the trunk whose mutex it holds).
        self._epochs = np.zeros(self.config.trunk_count, dtype=np.int64)
        self._slots: list = [None] * self.config.trunk_count
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
        self._m_read_buffer_bytes = self.obs.counter(
            "memcloud.cloud.read_buffer_bytes")
        self._h_bulk_put = self.obs.histogram("memcloud.bulk.put.seconds")
        self._h_bulk_get = self.obs.histogram("memcloud.bulk.get.seconds")
        # Built in a checking() scope (read once, here: the shadow must
        # see every mutation), a cloud keeps a resident shadow cloud that
        # replays them through the scalar path; verify_shadow() compares
        # the worlds, across storage tiers on a paged cloud.  The shadow
        # is built unchecked, or it would build a shadow of its own.
        self._shadow_probes_comparable = True
        if is_checking():
            resident = dataclasses.replace(memory, storage="resident",
                                           spill_dir=None)
            with checking(False):
                self._shadow = MemoryCloud(
                    dataclasses.replace(self.config, memory=resident),
                    MetricsRegistry())

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

    def replace_trunk(self, trunk_id: int,
                      image_state: dict | None = None) -> MemoryTrunk:
        """Install a fresh trunk under ``trunk_id``; returns it.

        The one place a cloud's trunks are made — at construction, when
        a trunk image is adopted, when a machine's memory is lost — so
        every trunk gets the cloud's registry and its arena slice or
        spill-file wiring.  It is empty or adopts ``image_state`` (a
        parsed trunk image), and a shadow cloud gets the same
        replacement.  Replacing a trunk has three hazards, all handled
        here, under the old trunk's mutex:

        * Outstanding reads located cells of the *old* trunk, so
          replacing it silently would leave their epoch checks forever
          green against dead state — the old trunk is touched first.
        * A successor reuses its predecessor's slice of the arena (a
          paged one, its page file): the old storage is closed and the
          slice released (``MADV_DONTNEED``) first, so nothing of the
          old cells leaks into it.
        * The cloud-wide :meth:`mutation_epoch` sums the epoch column
          and :meth:`epoch_vector` lists it; a successor restarting at 0
          would move both *backwards*, validating serving-layer cache
          entries stamped before the replacement.  The successor counts
          on in its predecessor's slot of the epoch column, one past the
          epoch the retired trunk keeps in a copy of its own.
        """
        old = self.trunks.get(trunk_id)
        with old.mutex if old is not None else contextlib.nullcontext():
            if old is not None:
                old.touch()
                old._count_epoch_in(np.array([old.mutation_epoch]), 0)
                self._epochs[trunk_id] += 1
                old.storage.close()     # and releases its slice
            memory = self.config.memory
            fresh = MemoryTrunk(
                trunk_id, memory, registry=self.obs,
                storage=make_trunk_storage(
                    trunk_id, memory, registry=self.obs,
                    spill_dir=self._spill_dir, arena=self._arena,
                    base=trunk_id * self._stride),
            )
            fresh._count_epoch_in(self._epochs, trunk_id)
            self.trunks[trunk_id] = fresh
            self._slots[trunk_id] = (fresh.mutex, fresh._index)
            if image_state is not None:
                fresh.adopt_image_state(image_state)
        if self._shadow is not None:
            self._shadow.replace_trunk(trunk_id, image_state)
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

    def contains(self, cell_id: int) -> bool:
        if self._shadow is not None:
            self._shadow.contains(cell_id)
        return cell_id in self.trunk_for(cell_id)

    def mutation_epoch(self) -> int:
        """Cloud-wide mutation version: the sum of the epoch column.

        Strictly increases on *any* mutation anywhere in the cloud —
        puts, removes, resizes, defrag passes, wraps, and in-place
        accessor writes (:meth:`note_cell_write`) — so a value cached
        against this number is provably fresh while it matches.  The
        coarse validity token: snapshot consumers (the serving layer's
        CSR snapshot) stamp with it; caches that know which trunks they
        read use :meth:`epoch_vector` instead.
        """
        return int(self._epochs.sum())

    def epoch_vector(self) -> tuple[int, ...]:
        """Per-trunk mutation epochs, indexed by trunk id: the cloud's
        epoch column as a tuple, read in one ``tolist``.

        The fine-grained validity token: a cached value that recorded
        which trunks it was decoded from only needs those components to
        still match — a write to trunk 7 leaves entries that never read
        trunk 7 provably fresh.  Component ``t`` *is* the installed
        trunk's :attr:`MemoryTrunk.mutation_epoch` (the trunk counts in
        its slot of the column), so every mutation path moves exactly
        its owning trunk's component here.
        """
        return tuple(self._epochs.tolist())

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
        (the cell-accessor fixed-field path, which never calls put).  A
        shadow replica gets the same bytes written in place."""
        trunk = self.trunk_for(cell_id)
        trunk.touch()
        if self._shadow is not None:
            with self._shadow.pin(cell_id) as view:
                view[:] = trunk.get(cell_id)
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
        lows = np.flatnonzero(trunks[1:] != trunks[:-1]) + 1
        return uids, outside, order, trunks, np.concatenate(([0], lows))

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
            lows = lows.tolist()
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
        read = self.bulk_get_spans(cell_ids)
        buffer = read.buffer
        for i, lo, hi in zip(read.positions.tolist(), read.starts.tolist(),
                             read.limits.tolist()):
            out[i] = buffer[lo:hi].tobytes()
        read.assert_fresh()
        return out

    def bulk_get_spans(self, cell_ids, clip=None) -> SpanRead:
        """Payload spans for a batch, as one :class:`SpanRead` whose
        payload ``i`` is that of ``cell_ids[read.positions[i]]``.

        Every touched trunk's cells are copied into **one read-wide
        buffer**, with every touched trunk's mutex held (taken in trunk
        order, each trunk charged its lookups and probes), so the read
        decodes once.  A resident cloud copies the 8-byte words under
        all the spans with one ``take`` over its arena, at cloud offsets
        ``trunk × stride + start``
        (:func:`~repro.memcloud.storage.word_spans`); a paged trunk
        copies the pages under its spans into its own run of the buffer
        (one walk, copy and drop).  Decoders call
        :meth:`SpanRead.assert_fresh`, so an interleaved mutation raises
        :class:`~repro.errors.StaleSpanError` instead of yielding bytes
        of cells that have since moved.

        A resident read given a ``clip(buf, starts, limits) -> limits``
        (a decoder's :meth:`~repro.tsl.batch.BatchStructDecoder.clip`)
        copies only the bytes its reader needs: ``clip`` is called under
        the same held mutexes with the arena's bytes and the spans' cloud
        offsets, and may only lower each limit.  A paged read copies
        whole cells.

        The whole window is located in one probe pass over the cloud's
        :class:`~repro.memcloud.directory.SpanDirectory`.  Observably the
        batch is a scalar :meth:`get` loop: the same probe accounting per
        table, and a missing cell raises for the first such id in input
        order, before any byte is copied.
        """
        count = len(cell_ids)
        if not count:
            none = np.empty(0, dtype=np.int64)
            return SpanRead(none.view(np.uint8), *[none] * 4, self._epochs,
                            [], [])
        if self._shadow is not None:
            for cell_id in cell_ids:
                self._shadow.get(int(cell_id))
        with self._h_bulk_get.time():
            uids, outside, order, trunk_ids, lows = self._route(cell_ids)
            touched = trunk_ids[lows]
            with self._directory.lock:
                epochs = self._directory.refresh(self.trunks, touched,
                                                 self._epochs)
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
            touched = touched.tolist()
            if self._arena is None:
                # paged: each trunk the pages under its spans, in its own
                # run of the buffer, and its spans rebased into that run
                trunks = [self.trunks[t] for t in touched]
                page = self.config.memory.page_size
                runs = [slice(low, high) for low, high
                        in zip(lows.tolist(), [*lows[1:].tolist(), count])]
                pages = [trunk.storage.span_pages(starts[run], limits[run])
                         for trunk, run in zip(trunks, runs)]
                rows = np.cumsum([0, *map(len, pages)]).tolist()
                begins, ends = map(np.concatenate, zip(*(
                    trunk.storage.rebase(starts[run], limits[run], units, at)
                    for trunk, run, units, at
                    in zip(trunks, runs, pages, rows))))
                buffer = np.empty(rows[-1] * page, dtype=np.uint8)
                self._m_read_buffer_bytes.inc(len(buffer))
            else:
                offsets = trunk_ids * self._stride
                starts, limits = starts + offsets, limits + offsets
            slots = [self._slots[t] for t in touched]
            held = 0
            try:
                for (mutex, table), cells, walked in zip(
                        slots, np.diff(lows, append=count).tolist(),
                        np.add.reduceat(probes, lows).tolist()):
                    mutex.acquire()
                    held += 1
                    table.lookup_count += cells
                    table.probe_count += walked
                if self._arena is None:
                    out = buffer.reshape(-1, page)
                    for trunk, units, at, to in zip(trunks, pages, rows,
                                                    rows[1:]):
                        trunk.storage.take(units, out[at:to])
                else:
                    # resident: the spans clipped (if asked), then the
                    # read's words and rebased spans, once; "clip" (the
                    # words are in range) lets take write into the buffer
                    # directly; the default copies via a temporary
                    words = np.frombuffer(self._arena.buf, dtype=np.uint64)
                    if clip is not None:
                        limits = clip(words.view(np.uint8), starts, limits)
                    units, begins, ends = word_spans(starts, limits)
                    buffer = np.empty(8 * len(units), dtype=np.uint8)
                    self._m_read_buffer_bytes.inc(len(buffer))
                    words.take(units, out=buffer.view(np.uint64),
                               mode="clip")
            finally:
                for mutex, _table in slots[:held]:
                    mutex.release()
        self._m_bulk_get_cells.inc(count)
        self._m_bulk_get_batches.inc(len(touched))
        return SpanRead(buffer, begins, ends, order, trunk_ids, self._epochs,
                        touched, epochs.tolist())

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
            raise AddressingError("cloud was built outside oracle.checking()")
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
        """Unmap the cloud's arena and remove paged trunks' page files.

        Call when the cloud is done: any later use of it raises
        :class:`~repro.errors.MemoryCloudError`.  Views handed out
        earlier stay readable until they are garbage collected.
        """
        if self._arena is not None:
            self._arena.close()     # every resident storage's
        else:
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
        stats = [dataclasses.astuple(t.stats())
                 for t in self.trunks_on(machine_id)]
        if not stats:
            raise AddressingError(f"machine {machine_id} owns no trunks")
        return TrunkStats(*map(sum, zip(*stats)))     # every field summed

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
