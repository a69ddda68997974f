"""Batch blob encoding and decoding: one compiled layout plan per node type.

``GraphBuilder.finalize`` historically walked the TSL type tree once per
node — per-field dict lookups, per-element ``struct.pack`` calls.  For a
bulk load that is the dominant cost after edge ingest.  This module
compiles a :class:`~repro.tsl.types.StructType` into a *batch encoder*
once per node type; encoding then runs column-at-a-time into the packed
form: a column is one buffer plus a size per record, and the cells are
one interleave of the columns — no ``bytes`` per cell on the way.

The fast path is **bit-identical** to the scalar encoder: numpy's C casts
match the scalar casters (``int()`` truncation toward zero, IEEE float
narrowing, bool widening), and any value numpy cannot convert falls back
to the scalar element encoder so error behaviour matches too.  The
equivalence is test-pinned by a hypothesis suite.

The read direction mirrors it: :class:`BatchStructDecoder` decodes one
field across a batch of cell blobs column-at-a-time.  A batch has one
form on both sides — spans ``(buffer, starts, limits)`` over a single
byte buffer (:class:`~repro.utils.arrays.SpanBatch`), which is what the
encoder writes and the trunks hand out; :func:`pack_blobs` adapts a
``list[bytes]`` to it.  ``List<primitive>`` fields come back CSR-style —
one ``(indptr, flat_values)`` pair built from a single gather of the
element bytes, instead of one Python list (and one ``struct.unpack`` per
element) per blob — and ``field_counts_spans`` reads only the varint
list headers, which is what makes a batched ``degree()`` O(header)
instead of O(degree).
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, NamedTuple

import numpy as np

from ..errors import SchemaMismatchError, TslTypeError
from ..obs import get_registry
from ..utils.arrays import (
    SpanBatch,
    gather_ranges,
    interleave,
    pack_blobs,
    range_indices,
)
from ..utils.varint import (
    decode_varint_run,
    encode_varints,
    read_varints,
)
from .layout import (
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    encode_adjacency_segments,
)
from .types import (
    BOOL,
    BYTE,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    SHORT,
    STRING,
    AdjacencyListType,
    ListType,
    StructType,
    TslType,
)

# Primitive element types whose scalar struct codes have exact numpy
# dtype twins (little-endian, no padding) *including error behaviour*:
# numpy raises on out-of-range integers exactly where struct.pack does.
# FLOAT is deliberately absent — float64→float32 overflow becomes a
# silent inf under numpy where ``struct.pack('<f')`` raises.
_NUMPY_DTYPES = {
    id(BYTE): np.dtype("u1"),
    id(BOOL): np.dtype("?"),
    id(SHORT): np.dtype("<i2"),
    id(INT): np.dtype("<i4"),
    id(LONG): np.dtype("<i8"),
    id(DOUBLE): np.dtype("<f8"),
}
_INT64 = _NUMPY_DTYPES[id(LONG)]


def _prefixed(prefixes: np.ndarray, data: np.ndarray,
              data_sizes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """The pieces of records that are each a varint — one of
    ``prefixes`` — then their ``data_sizes[i]`` bytes of ``data``."""
    varints, varint_sizes = encode_varints(prefixes)
    return (varints, data), np.stack((varint_sizes, data_sizes), axis=1)


class ListColumn(NamedTuple):
    """A column of lists laid back to back: record ``i``'s list is the
    next ``counts[i]`` elements of ``flat``."""

    flat: np.ndarray
    counts: np.ndarray

    def tolists(self) -> list[list]:
        """Every record's list, as a Python list."""
        flat = self.flat.tolist()
        ends = np.cumsum(self.counts).tolist()
        return [flat[end - count:end]
                for count, end in zip(self.counts.tolist(), ends)]


class _FieldPlan:
    """Encodes one field for every record in a batch (a column)."""

    def __init__(self, name: str, tsl_type: TslType):
        self.name = name
        self.tsl_type = tsl_type
        self._adjacency = isinstance(tsl_type, AdjacencyListType)
        self._dtype = (_NUMPY_DTYPES.get(id(tsl_type.element))
                       if isinstance(tsl_type, ListType) else None)

    def encode_column(self, values) -> tuple[tuple, np.ndarray]:
        """The field of every record as its pieces ``(sources, sizes)``:
        record ``i``'s encoding is the next ``sizes[i, k]`` bytes of
        ``sources[k]`` for each ``k`` in turn.

        ``values`` is a list in record order or, for a ``List<long>``
        field, a :class:`ListColumn` of its elements.  A list column
        with a numpy element twin is one cast, a string column one utf-8
        encode per value, and either one varint run of lengths; anything
        irregular takes the scalar encoder per value (the canonical
        bytes, or error), counted as ``tsl.batch.fallback{op=encode}``
        when the column's fast path refused it.
        """
        if isinstance(values, ListColumn) and self._dtype != _INT64:
            values = values.tolists()
        lists = values
        if not isinstance(lists, ListColumn) and self._dtype is not None:
            lists = self._cast(values)
        if isinstance(lists, ListColumn):
            flat, counts = lists
            if self._adjacency:
                return encode_adjacency_segments(flat, counts,
                                                 self.tsl_type.policy)
            data = np.ascontiguousarray(flat).view(np.uint8)
            return _prefixed(counts, data, counts * self._dtype.itemsize)
        if self.tsl_type is STRING:
            try:
                raw = list(map(str.encode, values))
            except TypeError:       # not a str: the scalar error below
                raw = None
            if raw is not None:
                lengths = np.fromiter(map(len, raw), dtype=np.int64,
                                      count=len(raw))
                return _prefixed(lengths, np.frombuffer(
                    b"".join(raw), dtype=np.uint8), lengths)
        if self._dtype is not None or self.tsl_type is STRING:
            get_registry().counter("tsl.batch.fallback", op="encode").inc()
        encode = self.tsl_type.encode
        batch = pack_blobs([encode(value) for value in values])
        return (batch.buffer,), (batch.limits - batch.starts)[:, None]

    def _cast(self, values: list) -> ListColumn | None:
        """Every list of the column in one numpy cast, as spans of the
        flat result; ``None`` if anything is irregular (a non-list value,
        a nested sequence — it survives one level of chaining but yields
        a 2-D array — or an element the dtype rejects)."""
        if not all(type(value) in (list, tuple) for value in values):
            return None
        lengths = np.fromiter(map(len, values), dtype=np.int64,
                              count=len(values))
        try:
            flat = np.asarray(list(chain.from_iterable(values)),
                              dtype=self._dtype)
        except (ValueError, TypeError, OverflowError):
            return None
        if flat.ndim != 1 or len(flat) != int(lengths.sum()):
            return None
        return ListColumn(flat, lengths)


def assemble_cells(columns, count: int) -> SpanBatch:
    """Cell ``i`` is every column's pieces of record ``i``, in column
    order: the pieces ``(sources, sizes)`` of each
    :meth:`_FieldPlan.encode_column`, laid out by one interleave."""
    sources = [source for column_sources, _ in columns
               for source in column_sources]
    sizes = np.empty((count, len(sources)), dtype=np.int64)
    k = 0
    for column_sources, column_sizes in columns:
        sizes[:, k:k + len(column_sources)] = column_sizes
        k += len(column_sources)
    return SpanBatch.of_sizes(interleave(sources, sizes), sizes.sum(axis=1))


class BatchStructEncoder:
    """Column-at-a-time encoder for one struct type."""

    def __init__(self, struct_type: StructType):
        self.struct_type = struct_type
        self._plans = [
            _FieldPlan(name, tsl_type)
            for name, tsl_type in struct_type.fields
        ]

    def encode_many(self, records: list[dict]) -> SpanBatch:
        """Encode a batch of records; the batch's blobs are
        ``[struct.encode(r) for r in records]``.

        Missing fields take the field default, exactly like the scalar
        encoder; unknown fields raise through the scalar validator.
        """
        known = {plan.name for plan in self._plans}
        if not all(map(known.issuperset, records)):
            for record in records:    # the scalar encoder's first error
                self.struct_type.encode(record)
        columns = [[record[plan.name] if plan.name in record
                    else plan.tsl_type.default() for record in records]
                   for plan in self._plans]
        return self.encode_columns(columns, len(records))

    def encode_columns(self, columns, count: int) -> SpanBatch:
        """Encode ``count`` records given a field at a time: ``columns[k]``
        is the struct's ``k``-th field for every record, in record order
        (what :meth:`_FieldPlan.encode_column` takes)."""
        return assemble_cells([plan.encode_column(column) for plan, column
                               in zip(self._plans, columns)], count)


_ENCODER_CACHE: dict[int, BatchStructEncoder] = {}


def batch_encoder_for(struct_type: StructType) -> BatchStructEncoder:
    """Get (or compile) the batch encoder for a struct type.

    Cached per StructType instance — this is the "compile the layout once
    per node type, not per node" half of the bulk loading path.
    """
    encoder = _ENCODER_CACHE.get(id(struct_type))
    if encoder is None or encoder.struct_type is not struct_type:
        encoder = BatchStructEncoder(struct_type)
        _ENCODER_CACHE[id(struct_type)] = encoder
    return encoder


# ---------------------------------------------------------------------------
# Batch decoding (the read direction of the bulk data path)
# ---------------------------------------------------------------------------

# FLOAT decodes safely through numpy (f32 -> Python float matches
# ``struct.unpack('<f')`` exactly); it is only excluded from the *encode*
# dtype map above because of the silent-inf narrowing hazard.
_DECODE_DTYPES = dict(_NUMPY_DTYPES)
_DECODE_DTYPES[id(FLOAT)] = np.dtype("<f4")


def _advance(pos: np.ndarray, counts: np.ndarray, width: int,
             limits: np.ndarray) -> np.ndarray:
    """``pos + counts * width`` for positions at or before ``limits``.  A
    count above ``limits`` (no span holds that many bytes) is cut to it:
    the result still lands past the span's end, where the next read
    raises what the scalar decoder raises, instead of wrapping int64."""
    counts = np.minimum(counts, limits)
    return pos + (counts if width == 1 else counts * width)


def _require_room(counts: np.ndarray, width: int, pos: np.ndarray,
                  limits: np.ndarray, what: str) -> None:
    """The scalar decoder's error unless every span holds ``counts *
    width`` bytes after ``pos`` (checked without forming the product)."""
    room = limits - pos
    if (counts > (room if width == 1 else room // width)).any():
        raise SchemaMismatchError(f"blob too short for {what}")


def _skip_list(buf: np.ndarray, pos: np.ndarray, limits: np.ndarray,
               width: int) -> np.ndarray:
    """Column-at-a-time ``skip`` of a varint count followed by ``width``
    bytes per element: a string (``width`` 1) or a ``List<fixed>``."""
    counts, pos = read_varints(buf, pos, limits)
    return _advance(pos, counts, width, limits)


def _adjacency_headers(buf: np.ndarray, pos: np.ndarray, limits: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, tags, payload_positions)`` for an adjacency column."""
    headers, payload = read_varints(buf, pos, limits)
    tags = headers & 3
    if (tags == 3).any():
        raise SchemaMismatchError("unknown adjacency layout tag 3")
    return headers >> 2, tags, payload


def _skip_adjacency(buf: np.ndarray, pos: np.ndarray,
                    limits: np.ndarray) -> np.ndarray:
    """Column-at-a-time ``AdjacencyListType.skip``."""
    counts, tags, payload = _adjacency_headers(buf, pos, limits)
    out = _advance(payload, counts, 8, limits)   # raw; the others below
    delta = np.flatnonzero(tags == LAYOUT_DELTA_VARINT)
    if len(delta):
        out[delta] = _skip_list(buf, payload[delta], limits[delta], 1)
    bitmap = np.flatnonzero(tags == LAYOUT_BITMAP)
    if len(bitmap):
        bitmap_limits = limits[bitmap]
        _, after = read_varints(buf, payload[bitmap], bitmap_limits)
        out[bitmap] = _skip_list(buf, after, bitmap_limits, 1)
    return out


def _skip_step(tsl_type: TslType):
    """``tsl_type.skip`` as one column-at-a-time step ``(buf, pos,
    limits) -> pos``, or ``None`` for a type with none (a nested list, a
    ``List<string>``, a variable-size struct)."""
    size = tsl_type.fixed_size
    if size is not None:
        return lambda buf, pos, limits: pos + size
    if tsl_type is STRING:
        return partial(_skip_list, width=1)
    if isinstance(tsl_type, AdjacencyListType):
        return _skip_adjacency
    if (isinstance(tsl_type, ListType)
            and tsl_type.element.fixed_size is not None):
        return partial(_skip_list, width=tsl_type.element.fixed_size)
    return None


def _gather_elements(buf: np.ndarray, pos: np.ndarray, limits: np.ndarray,
                     counts: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The ``counts[i]`` packed ``dtype`` elements at each ``pos[i]``, back
    to back: one gather and a dtype view."""
    _require_room(counts, dtype.itemsize, pos, limits, f"{dtype} elements")
    return gather_ranges(buf, pos, counts * dtype.itemsize).view(dtype)


def _decode_delta_group(buf: np.ndarray, pos: np.ndarray,
                        limits: np.ndarray, counts: np.ndarray
                        ) -> np.ndarray:
    """``LAYOUT_DELTA_VARINT`` lists, back to back.

    One gather for every list's payload bytes, then the whole varint
    stream is decoded as one run
    (:func:`~repro.utils.varint.decode_varint_run`) into the zigzag
    codes, and a wrap-safe segmented prefix sum (uint64 cumsum minus
    each list's basis) undoes the deltas.
    """
    nbytes, payload_start = read_varints(buf, pos, limits)
    _require_room(nbytes, 1, payload_start, limits, "adjacency delta payload")
    payload = gather_ranges(buf, payload_start, nbytes)
    # Every list's byte range must hold exactly its count of end bytes
    # (``< 0x80``, counted by one binary search over their sorted
    # positions) and finish on one: that rules out a varint straddling
    # two lists' payloads (a straddler would leave a continuation bit on
    # some list's tail byte), so the payload is one run of varints.
    end_positions = np.flatnonzero(payload < 0x80)
    byte_cuts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_cuts[1:])
    if ((np.diff(np.searchsorted(end_positions, byte_cuts)) != counts).any()
            or (payload[byte_cuts[1:][nbytes > 0] - 1] >= 0x80).any()):
        raise SchemaMismatchError("corrupt adjacency delta payload")
    try:
        codes, _ = decode_varint_run(payload, 0, len(end_positions))
    except ValueError:  # an 11-byte code, or a 10th byte past bit 63
        raise SchemaMismatchError("corrupt adjacency delta payload") from None
    deltas = ((codes >> np.uint64(1)).astype(np.int64)
              ^ -(codes & np.uint64(1)).astype(np.int64))
    running = np.cumsum(deltas.view(np.uint64))
    basis = np.concatenate((np.zeros(1, dtype=np.uint64), running))
    value_cuts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=value_cuts[1:])
    values = (running - np.repeat(basis[value_cuts[:-1]], counts)
              ).view(np.int64)
    # The uint64 sums are exact wherever every prefix stays inside int64,
    # which none can leave unless the group's length times its largest
    # |delta| reaches 2**63.  Otherwise the first prefix that left it is
    # where the scalar decoder raises: an add whose result's sign differs
    # from both operands' signs.
    if len(codes) * ((int(codes.max(initial=0)) >> 1) + 1) >= 2 ** 63:
        previous = values - deltas          # 0 at each list's head
        if (((previous ^ values) & (deltas ^ values)) < 0).any():
            raise SchemaMismatchError(
                "adjacency delta payload overflows int64")
    return values


def _decode_bitmap_group(buf: np.ndarray, pos: np.ndarray,
                         limits: np.ndarray, counts: np.ndarray
                         ) -> np.ndarray:
    """``LAYOUT_BITMAP`` lists, back to back.

    One gather for all bitmap bytes, one ``np.unpackbits``, and one
    ``searchsorted`` to map every set bit back to its list; ids come out
    ascending per list, which is the stored order for any
    bitmap-eligible list.
    """
    bases, after = read_varints(buf, pos, limits)
    nbytes, payload_start = read_varints(buf, after, limits)
    _require_room(nbytes, 1, payload_start, limits,
                  "adjacency bitmap payload")
    set_positions = np.flatnonzero(np.unpackbits(
        gather_ranges(buf, payload_start, nbytes), bitorder="little"))
    bit_cuts = 8 * np.cumsum(nbytes)
    owner = np.searchsorted(bit_cuts, set_positions, side="right")
    if (np.bincount(owner, minlength=len(counts)) != counts).any():
        raise SchemaMismatchError("adjacency bitmap popcount != header count")
    bit_starts = np.concatenate((np.zeros(1, dtype=np.int64), bit_cuts))
    firsts = bases[owner]
    values = firsts + (set_positions - bit_starts[owner])
    if (values < firsts).any():
        raise SchemaMismatchError("adjacency bitmap payload overflows int64")
    return values


_GROUP_DECODERS = {
    LAYOUT_RAW: partial(_gather_elements, dtype=_INT64),
    LAYOUT_DELTA_VARINT: _decode_delta_group,
    LAYOUT_BITMAP: _decode_bitmap_group,
}


def _decode_adjacency_csr(buf: np.ndarray, pos: np.ndarray,
                          limits: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Columnar adjacency decode, dispatched per layout group.

    The column is partitioned by header tag; each group decodes with its
    own codec and scatters into one flat CSR output, so a frontier
    mixing raw tails, delta hubs and bitmap hubs still costs O(groups)
    numpy passes.  Each group decoder checks its lists' counts against
    their payloads before anything is sized by them.
    """
    counts, tags, payload = _adjacency_headers(buf, pos, limits)
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    # A homogeneous column needs no scatter: the group decoder's output
    # already is the flat CSR.
    first = int(tags[0]) if len(tags) else LAYOUT_RAW
    if (tags == first).all():
        flat = _GROUP_DECODERS[first](buf, payload, limits, counts)
        np.cumsum(counts, out=indptr[1:])
        return indptr, flat
    groups = []
    for tag, decode in _GROUP_DECODERS.items():
        group = np.flatnonzero(tags == tag)
        if len(group):
            groups.append((group, decode(buf, payload[group], limits[group],
                                         counts[group])))
    np.cumsum(counts, out=indptr[1:])
    flat = np.empty(int(indptr[-1]), dtype=np.int64)
    for group, values in groups:
        flat[range_indices(indptr[group], counts[group])] = values
    return indptr, flat


def _clip_step(tsl_type: TslType, base: int) -> Callable | None:
    """``clip(buf, starts, limits) -> limits``, each span cut to where a
    field at the static offset ``base`` ends: after its fixed size, or
    after the varint count of a string or a ``List<fixed>`` and that
    many elements.  A batch with a count the decoder would reject keeps
    its limits whole, so the decoder meets that count exactly as it
    would unclipped; a field that would run past its span keeps that
    span's limit."""
    if tsl_type.fixed_size is not None:
        end = base + tsl_type.fixed_size
        return lambda buf, starts, limits: np.minimum(limits, starts + end)
    if tsl_type is STRING:
        width = 1
    elif (isinstance(tsl_type, ListType)
            and not isinstance(tsl_type, AdjacencyListType)
            and tsl_type.element.fixed_size is not None):
        width = tsl_type.element.fixed_size
    else:
        return None

    def clip(buf, starts, limits):
        try:
            counts, after = read_varints(buf, starts + base, limits)
        except (ValueError, SchemaMismatchError):
            return limits
        return np.minimum(limits, after + np.minimum(counts, limits) * width)
    return clip


class _FieldRead(NamedTuple):
    """How :class:`BatchStructDecoder` reaches and reads one field."""

    tsl_type: TslType
    base: int
    """Bytes of fixed-size fields before the first variable-size one."""
    skips: tuple | None
    """One column-at-a-time step per later predecessor; ``None`` when
    one has no such step and the field is located per blob."""
    column: Callable
    """The field's :meth:`BatchStructDecoder.decode_column_spans`."""
    clip: Callable | None
    """The field's :meth:`BatchStructDecoder.clip`."""


class BatchStructDecoder:
    """Column-at-a-time field decoder for one struct type.

    Each field's plan is compiled once.  The run of fixed-size
    predecessors before it is a static byte offset, and every later
    predecessor is one column-at-a-time skip: an add for a fixed size,
    one vectorized varint pass for a string, a ``List<fixed>`` or an
    adjacency list.  A predecessor without one (a nested list, a
    ``List<string>``, a variable-size struct) makes the plan locate the
    field per blob, by ``StructType.field_offset`` over each span's own
    bytes; a field type without a column decoder (``List<string>``,
    ``List<float>``, ``BitArray``, a struct) is read per blob by its
    ``TslType.decode``.  Either per-blob step counts one
    ``tsl.batch.fallback{op}`` per batch.

    Malformed input raises where it is found, with the exception class
    the scalar decoder raises on that blob (DESIGN.md §10).
    """

    def __init__(self, struct_type: StructType):
        self.struct_type = struct_type
        self._plans: dict[str, _FieldRead] = {}
        base, skips = 0, ()
        for name, tsl_type in struct_type.fields:
            self._plans[name] = _FieldRead(
                tsl_type, base, skips, self._column_step(tsl_type),
                _clip_step(tsl_type, base) if skips == () else None)
            if skips == () and tsl_type.fixed_size is not None:
                base += tsl_type.fixed_size
            elif skips is not None:
                skip = _skip_step(tsl_type)
                skips = None if skip is None else skips + (skip,)

    def _column_step(self, tsl_type: TslType) -> Callable:
        if (isinstance(tsl_type, ListType)
                and id(tsl_type.element) in _NUMPY_DTYPES):
            return self._list_column
        if tsl_type is STRING:
            return self._string_column
        dtype = _DECODE_DTYPES.get(id(tsl_type))
        if dtype is not None:
            return partial(self._fixed_column, dtype=dtype)
        return self._blob_column

    def _plan(self, field_name: str) -> _FieldRead:
        try:
            return self._plans[field_name]
        except KeyError:
            raise TslTypeError(
                f"{self.struct_type.name} has no field {field_name!r}"
            ) from None

    def field_type(self, field_name: str) -> TslType:
        return self._plan(field_name).tsl_type

    def clip(self, field_name: str) -> Callable | None:
        """``clip(buf, starts, limits) -> limits``: each span of ``buf``
        cut to the bytes reading ``field_name`` needs, for a read to copy
        only those (``MemoryCloud.bulk_get_spans``); ``None`` where they
        depend on earlier fields or the field has no count to end it (an
        adjacency list)."""
        return self._plan(field_name).clip

    def csr_dtype(self, field_name: str) -> np.dtype | None:
        """The numpy element dtype when the field has a CSR fast path."""
        tsl_type = self.field_type(field_name)
        if isinstance(tsl_type, ListType):
            return _NUMPY_DTYPES.get(id(tsl_type.element))
        return None

    @staticmethod
    def _blobs(op: str, buf: np.ndarray, starts: np.ndarray,
               limits: np.ndarray) -> list[bytes]:
        """The spans as ``bytes`` for a per-blob step, counted as
        ``tsl.batch.fallback{op}``."""
        get_registry().counter("tsl.batch.fallback", op=op).inc()
        return SpanBatch(buf, starts, limits).blobs()

    def _positions(self, op: str, buf: np.ndarray, starts: np.ndarray,
                   limits: np.ndarray, field_name: str) -> np.ndarray:
        """Absolute offsets of ``field_name`` in every span, by its plan."""
        plan = self._plans[field_name]
        if plan.skips is None:
            # A corrupt length can put the field far past its blob (past
            # int64, even); at the blob's end the next read raises the
            # same error.
            offset = self.struct_type.field_offset
            return starts + np.fromiter(
                (min(offset(blob, field_name), len(blob))
                 for blob in self._blobs(op, buf, starts, limits)),
                dtype=np.int64, count=len(starts))
        pos = starts + plan.base
        for skip in plan.skips:
            pos = skip(buf, pos, limits)
        return pos

    def field_counts_spans(self, buf: np.ndarray, starts: np.ndarray,
                           limits: np.ndarray, field_name: str) -> np.ndarray:
        """List lengths for a ``List<T>`` field, one per blob span.

        Decodes only each blob's varint count header — never the
        elements — which is the whole point of a batched ``degree()``.
        """
        tsl_type = self.field_type(field_name)
        if not isinstance(tsl_type, ListType):
            raise SchemaMismatchError(
                f"{field_name!r} is {tsl_type.name}, not a List field"
            )
        pos = self._positions("counts", buf, starts, limits, field_name)
        counts, _ = read_varints(buf, pos, limits)
        if isinstance(tsl_type, AdjacencyListType):
            return counts >> 2
        return counts

    def decode_list_csr_spans(self, buf: np.ndarray, starts: np.ndarray,
                              limits: np.ndarray, field_name: str
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Decode a ``List<primitive>`` column as ``(indptr, flat)``.

        ``flat[indptr[i]:indptr[i + 1]]`` holds the elements of blob
        ``buf[starts[i]:limits[i]]`` (e.g. a live trunk-arena view).  One
        gather collects every blob's element bytes and a single dtype
        view replaces one ``struct.unpack`` per element — the same trick
        as the bulk encoder, run in reverse.  ``flat.tolist()`` of any
        slice equals the scalar ``ListType.decode`` value exactly (numpy
        and ``struct`` agree on every little-endian primitive).
        """
        dtype = self.csr_dtype(field_name)
        if dtype is None:
            raise SchemaMismatchError(
                f"{field_name!r} has no numpy-decodable element type"
            )
        pos = self._positions("csr", buf, starts, limits, field_name)
        if isinstance(self.field_type(field_name), AdjacencyListType):
            return _decode_adjacency_csr(buf, pos, limits)
        counts, data_start = read_varints(buf, pos, limits)
        flat = _gather_elements(buf, data_start, limits, counts, dtype)
        indptr = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, flat

    def decode_column_spans(self, buf: np.ndarray, starts: np.ndarray,
                            limits: np.ndarray, field_name: str) -> list:
        """Per-blob Python values for any field, CSR-accelerated when
        possible; elementwise equal to scalar ``decode`` per blob."""
        column = self._plan(field_name).column
        return column(buf, starts, limits, field_name)

    def _list_column(self, buf, starts, limits, field_name: str) -> list:
        indptr, flat = self.decode_list_csr_spans(buf, starts, limits,
                                                  field_name)
        values = flat.tolist()
        cuts = indptr.tolist()
        return [values[cuts[i]:cuts[i + 1]] for i in range(len(starts))]

    def _string_column(self, buf, starts, limits, field_name: str
                       ) -> list[str]:
        """One vectorized varint pass + one gather for a string column."""
        pos = self._positions("column", buf, starts, limits, field_name)
        lengths, data_start = read_varints(buf, pos, limits)
        _require_room(lengths, 1, data_start, limits, "string")
        raw = gather_ranges(buf, data_start, lengths).tobytes()
        offsets = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        cuts = offsets.tolist()
        return [raw[cuts[i]:cuts[i + 1]].decode("utf-8")
                for i in range(len(starts))]

    def _fixed_column(self, buf, starts, limits, field_name: str,
                      dtype: np.dtype) -> list:
        """One gather for a fixed-width primitive column."""
        pos = self._positions("column", buf, starts, limits, field_name)
        size = dtype.itemsize
        if (limits - pos < size).any():
            raise SchemaMismatchError(f"blob too short for {dtype}")
        positions = (pos[:, None] + np.arange(size)).ravel()
        return buf[positions].view(dtype).tolist()

    def _blob_column(self, buf, starts, limits, field_name: str) -> list:
        """Per blob, by the field type's own decoder: the plan's step for
        a type without a column decoder."""
        decode = self.field_type(field_name).decode
        offset = self.struct_type.field_offset
        return [decode(blob, offset(blob, field_name))[0]
                for blob in self._blobs("column", buf, starts, limits)]

    def string_eq_spans(self, buf: np.ndarray, starts: np.ndarray,
                        limits: np.ndarray, field_name: str,
                        value) -> np.ndarray:
        """``field == value`` per blob span, without building strings.

        Length mismatches are rejected by the varint headers alone; only
        equal-length candidates get a byte compare — one fancy-index
        gather for the whole batch.  Equal to decoding the column and
        comparing (utf-8 encoding is injective, and a non-``str`` value
        equals no string), with one exception: a stored string that is
        not valid utf-8 compares unequal here, where decoding it raises
        ``UnicodeDecodeError`` — its bytes are never decoded.
        """
        if self.field_type(field_name) is not STRING:
            return np.asarray(
                [v == value
                 for v in self.decode_column_spans(buf, starts, limits,
                                                   field_name)],
                dtype=bool)
        if not isinstance(value, str):
            return np.zeros(len(starts), dtype=bool)
        needle = np.frombuffer(value.encode("utf-8"), dtype=np.uint8)
        pos = self._positions("string_eq", buf, starts, limits, field_name)
        lengths, data_start = read_varints(buf, pos, limits)
        _require_room(lengths, 1, data_start, limits, "string")
        hits = lengths == len(needle)
        candidates = np.flatnonzero(hits)
        if len(candidates) and len(needle):
            positions = (data_start[candidates][:, None]
                         + np.arange(len(needle))).ravel()
            raw = buf[positions].reshape(len(candidates), len(needle))
            hits[candidates] = (raw == needle).all(axis=1)
        return hits


_DECODER_CACHE: dict[int, BatchStructDecoder] = {}


def batch_decoder_for(struct_type: StructType) -> BatchStructDecoder:
    """Get (or compile) the batch decoder for a struct type (cached)."""
    decoder = _DECODER_CACHE.get(id(struct_type))
    if decoder is None or decoder.struct_type is not struct_type:
        decoder = BatchStructDecoder(struct_type)
        _DECODER_CACHE[id(struct_type)] = decoder
    return decoder
