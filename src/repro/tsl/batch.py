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

from itertools import chain

import numpy as np

from ..errors import SchemaMismatchError
from ..obs import get_registry
from ..utils.arrays import (
    SpanBatch,
    gather_ranges,
    interleave,
    pack_blobs,
    range_indices,
)
from ..utils.varint import (
    VarintBatchError,
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
              data_sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(buffer, sizes)`` of records that are each a varint — one of
    ``prefixes`` — then their ``data_sizes[i]`` bytes of ``data``."""
    varints, varint_sizes = encode_varints(prefixes)
    return (interleave((varints, data),
                       np.stack((varint_sizes, data_sizes), axis=1)),
            varint_sizes + data_sizes)


class _FieldPlan:
    """Encodes one field for every record in a batch (a column)."""

    def __init__(self, name: str, tsl_type: TslType):
        self.name = name
        self.tsl_type = tsl_type
        self._adjacency = isinstance(tsl_type, AdjacencyListType)
        self._dtype = (_NUMPY_DTYPES.get(id(tsl_type.element))
                       if isinstance(tsl_type, ListType) else None)

    def encode_column(self, values) -> tuple[np.ndarray, np.ndarray]:
        """The field of every record as ``(buffer, sizes)``: record
        ``i``'s encoding is the next ``sizes[i]`` bytes of ``buffer``.

        ``values`` is a list in record order or, for a ``List<long>``
        field, a :class:`~repro.utils.arrays.SpanBatch` of its elements.
        A list column with a numpy element twin is one cast, a string
        column one utf-8 encode per value, and either one varint run of
        lengths; anything irregular takes the scalar encoder per value
        (the canonical bytes, or error).
        """
        if isinstance(values, SpanBatch) and self._dtype != _INT64:
            values = [values.buffer[lo:hi].tolist() for lo, hi
                      in zip(values.starts.tolist(), values.limits.tolist())]
        lists = values
        if not isinstance(lists, SpanBatch) and self._dtype is not None:
            lists = self._cast(values)
        if isinstance(lists, SpanBatch):
            flat, starts, limits = lists
            if self._adjacency:
                return encode_adjacency_segments(flat, starts, limits,
                                                 self.tsl_type.policy)
            counts = limits - starts
            data = flat[range_indices(starts, counts)].view(np.uint8)
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
        encode = self.tsl_type.encode
        batch = pack_blobs([encode(value) for value in values])
        return batch.buffer, batch.limits - batch.starts

    def _cast(self, values: list) -> SpanBatch | None:
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
        return SpanBatch.of_sizes(flat, lengths)


def assemble_cells(columns, count: int) -> SpanBatch:
    """Cell ``i`` is every column's piece ``i``, in column order: the
    field columns ``(buffer, sizes)`` of :meth:`_FieldPlan.encode_column`
    interleaved into one buffer of cells."""
    sizes = np.empty((count, len(columns)), dtype=np.int64)
    for k, (_, column_sizes) in enumerate(columns):
        sizes[:, k] = column_sizes
    return SpanBatch.of_sizes(
        interleave([buffer for buffer, _ in columns], sizes),
        sizes.sum(axis=1))


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


class _ScalarFallback(Exception):
    """Internal: the vectorized path cannot handle this batch.

    Raised when a layout is not vectorizable (variable-size elements in
    the skip chain) or when the input looks malformed — the caller
    reruns the per-blob scalar path, which either succeeds or produces
    the canonical exception.
    """


def _read_varints(buf: np.ndarray, pos: np.ndarray, limits: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """One LEB128 varint per position via the shared vectorized codec.

    Thin wrapper over :func:`repro.utils.varint.read_varints` (the single
    LEB128 implementation in the tree) that maps its
    :class:`VarintBatchError` onto :class:`_ScalarFallback` so the scalar
    path can produce the canonical result or error.
    """
    try:
        return read_varints(buf, pos, limits)
    except VarintBatchError:
        raise _ScalarFallback from None


def _read_adjacency_headers(buf: np.ndarray, pos: np.ndarray,
                            limits: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(counts, tags, payload_positions)`` for an adjacency column.

    Reserved tag 3 drops to the scalar path, which raises the canonical
    :class:`SchemaMismatchError` for it.
    """
    headers, payload = _read_varints(buf, pos, limits)
    tags = headers & 3
    if np.any(tags == 3):
        raise _ScalarFallback
    return headers >> 2, tags, payload


def _skip_adjacency_vec(buf: np.ndarray, pos: np.ndarray,
                        limits: np.ndarray) -> np.ndarray:
    """Vectorized ``AdjacencyListType.skip`` across one blob column."""
    counts, tags, payload = _read_adjacency_headers(buf, pos, limits)
    out = np.empty_like(payload)
    raw = tags == LAYOUT_RAW
    out[raw] = payload[raw] + counts[raw] * 8
    delta = np.flatnonzero(tags == LAYOUT_DELTA_VARINT)
    if len(delta):
        nbytes, after = _read_varints(buf, payload[delta], limits[delta])
        out[delta] = after + nbytes
    bitmap = np.flatnonzero(tags == LAYOUT_BITMAP)
    if len(bitmap):
        _, after = _read_varints(buf, payload[bitmap], limits[bitmap])
        nbytes, after = _read_varints(buf, after, limits[bitmap])
        out[bitmap] = after + nbytes
    if np.any(out > limits):
        raise _ScalarFallback  # scalar skip/decode raises the canonical error
    return out


def _decode_delta_group(buf: np.ndarray, pos: np.ndarray,
                        limits: np.ndarray, counts: np.ndarray
                        ) -> np.ndarray:
    """Vectorized ``LAYOUT_DELTA_VARINT`` decode for one column group.

    One gather for every list's payload bytes, then the whole varint
    stream is decoded as one run
    (:func:`~repro.utils.varint.decode_varint_run`) into the zigzag
    codes, and a wrap-safe segmented prefix sum (uint64 cumsum minus
    each list's basis) undoes the deltas.  Anything that does not look
    like our own encoder's output — boundary-crossing varints, 11-byte
    codes, a negative reconstructed id (the encoder only delta-encodes
    non-negative lists) — drops to the scalar reference decoder.
    """
    nbytes, payload_start = _read_varints(buf, pos, limits)
    if (payload_start + nbytes > limits).any():
        raise _ScalarFallback
    payload = gather_ranges(buf, payload_start, nbytes)
    # Every list's byte range must hold exactly its count of end bytes
    # (``< 0x80``, counted by one binary search over their sorted
    # positions) and finish on one: that rules out a varint straddling
    # two lists' payloads (a straddler would leave a continuation bit on
    # some list's tail byte), so the payload is one run of varints.
    end_positions = np.flatnonzero(payload < 0x80)
    byte_cuts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(nbytes, out=byte_cuts[1:])
    if (np.diff(np.searchsorted(end_positions, byte_cuts)) != counts).any():
        raise _ScalarFallback
    if (payload[byte_cuts[1:][nbytes > 0] - 1] >= 0x80).any():
        raise _ScalarFallback
    if not len(payload):
        return np.empty(0, dtype=np.int64)
    try:
        codes, _ = decode_varint_run(payload, 0, len(end_positions))
    except ValueError:  # an 11-byte code, or a 10th byte past bit 63
        raise _ScalarFallback from None
    deltas = ((codes >> np.uint64(1)).astype(np.int64)
              ^ -(codes & np.uint64(1)).astype(np.int64))
    # Segmented prefix sum, wrap-safe: uint64 cumulates mod 2**64 and the
    # per-list basis subtraction recovers the exact value whenever it
    # fits in int64 (guaranteed for encoder output: ids are >= 0).
    running = np.cumsum(deltas.view(np.uint64))
    basis = np.concatenate((np.zeros(1, dtype=np.uint64), running))
    value_cuts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=value_cuts[1:])
    values = (running - np.repeat(basis[value_cuts[:-1]], counts)
              ).astype(np.int64)
    if int(values.min()) < 0:
        raise _ScalarFallback
    return values


def _decode_bitmap_group(buf: np.ndarray, pos: np.ndarray,
                         limits: np.ndarray, counts: np.ndarray
                         ) -> np.ndarray:
    """Vectorized ``LAYOUT_BITMAP`` decode for one column group.

    One gather for all bitmap bytes, one ``np.unpackbits``, and one
    ``searchsorted`` to map every set bit back to its list; ids come out
    ascending per list, which is the stored order for any
    bitmap-eligible list.  Popcount mismatches drop to the scalar
    reference decoder for the canonical error.
    """
    bases, after = _read_varints(buf, pos, limits)
    nbytes, payload_start = _read_varints(buf, after, limits)
    if np.any(payload_start + nbytes > limits):
        raise _ScalarFallback
    payload = gather_ranges(buf, payload_start, nbytes)
    bits = np.unpackbits(payload, bitorder="little")
    set_positions = np.flatnonzero(bits)
    if len(set_positions) != int(counts.sum()):
        raise _ScalarFallback
    bit_cuts = 8 * np.cumsum(nbytes)
    owner = np.searchsorted(bit_cuts, set_positions, side="right")
    if np.any(np.bincount(owner, minlength=len(counts)) != counts):
        raise _ScalarFallback
    bit_starts = np.concatenate((np.zeros(1, dtype=np.int64),
                                 bit_cuts))[owner]
    values = bases[owner] + (set_positions - bit_starts)
    if np.any(values < bases[owner]):
        raise _ScalarFallback  # int64 wrap: scalar owns the error
    return values


class BatchStructDecoder:
    """Column-at-a-time field decoder for one struct type.

    Field location is compiled once: the run of fixed-size predecessors
    before each field collapses to a static byte offset, and only the
    variable-size predecessors (strings, lists) are skipped per blob.
    """

    def __init__(self, struct_type: StructType):
        self.struct_type = struct_type
        self._locators: dict[str, tuple[int, tuple[TslType, ...]]] = {}
        fixed_prefix = 0
        variable: list[TslType] = []
        for name, tsl_type in struct_type.fields:
            self._locators[name] = (fixed_prefix, tuple(variable))
            if tsl_type.fixed_size is not None and not variable:
                fixed_prefix += tsl_type.fixed_size
            else:
                variable.append(tsl_type)

    def field_type(self, field_name: str) -> TslType:
        return self.struct_type.field_type(field_name)

    def _offset_in(self, blob, field_name: str) -> int:
        """Byte offset of ``field_name`` inside one cell blob."""
        offset, variable = self._locator(field_name)
        for tsl_type in variable:
            offset = tsl_type.skip(blob, offset)
        return offset

    def _locator(self, field_name: str) -> tuple[int, tuple[TslType, ...]]:
        try:
            return self._locators[field_name]
        except KeyError:
            raise SchemaMismatchError(
                f"{self.struct_type.name} has no field {field_name!r}"
            ) from None

    def _field_positions(self, buf: np.ndarray, starts: np.ndarray,
                         limits: np.ndarray, field_name: str) -> np.ndarray:
        """Absolute field offsets for every blob span in a batch.

        The whole skip chain runs column-at-a-time: fixed-size
        predecessors are one vectorized add, strings and
        ``List<fixed-size>`` predecessors are one vectorized varint pass
        plus an add.  Any other variable-size predecessor (nested lists,
        ``List<string>``) raises :class:`_ScalarFallback`.
        """
        base, variable = self._locator(field_name)
        pos = starts + base
        for tsl_type in variable:
            if tsl_type.fixed_size is not None:
                pos = pos + tsl_type.fixed_size
            elif tsl_type is STRING:
                lengths, pos = _read_varints(buf, pos, limits)
                pos = pos + lengths
            elif isinstance(tsl_type, AdjacencyListType):
                pos = _skip_adjacency_vec(buf, pos, limits)
            elif (isinstance(tsl_type, ListType)
                  and tsl_type.element.fixed_size is not None):
                counts, pos = _read_varints(buf, pos, limits)
                pos = pos + counts * tsl_type.element.fixed_size
            else:
                raise _ScalarFallback
        return pos

    def csr_dtype(self, field_name: str) -> np.dtype | None:
        """The numpy element dtype when the field has a CSR fast path."""
        tsl_type = self.field_type(field_name)
        if isinstance(tsl_type, ListType):
            return _NUMPY_DTYPES.get(id(tsl_type.element))
        return None

    def _decode(self, op: str, vector, scalar, buf: np.ndarray,
                starts: np.ndarray, limits: np.ndarray, field_name: str,
                *extra):
        """``vector`` over the spans, or its per-blob scalar reference.

        The one place a :class:`_ScalarFallback` is caught (and counted,
        as ``tsl.batch.fallback{op}``): the spans are sliced to ``bytes``
        once and go straight to the scalar loop, which either succeeds or
        raises the canonical error.  An empty batch takes the same loop.
        """
        if len(starts):
            try:
                return vector(buf, starts, limits, field_name, *extra)
            except _ScalarFallback:
                get_registry().counter("tsl.batch.fallback", op=op).inc()
        return scalar(SpanBatch(buf, starts, limits).blobs(), field_name,
                      *extra)

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
        return self._decode("counts", self._field_counts_vec,
                            self._field_counts_scalar, buf, starts, limits,
                            field_name)

    def _field_counts_scalar(self, blobs: list[bytes],
                             field_name: str) -> np.ndarray:
        counts = np.empty(len(blobs), dtype=np.int64)
        offset_in = self._offset_in
        decode_count = self.field_type(field_name).decode_count
        for i, blob in enumerate(blobs):
            counts[i], _ = decode_count(blob, offset_in(blob, field_name))
        return counts

    def _field_counts_vec(self, buf, starts, limits,
                          field_name: str) -> np.ndarray:
        pos = self._field_positions(buf, starts, limits, field_name)
        if isinstance(self.field_type(field_name), AdjacencyListType):
            counts, _, _ = _read_adjacency_headers(buf, pos, limits)
            return counts
        counts, _ = _read_varints(buf, pos, limits)
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
        return self._decode("csr", self._decode_list_csr_vec,
                            self._decode_list_csr_scalar, buf, starts,
                            limits, field_name, dtype)

    def _decode_list_csr_scalar(self, blobs: list[bytes], field_name: str,
                                dtype: np.dtype
                                ) -> tuple[np.ndarray, np.ndarray]:
        lists = self._decode_column_scalar(blobs, field_name)
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lists), dtype=np.int64,
                              count=len(lists)), out=indptr[1:])
        flat = np.fromiter(chain.from_iterable(lists), dtype=dtype,
                           count=int(indptr[-1]))
        return indptr, flat

    def _decode_list_csr_vec(self, buf, starts, limits, field_name: str,
                             dtype: np.dtype
                             ) -> tuple[np.ndarray, np.ndarray]:
        if isinstance(self.field_type(field_name), AdjacencyListType):
            return self._decode_adjacency_csr_vec(buf, starts, limits,
                                                  field_name)
        itemsize = dtype.itemsize
        pos = self._field_positions(buf, starts, limits, field_name)
        counts, data_start = _read_varints(buf, pos, limits)
        nbytes = counts * itemsize
        short = data_start + nbytes > limits
        if np.any(short):
            bad = int(np.flatnonzero(short)[0])
            raise SchemaMismatchError(
                f"blob too short for {field_name!r} "
                f"({int(counts[bad])} x {itemsize}-byte elements)"
            )
        indptr = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, gather_ranges(buf, data_start, nbytes).view(dtype)

    def _decode_adjacency_csr_vec(self, buf, starts, limits,
                                  field_name: str
                                  ) -> tuple[np.ndarray, np.ndarray]:
        """Columnar adjacency decode, dispatched per layout group.

        The column is partitioned by header tag; each group decodes with
        its own vectorized codec and scatters into one flat CSR output,
        so a frontier mixing raw tails, delta hubs and bitmap hubs still
        costs O(groups) numpy passes.  Any structural anomaly drops to
        :class:`_ScalarFallback` — the per-blob scalar decoders are the
        canonical reference for both values and errors.
        """
        pos = self._field_positions(buf, starts, limits, field_name)
        counts, tags, payload = _read_adjacency_headers(buf, pos, limits)
        indptr = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        # Single-tag fast paths: a homogeneous column needs no per-group
        # scatter — the group decoder's output already is the flat CSR.
        first = int(tags[0])
        if (tags == first).all():
            if first == LAYOUT_RAW:
                nbytes = counts * 8
                if (payload + nbytes > limits).any():
                    raise _ScalarFallback
                return indptr, gather_ranges(buf, payload,
                                             nbytes).view(np.int64)
            if first == LAYOUT_DELTA_VARINT:
                return indptr, _decode_delta_group(buf, payload, limits,
                                                   counts)
            if first == LAYOUT_BITMAP:
                return indptr, _decode_bitmap_group(buf, payload, limits,
                                                    counts)
            raise _ScalarFallback  # reserved tag: scalar owns the error
        flat = np.empty(int(indptr[-1]), dtype=np.int64)
        raw = np.flatnonzero(tags == LAYOUT_RAW)
        if len(raw):
            nbytes = counts[raw] * 8
            if np.any(payload[raw] + nbytes > limits[raw]):
                raise _ScalarFallback
            values = gather_ranges(buf, payload[raw], nbytes).view(np.int64)
            flat[range_indices(indptr[raw], counts[raw])] = values
        delta = np.flatnonzero(tags == LAYOUT_DELTA_VARINT)
        if len(delta):
            values = _decode_delta_group(buf, payload[delta], limits[delta],
                                         counts[delta])
            flat[range_indices(indptr[delta], counts[delta])] = values
        bitmap = np.flatnonzero(tags == LAYOUT_BITMAP)
        if len(bitmap):
            values = _decode_bitmap_group(buf, payload[bitmap],
                                          limits[bitmap], counts[bitmap])
            flat[range_indices(indptr[bitmap], counts[bitmap])] = values
        return indptr, flat

    def decode_column_spans(self, buf: np.ndarray, starts: np.ndarray,
                            limits: np.ndarray, field_name: str) -> list:
        """Per-blob Python values for any field, CSR-accelerated when
        possible; elementwise equal to scalar ``decode`` per blob."""
        if self.csr_dtype(field_name) is not None:
            indptr, flat = self.decode_list_csr_spans(buf, starts, limits,
                                                      field_name)
            values = flat.tolist()
            cuts = indptr.tolist()
            return [values[cuts[i]:cuts[i + 1]]
                    for i in range(len(starts))]
        return self._decode("column", self._decode_column_vec,
                            self._decode_column_scalar, buf, starts, limits,
                            field_name)

    def _decode_column_scalar(self, blobs: list[bytes],
                              field_name: str) -> list:
        """The canonical reference, for values and for errors: the
        scalar type decoder, once per blob, whatever the layout."""
        decode = self.field_type(field_name).decode
        offset_in = self._offset_in
        return [decode(blob, offset_in(blob, field_name))[0]
                for blob in blobs]

    def _decode_column_vec(self, buf, starts, limits,
                           field_name: str) -> list:
        tsl_type = self.field_type(field_name)
        if tsl_type is STRING:
            return self._decode_string_column(buf, starts, limits,
                                              field_name)
        dtype = _DECODE_DTYPES.get(id(tsl_type))
        if dtype is None:
            raise _ScalarFallback
        return self._decode_fixed_column(buf, starts, limits, field_name,
                                         dtype)

    def _decode_string_column(self, buf, starts, limits, field_name: str
                              ) -> list[str]:
        """One vectorized varint pass + one gather for a string column."""
        pos = self._field_positions(buf, starts, limits, field_name)
        lengths, data_start = _read_varints(buf, pos, limits)
        if np.any(data_start + lengths > limits):
            raise SchemaMismatchError("blob too short for string")
        raw = gather_ranges(buf, data_start, lengths).tobytes()
        offsets = np.zeros(len(starts) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        cuts = offsets.tolist()
        return [raw[cuts[i]:cuts[i + 1]].decode("utf-8")
                for i in range(len(starts))]

    def _decode_fixed_column(self, buf, starts, limits, field_name: str,
                             dtype: np.dtype) -> list:
        """One gather for a fixed-width primitive column."""
        pos = self._field_positions(buf, starts, limits, field_name)
        size = dtype.itemsize
        if np.any(pos + size > limits):
            raise _ScalarFallback  # scalar decode raises the canonical error
        positions = (pos[:, None] + np.arange(size)).ravel()
        return buf[positions].view(dtype).tolist()

    def string_eq_spans(self, buf: np.ndarray, starts: np.ndarray,
                        limits: np.ndarray, field_name: str,
                        value) -> np.ndarray:
        """``field == value`` per blob span, without building strings.

        Length mismatches are rejected by the varint headers alone; only
        equal-length candidates get a byte compare — one fancy-index
        gather for the whole batch.  Equivalent to decoding the column
        and comparing, because utf-8 encoding is injective (and a
        non-``str`` value equals no string).
        """
        if self.field_type(field_name) is not STRING:
            return np.asarray(
                [v == value
                 for v in self.decode_column_spans(buf, starts, limits,
                                                   field_name)],
                dtype=bool)
        if not isinstance(value, str):
            return np.zeros(len(starts), dtype=bool)
        return self._decode("string_eq", self._string_eq_vec,
                            self._string_eq_scalar, buf, starts, limits,
                            field_name, value)

    def _string_eq_scalar(self, blobs: list[bytes], field_name: str,
                          value: str) -> np.ndarray:
        column = self._decode_column_scalar(blobs, field_name)
        return np.asarray([v == value for v in column], dtype=bool)

    def _string_eq_vec(self, buf, starts, limits, field_name: str,
                       value: str) -> np.ndarray:
        needle = np.frombuffer(value.encode("utf-8"), dtype=np.uint8)
        pos = self._field_positions(buf, starts, limits, field_name)
        lengths, data_start = _read_varints(buf, pos, limits)
        if np.any(data_start + lengths > limits):
            raise SchemaMismatchError("blob too short for string")
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
