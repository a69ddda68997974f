"""Per-cell adjacency layouts: degree-aware codecs behind one header.

Trinity's memory-model argument (Section 5.4) prices adjacency at eight
bytes per neighbor.  On a power-law graph that is the wrong constant for
both tails: degree-1 vertices pay full fixed-width freight for one id,
and hubs carry 10^4+ neighbors whose ids fit in two or three bytes each.
Following the adaptive-storage literature (PAPERS.md), every adjacency
list carries a two-bit *layout tag* in its count header —
``header = (count << 2) | tag`` — and a :class:`LayoutPolicy` picks the
cheapest eligible encoding at encode time from degree and id-span stats:

* ``LAYOUT_RAW`` (tag 0) — the original packed little-endian int64
  elements.  Always eligible; the empty list still encodes as one zero
  byte, exactly as before.
* ``LAYOUT_DELTA_VARINT`` (tag 1) — a varint byte-count prefix followed
  by one zigzag LEB128 varint per neighbor: the first is the absolute
  id, the rest are deltas from their predecessor.  Zigzag (not
  unsigned) deltas because real loader output is arrival-ordered, not
  sorted; eligibility only requires every id to be non-negative, which
  keeps all deltas inside int64.  Neighbor order is preserved exactly.
* ``LAYOUT_BITMAP`` (tag 2) — a varint base id, a varint byte count,
  then a dense LSB-first bitset over ``[base, base + 8 * nbytes)``.
  Eligible only for strictly increasing non-negative lists (a bitmap
  cannot represent order or duplicates); decode yields ascending ids,
  which for an eligible list is the original order.

Tag 3 is reserved and decodes to a :class:`SchemaMismatchError`.

Selection is deterministic and *shared*: the scalar encoder is a
single-segment call into the same vectorized segment encoder the bulk
loader uses, so ``cross_check=True`` holds bit-identically across every
layout mix by construction.  Ties in exact encoded size prefer the lower
tag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaMismatchError
from ..utils.arrays import interleave, range_indices
from ..utils.varint import (
    decode_varint,
    encode_varint,
    encode_varints,
    varint_lengths,
)

LAYOUT_RAW = 0
LAYOUT_DELTA_VARINT = 1
LAYOUT_BITMAP = 2

LAYOUT_NAMES = {
    LAYOUT_RAW: "raw",
    LAYOUT_DELTA_VARINT: "delta_varint",
    LAYOUT_BITMAP: "bitmap",
}

_INT64 = np.dtype("<i8")
_SIZE_INF = np.iinfo(np.int64).max


@dataclass(frozen=True)
class LayoutPolicy:
    """Degree/span-driven layout selection, exact-size and deterministic.

    Lists shorter than every enabled threshold short-circuit to raw
    without touching numpy; everything else gets the exact encoded
    payload size of each eligible layout computed and the smallest one
    wins (ties to the lower tag, so raw beats an equal-size codec).
    """

    delta_min_degree: int = 8
    """Lists shorter than this never consider the delta-varint layout
    (the codec's byte-count prefix and per-element varint overhead only
    pay off once a list has some length)."""

    bitmap_min_degree: int = 32
    """Lists shorter than this never consider the bitmap layout (a
    sparse bitset over a wide id window is easily *larger* than raw;
    density only wins for genuinely heavy neighborhoods)."""

    allow_delta: bool = True
    allow_bitmap: bool = True

    def __post_init__(self) -> None:
        if self.delta_min_degree < 1:
            raise ValueError("delta_min_degree must be >= 1")
        if self.bitmap_min_degree < 1:
            raise ValueError("bitmap_min_degree must be >= 1")

    @classmethod
    def adaptive(cls) -> "LayoutPolicy":
        return cls()

    @classmethod
    def raw_only(cls) -> "LayoutPolicy":
        """Everything stays ``LAYOUT_RAW`` — the pre-layout wire format
        modulo the two tag bits in the header."""
        return cls(allow_delta=False, allow_bitmap=False)

    @property
    def min_consider_degree(self) -> int:
        """Below this degree no non-raw layout is ever considered."""
        candidates = []
        if self.allow_delta:
            candidates.append(self.delta_min_degree)
        if self.allow_bitmap:
            candidates.append(self.bitmap_min_degree)
        return min(candidates) if candidates else _SIZE_INF

    def choose(self, values) -> int:
        """Layout tag for one neighbor list (a list/array of ids)."""
        count = len(values)
        if count < self.min_consider_degree:
            return LAYOUT_RAW
        flat = np.ascontiguousarray(values, dtype=np.int64)
        tags, _ = _segment_stats(
            flat, np.array([0], dtype=np.int64),
            np.array([count], dtype=np.int64), self)
        return int(tags[0])


DEFAULT_LAYOUT_POLICY = LayoutPolicy()
RAW_ONLY_POLICY = LayoutPolicy.raw_only()

_POLICY_PRESETS = {
    "adaptive": DEFAULT_LAYOUT_POLICY,
    "raw": RAW_ONLY_POLICY,
}


def resolve_layout_policy(value) -> "LayoutPolicy | None":
    """Normalise a config knob (None | str preset | LayoutPolicy)."""
    if value is None or isinstance(value, LayoutPolicy):
        return value
    try:
        return _POLICY_PRESETS[value]
    except (KeyError, TypeError):
        raise ValueError(
            f"layout_policy must be None, 'adaptive', 'raw', or a "
            f"LayoutPolicy, got {value!r}"
        ) from None


def install_layout_policy(struct_type, policy) -> None:
    """Install a resolved policy onto a schema's adjacency types.

    Walks the struct (and any embedded structs/lists) and repoints each
    :class:`~repro.tsl.types.AdjacencyListType`'s mutable ``policy``.
    ``None`` leaves the schema's current policies untouched, so a cloud
    without an explicit ``layout_policy`` knob never overrides one set
    programmatically on the type.
    """
    if policy is None:
        return
    from .types import AdjacencyListType, ListType, StructType
    seen = set()

    def walk(tsl_type) -> None:
        if id(tsl_type) in seen:
            return
        seen.add(id(tsl_type))
        if isinstance(tsl_type, AdjacencyListType):
            tsl_type.policy = policy
        elif isinstance(tsl_type, ListType):
            walk(tsl_type.element)
        elif isinstance(tsl_type, StructType):
            for _, field_type in tsl_type.fields:
                walk(field_type)

    walk(struct_type)


class _SegmentStats:
    """Per-segment codec stats shared by the chooser and the encoder."""

    __slots__ = ("counts", "zigzag", "delta_nbytes", "firsts",
                 "bitmap_nbytes")

    def __init__(self, counts, zigzag, delta_nbytes, firsts, bitmap_nbytes):
        self.counts = counts
        self.zigzag = zigzag              # uint64 per element, segment-local
        self.delta_nbytes = delta_nbytes  # varint-stream bytes per segment
        self.firsts = firsts
        self.bitmap_nbytes = bitmap_nbytes


def _segment_stats(flat: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                   policy: LayoutPolicy
                   ) -> tuple[np.ndarray, _SegmentStats | None]:
    """Choose a layout tag per segment ``flat[starts[i]:ends[i])``.

    Segments may be non-contiguous subsets of ``flat``: every
    per-segment statistic is a prefix-sum difference, so gaps between
    segments cost nothing.
    """
    counts = ends - starts
    n = len(counts)
    tags = np.zeros(n, dtype=np.int64)
    if (not n or not len(flat)
            or int(counts.max()) < policy.min_consider_degree):
        return tags, None
    m = len(flat)
    nz_starts = starts[counts > 0]
    # Per-element delta (absolute value at each segment start) and its
    # zigzag code.  Elements of raw-bound segments may wrap in int64 —
    # harmless, their stats are masked off below.
    deltas = np.empty(m, dtype=np.int64)
    deltas[0] = 0
    if m > 1:
        np.subtract(flat[1:], flat[:-1], out=deltas[1:])
    deltas[nz_starts] = flat[nz_starts]
    zigzag = ((deltas << 1) ^ (deltas >> 63)).view(np.uint64)
    byte_lens = varint_lengths(zigzag)
    cum_lens = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(byte_lens, out=cum_lens[1:])
    delta_nbytes = cum_lens[ends] - cum_lens[starts]
    cum_neg = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(flat < 0, out=cum_neg[1:])
    seg_negatives = cum_neg[ends] - cum_neg[starts]
    nonincreasing = np.zeros(m, dtype=np.int64)
    if m > 1:
        nonincreasing[1:] = flat[1:] <= flat[:-1]
    nonincreasing[nz_starts] = 0
    cum_viol = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(nonincreasing, out=cum_viol[1:])
    seg_violations = cum_viol[ends] - cum_viol[starts]
    firsts = np.zeros(n, dtype=np.int64)
    lasts = np.zeros(n, dtype=np.int64)
    nonempty = counts > 0
    firsts[nonempty] = flat[starts[nonempty]]
    lasts[nonempty] = flat[ends[nonempty] - 1]

    raw_size = counts * 8
    delta_size = np.where(
        (counts >= policy.delta_min_degree) & (seg_negatives == 0)
        if policy.allow_delta else np.zeros(n, dtype=bool),
        varint_lengths(delta_nbytes.astype(np.uint64)) + delta_nbytes,
        _SIZE_INF,
    )
    span = lasts - firsts + 1  # wraps negative on overflow -> ineligible
    bitmap_nbytes = (span + 7) >> 3
    bitmap_ok = (nonempty & (counts >= policy.bitmap_min_degree)
                 & (seg_violations == 0) & (firsts >= 0) & (span > 0)
                 if policy.allow_bitmap else np.zeros(n, dtype=bool))
    bitmap_size = np.where(
        bitmap_ok,
        varint_lengths(firsts.astype(np.uint64))
        + varint_lengths(bitmap_nbytes.astype(np.uint64)) + bitmap_nbytes,
        _SIZE_INF,
    )
    tags = np.argmin(
        np.stack([raw_size, delta_size, bitmap_size]), axis=0
    ).astype(np.int64)
    return tags, _SegmentStats(counts, zigzag, delta_nbytes, firsts,
                               bitmap_nbytes)


def encode_adjacency_segments(flat: np.ndarray, starts: np.ndarray,
                              ends: np.ndarray,
                              policy: LayoutPolicy | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Encode many neighbor lists at once: ``(buffer, sizes)``.

    ``flat[starts[i]:ends[i])`` is list ``i``; the segments may share
    one buffer non-contiguously and come in any order.  The encoded
    lists lie back to back in ``buffer``, list ``i`` in ``sizes[i]``
    bytes.  This is the single source of truth for layout selection
    *and* payload bytes: the scalar type encoder calls it with one
    segment, so both paths are bit-identical by construction.

    Each list is two pieces — its varints (the header; then a delta
    list's payload length, or a bitmap list's base and length) and its
    payload — and each kind of piece is made for every list at once: one
    varint run, the raw lists' elements in one gather, one delta stream,
    one bitmap.  One :func:`~repro.utils.arrays.interleave` lays them out.
    """
    policy = policy or DEFAULT_LAYOUT_POLICY
    flat = np.ascontiguousarray(flat, dtype=_INT64)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    tags, stats = _segment_stats(flat, starts, ends, policy)
    counts = ends - starts
    n = len(counts)
    raw = np.flatnonzero(tags == LAYOUT_RAW)
    delta = np.flatnonzero(tags == LAYOUT_DELTA_VARINT)
    bitmap = np.flatnonzero(tags == LAYOUT_BITMAP)
    # list i's varints are values[first[i]:first[i] + per_list[i]]
    per_list = np.ones(n, dtype=np.int64)
    per_list[delta] = 2
    per_list[bitmap] = 3
    first = np.cumsum(per_list) - per_list
    values = np.empty(int(per_list.sum()), dtype=np.uint64)
    values[first] = (counts << 2) | tags
    payload_sizes = counts * 8
    raw_bytes = delta_stream = bitmap_bytes = None
    if len(raw):
        raw_bytes = flat[range_indices(starts[raw],
                                       counts[raw])].view(np.uint8)
    if len(delta):
        nbytes = stats.delta_nbytes[delta]
        values[first[delta] + 1] = nbytes
        payload_sizes[delta] = nbytes
        elements = range_indices(starts[delta], counts[delta])
        delta_stream, _ = encode_varints(stats.zigzag[elements])
    if len(bitmap):
        nbytes = stats.bitmap_nbytes[bitmap]
        bases = stats.firsts[bitmap]
        values[first[bitmap] + 1] = bases
        values[first[bitmap] + 2] = nbytes
        payload_sizes[bitmap] = nbytes
        byte_starts = np.cumsum(nbytes) - nbytes
        elements = range_indices(starts[bitmap], counts[bitmap])
        bit_positions = flat[elements] + np.repeat(
            8 * byte_starts - bases, counts[bitmap])
        bits = np.zeros(int(nbytes.sum()) * 8, dtype=np.uint8)
        bits[bit_positions] = 1
        bitmap_bytes = np.packbits(bits, bitorder="little")
    varints, varint_lens = encode_varints(values)
    # list i: its varints, then its payload from its layout's source
    pieces = np.zeros((n, 4), dtype=np.int64)
    pieces[:, 0] = np.add.reduceat(varint_lens, first)
    pieces[np.arange(n), 1 + tags] = payload_sizes
    buffer = interleave((varints, raw_bytes, delta_stream, bitmap_bytes),
                        pieces)
    return buffer, pieces.sum(axis=1)


def encode_adjacency(values: np.ndarray,
                     policy: LayoutPolicy | None = None) -> bytes:
    """Encode one neighbor list (an int64 array) with policy selection.

    Short lists — the overwhelming majority on a power-law graph —
    short-circuit to the raw encoding without per-list numpy overhead;
    the segment encoder would have chosen raw for them anyway.
    """
    policy = policy or DEFAULT_LAYOUT_POLICY
    count = len(values)
    if count < policy.min_consider_degree:
        arr = np.ascontiguousarray(values, dtype=_INT64)
        return encode_varint(count << 2) + arr.tobytes()
    buffer, _ = encode_adjacency_segments(
        values, np.array([0], dtype=np.int64),
        np.array([count], dtype=np.int64), policy)
    return buffer.tobytes()


def encode_adjacency_with_tag(values, tag: int) -> bytes | None:
    """Encode one list under a *forced* layout; ``None`` if ineligible.

    Structural eligibility only (no degree thresholds): the accessor's
    mutation path uses this to preserve a cell's stored layout across
    appends and element writes — which is exactly how observed degree
    drifts across a policy boundary without the bytes following, the
    drift the re-encoder daemon exists to repair.
    """
    arr = np.ascontiguousarray(list(values), dtype=_INT64)
    count = len(arr)
    header = encode_varint((count << 2) | tag)
    if tag == LAYOUT_RAW:
        return header + arr.tobytes()
    if tag == LAYOUT_DELTA_VARINT:
        if count and int(arr.min()) < 0:
            return None
        deltas = np.empty(count, dtype=np.int64)
        if count:
            deltas[0] = arr[0]
            np.subtract(arr[1:], arr[:-1], out=deltas[1:])
        zigzag = ((deltas << 1) ^ (deltas >> 63)).view(np.uint64)
        stream, _ = encode_varints(zigzag)
        payload = stream.tobytes()
        return header + encode_varint(len(payload)) + payload
    if tag == LAYOUT_BITMAP:
        if not count or int(arr[0]) < 0:
            return None
        if count > 1 and not bool(np.all(np.diff(arr) > 0)):
            return None
        base = int(arr[0])
        span = int(arr[-1]) - base + 1
        nbytes = (span + 7) // 8
        bits = np.zeros(nbytes * 8, dtype=np.uint8)
        bits[arr - base] = 1
        payload = np.packbits(bits, bitorder="little").tobytes()
        return header + encode_varint(base) + encode_varint(nbytes) + payload
    raise ValueError(f"unknown adjacency layout tag {tag}")


# ---------------------------------------------------------------------------
# Scalar payload decoders (the canonical-error reference implementations)
# ---------------------------------------------------------------------------


def decode_delta_payload(buf, offset: int, count: int) -> tuple[list, int]:
    """Decode a ``LAYOUT_DELTA_VARINT`` payload into a Python list."""
    nbytes, pos = decode_varint(buf, offset)
    end = pos + nbytes
    if end > len(buf):
        raise SchemaMismatchError("blob too short for adjacency delta payload")
    values = []
    previous = 0
    for index in range(count):
        code = 0
        shift = 0
        while True:
            if pos >= end or shift > 63:
                raise SchemaMismatchError("corrupt adjacency delta payload")
            byte = buf[pos]
            pos += 1
            code |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        delta = (code >> 1) ^ -(code & 1)
        previous = delta if index == 0 else previous + delta
        if not -(2 ** 63) <= previous < 2 ** 63:
            raise SchemaMismatchError(
                "adjacency delta payload overflows int64")
        values.append(previous)
    if pos != end:
        raise SchemaMismatchError("corrupt adjacency delta payload")
    return values, end


def decode_bitmap_payload(buf, offset: int, count: int) -> tuple[list, int]:
    """Decode a ``LAYOUT_BITMAP`` payload into an ascending Python list."""
    base, pos = decode_varint(buf, offset)
    nbytes, pos = decode_varint(buf, pos)
    end = pos + nbytes
    if end > len(buf):
        raise SchemaMismatchError(
            "blob too short for adjacency bitmap payload")
    values = []
    for byte_index in range(nbytes):
        byte = buf[pos + byte_index]
        if not byte:
            continue
        origin = base + 8 * byte_index
        for bit in range(8):
            if byte >> bit & 1:
                values.append(origin + bit)
    if len(values) != count:
        raise SchemaMismatchError(
            f"adjacency bitmap popcount {len(values)} != header count {count}"
        )
    return values, end
