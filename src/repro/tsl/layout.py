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
single-list call into the same vectorized segment encoder the bulk
loader uses, so a checked load holds bit-identically across every
layout mix by construction.  Every write goes through it — the bulk
load, a whole-field ``set`` and the accessor's ``append`` and
``__setitem__`` — so a cell's stored layout is its policy's choice as
of that cell's last write.  Ties in exact encoded size prefer the lower
tag.  The segment encoder takes its lists back to back — one flat array
and a count per list — so every per-list statistic is one ``reduceat``
over the non-empty lists' starts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import SchemaMismatchError
from ..utils.varint import (
    decode_int64_varint,
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
        tags, _ = _segment_stats(flat, np.array([count], dtype=np.int64),
                                 self)
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
    """Per-list codec stats shared by the chooser and the encoder."""

    __slots__ = ("zigzag", "delta_nbytes", "firsts", "bitmap_nbytes")

    def __init__(self, zigzag, delta_nbytes, firsts, bitmap_nbytes):
        self.zigzag = zigzag              # uint64 per element, list-local
        self.delta_nbytes = delta_nbytes  # varint-stream bytes per list
        self.firsts = firsts
        self.bitmap_nbytes = bitmap_nbytes


def _segment_stats(flat: np.ndarray, counts: np.ndarray,
                   policy: LayoutPolicy
                   ) -> tuple[np.ndarray, _SegmentStats | None]:
    """Choose a layout tag per list of ``flat``, whose lists lie back to
    back: list ``i`` is the next ``counts[i]`` elements.

    Every per-list statistic is one ``reduceat`` over the non-empty
    lists' starts, so none can reach across a list boundary.  The
    negative-id test is one pass over the column (a per-list reduction
    only when it finds one), and the monotonicity pass runs only when
    some list is long enough for a bitmap.
    """
    n = len(counts)
    tags = np.zeros(n, dtype=np.int64)
    if (not n or not len(flat)
            or int(counts.max()) < policy.min_consider_degree):
        return tags, None
    nonempty = counts > 0
    ends = np.cumsum(counts)
    heads = (ends - counts)[nonempty]   # ascending, and heads[0] == 0
    # Per-element delta (absolute value at each list's head) and its
    # zigzag code.  Elements of raw-bound lists may wrap in int64 —
    # harmless, their stats are masked off below.
    deltas = np.empty(len(flat), dtype=np.int64)
    np.subtract(flat[1:], flat[:-1], out=deltas[1:])
    deltas[heads] = flat[heads]
    zigzag = deltas << 1
    zigzag ^= deltas >> 63
    zigzag = zigzag.view(np.uint64)
    delta_nbytes = np.zeros(n, dtype=np.int64)
    delta_nbytes[nonempty] = np.add.reduceat(varint_lengths(zigzag), heads,
                                             dtype=np.int64)
    firsts = np.zeros(n, dtype=np.int64)
    lasts = np.zeros(n, dtype=np.int64)
    firsts[nonempty] = flat[heads]
    lasts[nonempty] = flat[ends[nonempty] - 1]
    span = lasts - firsts + 1  # wraps negative on overflow -> ineligible
    bitmap_nbytes = (span + 7) >> 3

    raw_size = counts * 8
    delta_size = bitmap_size = np.full(n, _SIZE_INF, dtype=np.int64)
    if policy.allow_delta:
        delta_ok = counts >= policy.delta_min_degree
        if int(flat.min()) < 0:
            delta_ok[nonempty] &= np.minimum.reduceat(flat, heads) >= 0
        delta_size = np.where(
            delta_ok,
            varint_lengths(delta_nbytes.astype(np.uint64)) + delta_nbytes,
            _SIZE_INF)
    bitmap_ok = counts >= policy.bitmap_min_degree
    if policy.allow_bitmap and bitmap_ok.any():
        rising = np.empty(len(flat), dtype=bool)
        np.greater(flat[1:], flat[:-1], out=rising[1:])
        rising[heads] = True
        bitmap_ok[nonempty] &= np.logical_and.reduceat(rising, heads)
        bitmap_ok &= (firsts >= 0) & (span > 0)
        bitmap_size = np.where(
            bitmap_ok,
            varint_lengths(firsts.astype(np.uint64))
            + varint_lengths(bitmap_nbytes.astype(np.uint64)) + bitmap_nbytes,
            _SIZE_INF)
    tags = np.argmin(
        np.stack([raw_size, delta_size, bitmap_size]), axis=0
    ).astype(np.int64)
    return tags, _SegmentStats(zigzag, delta_nbytes, firsts, bitmap_nbytes)


def encode_adjacency_segments(flat: np.ndarray, counts: np.ndarray,
                              policy: LayoutPolicy | None = None
                              ) -> tuple[tuple, np.ndarray]:
    """Encode a column of neighbor lists at once, as ``(sources, pieces)``.

    The lists lie back to back in ``flat``: list ``i`` is the next
    ``counts[i]`` elements.  List ``i``'s encoding is the next
    ``pieces[i, k]`` bytes of ``sources[k]`` for each ``k`` in turn —
    what :func:`~repro.utils.arrays.interleave` lays out, with the other
    fields of the cells.  This is the single source of truth for layout
    selection *and* payload bytes: the scalar type encoder calls it with
    one list, so both paths are bit-identical by construction.

    Each list is two pieces — its varints (the header; then a delta
    list's payload length, or a bitmap list's base and length) and its
    payload — and each kind of piece is made for every list at once: one
    varint run, the raw lists' elements, one delta stream, one bitmap;
    a layout's elements are picked by one mask repeated over the lists.
    """
    policy = policy or DEFAULT_LAYOUT_POLICY
    flat = np.ascontiguousarray(flat, dtype=_INT64)
    counts = np.asarray(counts, dtype=np.int64)
    tags, stats = _segment_stats(flat, counts, policy)
    n = len(counts)
    delta = np.flatnonzero(tags == LAYOUT_DELTA_VARINT)
    bitmap = np.flatnonzero(tags == LAYOUT_BITMAP)
    # list i's varints are values[first[i]:first[i] + per_list[i]]
    per_list = np.ones(n, dtype=np.int64)
    per_list[delta] = 2
    per_list[bitmap] = 3
    first = np.cumsum(per_list) - per_list
    values = np.empty(int(per_list.sum()), dtype=np.uint64)
    values[first] = (counts << 2) | tags
    # list i: its varints, then its payload from its layout's source
    pieces = np.zeros((n, 4), dtype=np.int64)
    pieces[:, 1] = counts * 8
    delta_stream = bitmap_bytes = None
    if not len(delta) and not len(bitmap):
        raw_bytes = flat.view(np.uint8)
    else:
        raw = tags == LAYOUT_RAW
        raw_bytes = flat[np.repeat(raw, counts)].view(np.uint8)
        pieces[~raw, 1] = 0
    if len(delta):
        nbytes = stats.delta_nbytes[delta]
        values[first[delta] + 1] = nbytes
        pieces[delta, 2] = nbytes
        delta_stream, _ = encode_varints(
            stats.zigzag[np.repeat(tags == LAYOUT_DELTA_VARINT, counts)])
    if len(bitmap):
        nbytes = stats.bitmap_nbytes[bitmap]
        bases = stats.firsts[bitmap]
        values[first[bitmap] + 1] = bases
        values[first[bitmap] + 2] = nbytes
        pieces[bitmap, 3] = nbytes
        byte_starts = np.cumsum(nbytes) - nbytes
        bit_positions = flat[np.repeat(tags == LAYOUT_BITMAP, counts)]
        bit_positions += np.repeat(8 * byte_starts - bases, counts[bitmap])
        bits = np.zeros(int(nbytes.sum()) * 8, dtype=np.uint8)
        bits[bit_positions] = 1
        bitmap_bytes = np.packbits(bits, bitorder="little")
    varints, varint_lens = encode_varints(values)
    pieces[:, 0] = np.add.reduceat(varint_lens, first, dtype=np.int64)
    return (varints, raw_bytes, delta_stream, bitmap_bytes), pieces


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
    # One list: each source is that list's whole piece.
    sources, _ = encode_adjacency_segments(
        values, np.array([count], dtype=np.int64), policy)
    return b"".join(source.tobytes() for source in sources
                    if source is not None)


# ---------------------------------------------------------------------------
# Scalar payload decoders (the canonical-error reference implementations)
# ---------------------------------------------------------------------------


def decode_delta_payload(buf, offset: int, count: int) -> tuple[list, int]:
    """Decode a ``LAYOUT_DELTA_VARINT`` payload into a Python list."""
    nbytes, pos = decode_int64_varint(buf, offset)
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
        if code >> 64:      # a zigzag code is 64 bits
            raise SchemaMismatchError("corrupt adjacency delta payload")
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
    base, pos = decode_int64_varint(buf, offset)
    nbytes, pos = decode_int64_varint(buf, pos)
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
    if values and values[-1] >= 2 ** 63:
        raise SchemaMismatchError("adjacency bitmap payload overflows int64")
    return values, end
