"""LEB128-style unsigned varint codec — scalar and vectorized.

TSL-generated blob layouts use varints for container lengths so that small
lists (the common case on power-law graphs: most nodes have few edges) cost
one byte of framing instead of four.

This module is the *single* LEB128 implementation in the tree: the scalar
codec below and the three vectorized batch forms share it — one varint at
each of many positions (:func:`read_varints`), one contiguous run of them
(:func:`decode_varint_run`), and the encoder (:func:`encode_varints`) —
and a pinned cross-test asserts they agree byte for byte.  ``tsl/batch.py``
wraps :func:`read_varints` and maps :class:`VarintBatchError` onto its
internal scalar-fallback signal.

Zigzag helpers live here too: the delta-varint adjacency layout stores
signed neighbor-id deltas as ``(d << 1) ^ (d >> 63)`` so small magnitudes
of either sign stay short.
"""

from __future__ import annotations

import numpy as np


class VarintBatchError(ValueError):
    """The vectorized decoder cannot mirror the scalar codec here.

    Raised on a truncated varint or one needing a 10th byte (which can
    exceed ``int64``); callers rerun the scalar path, which produces the
    canonical value or the canonical error.
    """


def encode_varint(value: int) -> bytes:
    """Encode a non-negative integer as a little-endian base-128 varint."""
    if value < 0:
        raise ValueError(f"varint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(buf, offset: int = 0) -> tuple[int, int]:
    """Decode a varint from ``buf`` starting at ``offset``.

    Returns ``(value, next_offset)``.  Raises ``ValueError`` on truncated
    input or a varint longer than 10 bytes (more than 64 bits).
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint exceeds 64 bits")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def zigzag_encode(value: int) -> int:
    """Map a signed 64-bit integer onto an unsigned zigzag code."""
    return ((value << 1) ^ (value >> 63)) & 0xFFFFFFFFFFFFFFFF


def zigzag_decode(code: int) -> int:
    """Inverse of :func:`zigzag_encode`."""
    return (code >> 1) ^ -(code & 1)


def read_varints(buf: np.ndarray, pos: np.ndarray, limits: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Decode one LEB128 varint per position, all positions per round.

    ``buf`` is a ``uint8`` array; ``pos[i]`` is where varint ``i`` starts
    and ``limits[i]`` is the first byte it must not read.  Returns
    ``(values, next_positions)`` as int64 arrays, mirroring
    :func:`decode_varint` bit for bit for every value below ``2**63``;
    anything suspicious (a read past its limit, a varint needing the 10th
    byte) raises :class:`VarintBatchError` so the scalar path can produce
    the canonical result or error.
    """
    # Fast path: decode every first byte in one shot — on power-law
    # graphs most headers and deltas are single-byte varints, so the
    # loop below frequently never runs.
    if (pos >= limits).any():
        raise VarintBatchError("truncated varint")
    byte = buf[pos].astype(np.int64)
    values = byte & 0x7F
    out_pos = pos + 1
    active = np.flatnonzero(byte & 0x80)
    shift = 7
    while len(active):
        if shift > 56:  # 10-byte varints can exceed int64; let scalar decide
            raise VarintBatchError("varint needs a 10th byte")
        cursor = out_pos[active]
        if (cursor >= limits[active]).any():
            raise VarintBatchError("truncated varint")
        byte = buf[cursor].astype(np.int64)
        values[active] |= (byte & 0x7F) << shift
        out_pos[active] = cursor + 1
        active = active[(byte & 0x80) != 0]
        shift += 7
    return values, out_pos


def decode_varint_run(buf, offset: int, count: int) -> tuple[np.ndarray, int]:
    """Decode ``count`` back-to-back varints starting at ``buf[offset]``.

    Returns ``(values, next_offset)``, ``values`` a uint64 array: what
    ``count`` chained :func:`decode_varint` calls return, over the whole
    uint64 range.  The run is cut at its end bytes (``< 0x80``) in one
    pass and shift-accumulated by byte rank: one vectorized pass per
    byte of the longest varint.  A run the scalar loop refuses raises
    that loop's ``ValueError``; so does a tenth byte carrying more than
    bit 63, which the scalar decodes to an int no uint64 can hold.
    """
    if not count:
        return np.empty(0, dtype=np.uint64), offset
    window = np.frombuffer(memoryview(buf)[offset:offset + 10 * count],
                           dtype=np.uint8)
    ends = np.flatnonzero(window < 0x80)[:count]
    starts = np.zeros(len(ends), dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    longest = int(lengths.max(initial=0))
    if (len(ends) < count or longest > 10
            or (window[starts[lengths == 10] + 9] > 1).any()):
        for _ in range(count):      # the scalar loop's error, if it has one
            _, offset = decode_varint(buf, offset)
        raise ValueError("varint exceeds 64 bits")
    values = (window[starts] & 0x7F).astype(np.uint64)
    for rank in range(1, longest):
        longer = np.flatnonzero(lengths > rank)
        chunk = (window[starts[longer] + rank] & 0x7F).astype(np.uint64)
        values[longer] |= chunk << np.uint64(7 * rank)
    return values, offset + int(ends[-1]) + 1


# Byte-length breakpoints: a value needs its k+1-th byte iff it is >= 2**(7k).
_LENGTH_STEPS = (2 ** (7 * np.arange(1, 10, dtype=np.uint64))).astype(np.uint64)


def varint_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value of a ``uint64`` array."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.ones(len(values), dtype=np.int64)
    top = values.max(initial=0)
    for step in _LENGTH_STEPS:
        if step > top:      # no value needs this byte or any later one
            break
        lengths += values >= step
    return lengths


def encode_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 encode of a ``uint64`` array.

    Returns ``(stream, lengths)``: the concatenated varint bytes and the
    per-value byte counts.  Byte-identical to ``b"".join(encode_varint(v)
    for v in values)`` for every representable value (the full uint64
    range, ten bytes max) — pinned by the varint cross-test.

    Written one byte rank at a time: every value's first byte, then the
    second byte of the values that still need one, and so on — one
    vectorized pass per byte of the longest varint, shrinking with it.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = varint_lengths(values)
    stream = np.empty(int(lengths.sum()), dtype=np.uint8)
    cursor = np.cumsum(lengths) - lengths       # each value's next byte
    rest = values
    while len(rest):
        more = rest > np.uint64(0x7F)
        stream[cursor] = (rest & np.uint64(0x7F)).astype(np.uint8) | (
            more.view(np.uint8) << 7)
        cursor = cursor[more] + 1
        rest = rest[more] >> np.uint64(7)
    return stream, lengths
