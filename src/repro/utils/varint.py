"""LEB128-style unsigned varint codec — scalar and vectorized.

TSL-generated blob layouts use varints for container lengths so that small
lists (the common case on power-law graphs: most nodes have few edges) cost
one byte of framing instead of four.

This module is the *single* LEB128 implementation in the tree: the scalar
codec below and the three vectorized batch forms share it — one varint at
each of many positions (:func:`read_varints`), one contiguous run of them
(:func:`decode_varint_run`), and the encoder (:func:`encode_varints`) —
and a pinned cross-test asserts they agree byte for byte.  A TSL blob's
varints are lengths, counts, headers and ids, all int64: its decoders
read them with :func:`decode_int64_varint` and, column-at-a-time,
:func:`read_varints`, which refuse one at or above ``2**63`` the same way.

Zigzag helpers live here too: the delta-varint adjacency layout stores
signed neighbor-id deltas as ``(d << 1) ^ (d >> 63)`` so small magnitudes
of either sign stay short.
"""

from __future__ import annotations

import numpy as np

from ..errors import SchemaMismatchError


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


def decode_int64_varint(buf, offset: int = 0) -> tuple[int, int]:
    """:func:`decode_varint` for a varint that must be an int64; one at or
    above ``2**63`` raises :class:`~repro.errors.SchemaMismatchError`."""
    if offset < len(buf) and buf[offset] < 0x80:    # most lengths and headers
        return buf[offset], offset + 1
    value, offset = decode_varint(buf, offset)
    if value >> 63:
        raise SchemaMismatchError(f"varint {value} overflows int64")
    return value, offset


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
    ``(values, next_positions)`` as int64 arrays: what
    :func:`decode_int64_varint` returns at each position, and where it
    raises, its exception — :func:`decode_varint`'s ``ValueError`` for a
    varint cut by its limit or longer than ten bytes, and
    :class:`~repro.errors.SchemaMismatchError` for one at or above
    ``2**63``.
    """
    # Fast path: decode every first byte in one shot — on power-law
    # graphs most headers and deltas are single-byte varints, so the
    # loop below frequently never runs.
    if (pos >= limits).any():
        raise ValueError("truncated varint")
    byte = buf[pos].astype(np.int64)
    values = byte & 0x7F
    out_pos = pos + 1
    active = np.flatnonzero(byte & 0x80)
    shift = 7
    while len(active):
        cursor = out_pos[active]
        if (cursor >= limits[active]).any():
            raise ValueError("truncated varint")
        if shift > 63:
            raise ValueError("varint exceeds 64 bits")
        byte = buf[cursor].astype(np.int64)
        if shift == 63 and ((byte > 0) & (byte < 0x80)).any():
            raise SchemaMismatchError("varint overflows int64")
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
    """Encoded byte length per value of a ``uint64`` array, as ``uint8``
    (at most 10)."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = np.ones(len(values), dtype=np.uint8)
    top = values.max(initial=0)
    for step in _LENGTH_STEPS:
        if step > top:      # no value needs this byte or any later one
            break
        lengths += values >= step
    return lengths


def encode_varints(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LEB128 encode of a ``uint64`` array.

    Returns ``(stream, lengths)``: the concatenated varint bytes and the
    per-value byte counts (``uint8``).  Byte-identical to
    ``b"".join(encode_varint(v) for v in values)`` for every
    representable value (the full uint64 range, ten bytes max) — pinned
    by the varint cross-test.

    Written one byte rank at a time, highest first: byte ``r`` of every
    value goes to the value's start + ``r``.  A value shorter than ``r``
    bytes writes past its own end, into a later value's lower rank —
    which a later pass overwrites — or into the slack after the stream.
    So no pass selects or copies the values that still need a byte, and
    every pass reuses the same three scratch arrays.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    lengths = varint_lengths(values)
    longest = int(lengths.max(initial=0))
    ends = np.cumsum(lengths, dtype=np.int64)
    total = int(ends[-1]) if len(ends) else 0
    stream = np.empty(total + longest, dtype=np.uint8)
    at = ends - lengths                 # each value's byte of this rank
    at += max(longest - 1, 0)
    shifted = np.empty_like(values)
    byte = np.empty(len(values), dtype=np.uint8)
    more = np.empty(len(values), dtype=np.uint8)   # continuation bits
    for rank in range(longest - 1, -1, -1):
        np.right_shift(values, np.uint64(7 * rank), out=shifted)
        np.bitwise_and(shifted, np.uint64(0x7F), out=shifted)
        byte[...] = shifted
        np.greater(lengths, rank + 1, out=more.view(bool))
        more <<= 7
        byte |= more
        stream[at] = byte
        at -= 1
    return stream[:total], lengths
