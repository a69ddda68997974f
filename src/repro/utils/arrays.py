"""Small vectorized array helpers shared by the batched data paths."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class SpanBatch(NamedTuple):
    """Spans of one array: item ``i`` is ``buffer[starts[i]:limits[i]]``.

    A batch of cells is one ``uint8`` buffer in this form on both sides
    of the cloud — what the encoders write and the trunks hand out — and
    a column of lists is one flat array of their elements."""

    buffer: np.ndarray
    starts: np.ndarray
    limits: np.ndarray

    @classmethod
    def of_sizes(cls, buffer: np.ndarray, sizes: np.ndarray) -> "SpanBatch":
        """Items laid back to back in ``buffer``, ``sizes[i]`` each."""
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        return cls(buffer, bounds[:-1], bounds[1:])

    def blobs(self) -> list[bytes]:
        """One ``bytes`` per item (reference and fallback paths only)."""
        return [self.buffer[lo:hi].tobytes()
                for lo, hi in zip(self.starts.tolist(), self.limits.tolist())]


def pack_blobs(blobs) -> SpanBatch:
    """Concatenate ``list[bytes]`` into one span batch: the adapter for
    callers that hold blobs, not a batch."""
    data = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    return SpanBatch.of_sizes(data, np.fromiter(
        map(len, blobs), dtype=np.int64, count=len(blobs)))


def as_span_batch(values) -> SpanBatch:
    """``values`` as a :class:`SpanBatch`: a batch passes through, a
    sequence of blobs is packed once."""
    return values if isinstance(values, SpanBatch) else pack_blobs(values)


def interleave(sources, sizes: np.ndarray) -> np.ndarray:
    """Rows of pieces, back to back: row ``i`` is the next ``sizes[i, k]``
    bytes of ``sources[k]`` for each ``k`` in turn (``None``: no bytes).
    A byte-wide owner array and one masked store per source place them:
    no index array as wide as the output, no slice per piece."""
    rows, width = sizes.shape
    out = np.empty(int(sizes.sum()), dtype=np.uint8)
    labels = np.arange(width, dtype=np.min_scalar_type(max(width - 1, 0)))
    owner = np.repeat(np.tile(labels, rows), sizes.ravel())
    for k, source in enumerate(sources):
        if source is not None and len(source):
            out[owner == k] = source
    return out


def range_indices(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + sizes[i])`` per range.

    The index form of :func:`gather_ranges` — used directly when the
    caller scatters *into* positions instead of gathering from them.
    Ranges may overlap, repeat, and appear in any order; empty ranges
    contribute nothing.
    """
    total = int(sizes.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    shifts = np.zeros(len(sizes), dtype=np.int64)
    np.cumsum(sizes[:-1], out=shifts[1:])
    return np.repeat(starts - shifts, sizes) + np.arange(total)


def gather_ranges(buf: np.ndarray, starts: np.ndarray, sizes: np.ndarray
                  ) -> np.ndarray:
    """One contiguous copy of ``buf[starts[i]:starts[i] + sizes[i]]`` each.

    The workhorse of the packed bulk-read path: a single fancy-index
    gather replaces one Python-level slice per range.
    """
    positions = range_indices(starts, sizes)
    if not len(positions):
        return np.empty(0, dtype=buf.dtype)
    return buf[positions]


def first_occurrences(ids: np.ndarray, ordered: bool = False,
                      stamp: np.ndarray | None = None) -> np.ndarray:
    """The distinct values of ``ids`` — never by a stable argsort.

    Ascending by default (one plain sort and a neighbour compare — a
    quarter of what numpy 2.3+'s hash-based ``np.unique`` costs), for
    callers whose answer does not depend on frontier order.  With
    ``ordered`` they keep first-appearance order; ``stamp`` then makes
    that cheap: an integer scratch indexed by id that is zero at every
    value of ``ids``.  Each position writes its rank — counting down,
    so a value's earliest position ranks highest — with
    ``np.maximum.at``, and the positions that read their own rank back
    are the first occurrences.  The scratch is left nonzero at exactly
    the returned values (a visited set marks them in the same pass).
    Ids the scratch cannot index, or no scratch at all, take
    ``np.unique(..., return_index=True)``.
    """
    n = len(ids)
    if not ordered:
        if not n:
            return ids[:0]
        values = np.sort(ids)
        keep = np.ones(n, dtype=bool)
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        return values[keep]
    if (stamp is None or not n or n > np.iinfo(stamp.dtype).max
            or ids.min() < 0 or ids.max() >= len(stamp)):
        return ids[np.sort(np.unique(ids, return_index=True)[1])]
    rank = np.arange(n, 0, -1, dtype=stamp.dtype)
    np.maximum.at(stamp, ids, rank)
    return ids[stamp[ids] == rank]
