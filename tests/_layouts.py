"""Forge an adjacency list under one chosen layout.

The product has one adjacency encoder: ``encode_adjacency`` under a
policy.  A fixture that needs a given layout gets it from that encoder,
under a policy whose only codec is that layout and whose thresholds are
one, so that layout is the argmin whenever it is eligible and smaller
than raw.
"""

import numpy as np

from repro.tsl.layout import (
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    RAW_ONLY_POLICY,
    LayoutPolicy,
    encode_adjacency,
)
from repro.utils.varint import decode_varint

ONLY = {
    LAYOUT_RAW: RAW_ONLY_POLICY,
    LAYOUT_DELTA_VARINT: LayoutPolicy(delta_min_degree=1,
                                      allow_bitmap=False),
    LAYOUT_BITMAP: LayoutPolicy(bitmap_min_degree=1, allow_delta=False),
}
"""Per layout, a policy whose argmin is that layout or raw."""


def encode_as(values, tag: int) -> bytes | None:
    """``values`` encoded under layout ``tag``; ``None`` when the policy
    that allows only ``tag`` still chooses raw for them."""
    blob = encode_adjacency(np.asarray(values, dtype=np.int64), ONLY[tag])
    header, _ = decode_varint(blob, 0)
    return blob if header & 3 == tag else None
