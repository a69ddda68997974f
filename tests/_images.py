"""The trunk page image, one ``encode_varint`` call per value.

This is the codec ``repro.memcloud.persistence`` had before it wrote the
header and the cell table as one varint run: kept here as the
byte-for-byte reference for ``trunk_to_bytes``, and as the way tests
serialise a doctored ``freeze_image_state`` snapshot into an image whose
checksum is good.
"""

from __future__ import annotations

import zlib

from repro.memcloud.trunk import IMAGE_STATE_FIELDS
from repro.utils.varint import encode_varint


def reference_image(trunk, state: dict | None = None) -> bytes:
    """``trunk``'s image (or that of ``state``, a snapshot of it)."""
    if state is None:
        state = trunk.freeze_image_state()
    header = [3, trunk.trunk_id, trunk.params.page_size,
              trunk.params.trunk_size]
    header += [int(state[field]) for field in IMAGE_STATE_FIELDS]
    header += [len(state["pages"]), *state["pages"], len(state["cells"])]
    for cell in state["cells"].tolist():
        header += cell
    parts = [b"TRNK", *map(encode_varint, header)]
    for raw in state["raw"]:
        parts += (encode_varint(len(raw)), raw)
    return checksummed(b"".join(parts))


def checksummed(body: bytes) -> bytes:
    """``body`` with the CRC an intact image of it would carry."""
    return body + zlib.crc32(body).to_bytes(4, "little")
