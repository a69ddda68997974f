"""Trunk persistence: backing memory trunks up in TFS (Section 3).

"To support fault-tolerant data persistence, these memory trunks are also
backed up in a shared distributed file system called TFS."  When a machine
fails, its trunks are *reloaded from TFS* onto survivors (Section 6.2);
this module provides the trunk image format and the backup/restore paths
the recovery protocol in :mod:`repro.cluster.recovery` drives.

There is one image format, on both storage tiers: the **page image**.  A
trunk persists its committed pages as they are — not a re-encoded cell
list — plus the allocator state and the cell table, so restoring adopts
raw pages verbatim and layout, garbage accounting and ``stats()``
round-trip exactly.  The price is size: the image carries the 16-byte
in-arena cell headers, the dead space inside committed pages and the
cell table (about +40 % over a bare ``uid, size, payload`` list on the
benchmark's load_restore graph); what it buys is a restore that replays
nothing and adopts nothing until the whole image has parsed.

    magic   4 bytes  b"TRNK"
    version varint   (3)
    trunk_id varint
    shape   varints  page_size, trunk_size (must equal the target's)
    state   varints  append_head, committed_tail, wrapped, end_gap,
                     garbage_bytes, defrag counters...
                     (:data:`~repro.memcloud.trunk.IMAGE_STATE_FIELDS`)
    pages   varint count, then one varint page index each
    cells   varint count, then per cell: uid, offset, size, reserved
    raw     per page: varint length + raw page bytes
    crc32   4 bytes  little-endian, over every byte before it

The checksum is what makes the file self-validating: a torn write, a
cut or a flipped byte anywhere ends in :class:`MemoryCloudError` before
a single field is trusted; an intact file is still refused unless it
is a whole image of this trunk shape.  Header and cell table are one
varint run, written and read as arrays.
"""

from __future__ import annotations

import zlib

import numpy as np

from ..config import MemoryParams
from ..errors import MemoryCloudError
from ..tfs import TrinityFileSystem
from ..utils.varint import (
    decode_varint,
    decode_varint_run,
    encode_varint,
    encode_varints,
)
from .cloud import MemoryCloud
from .trunk import CELL_HEADER_BYTES, IMAGE_STATE_FIELDS, MemoryTrunk

_MAGIC = b"TRNK"
_FORMAT_VERSION = 3


def trunk_image_path(trunk_id: int) -> str:
    """Canonical TFS path for one trunk's backup image."""
    return f"/trinity/trunks/{trunk_id:05d}.img"


def trunk_to_bytes(trunk: MemoryTrunk) -> bytes:
    """Serialise a trunk into its page image.

    A paged trunk writes its dirty pages back first, so its page file on
    disk matches the image at return time.
    """
    state = trunk.freeze_image_state()
    header = [_FORMAT_VERSION, trunk.trunk_id, trunk.params.page_size,
              trunk.params.trunk_size]
    header += [int(state[field]) for field in IMAGE_STATE_FIELDS]
    header += [len(state["pages"]), *state["pages"], len(state["cells"])]
    # Header and cell table leave as one varint run: the bytes a join of
    # ``encode_varint`` per value produces.
    fields = np.concatenate((np.array(header, dtype=np.uint64),
                             state["cells"].ravel()))
    parts = [_MAGIC, encode_varints(fields)[0].tobytes()]
    for raw in state["raw"]:
        parts += (encode_varint(len(raw)), raw)
    body = b"".join(parts)
    return body + zlib.crc32(body).to_bytes(4, "little")


def _parse_image(image: bytes, params: MemoryParams) -> dict:
    """The allocator state held in ``image``, checked against ``params``.

    Touches no trunk: every way an image can be unusable — damage, a
    foreign version, a different trunk shape, a page or a cell that does
    not fit that shape, bytes missing or left over — is found here,
    before anything is adopted.
    """
    if image[:4] != _MAGIC:
        raise MemoryCloudError("not a trunk image (bad magic)")
    body, crc = image[:-4], image[-4:]
    if len(image) < 9 or zlib.crc32(body).to_bytes(4, "little") != crc:
        raise MemoryCloudError(
            "truncated or corrupt trunk image (checksum mismatch)")
    try:
        return _parse_body(body, params)
    except ValueError as error:     # a varint run that stops short
        raise MemoryCloudError(f"malformed trunk image: {error}") from error


def _parse_body(body: bytes, params: MemoryParams) -> dict:
    """:func:`_parse_image` past the checksum."""
    page_size, trunk_size = params.page_size, params.trunk_size
    version, offset = decode_varint(body, 4)
    if version != _FORMAT_VERSION:
        raise MemoryCloudError(f"unsupported trunk image version {version}")
    fields, offset = decode_varint_run(
        body, offset, 3 + len(IMAGE_STATE_FIELDS) + 1)
    _source_trunk_id, *shape = fields[:3].tolist()
    if shape != [page_size, trunk_size]:
        raise MemoryCloudError(
            f"trunk image shape (page {shape[0]}, trunk {shape[1]}) != "
            f"configured (page {page_size}, trunk {trunk_size})")
    state: dict = dict(zip(IMAGE_STATE_FIELDS, fields[3:-1].tolist()))
    state["wrapped"] = bool(state["wrapped"])  # the one non-integer field
    pages, offset = decode_varint_run(body, offset, int(fields[-1]))
    cell_count, offset = decode_varint(body, offset)
    cells, offset = decode_varint_run(body, offset, 4 * cell_count)
    state["pages"] = pages.tolist()
    state["cells"] = cells = cells.reshape(-1, 4)
    # uid, offset, size, reserved per cell: the slot lies inside the
    # trunk, behind its header, and holds the cell (uint64 columns: the
    # bound is subtracted, a huge field is never added to).
    start, size, reserved = cells[:, 1], cells[:, 2], cells[:, 3]
    misfit = np.flatnonzero(
        (start < CELL_HEADER_BYTES) | (start > trunk_size) | (size > reserved)
        | (reserved > np.uint64(trunk_size) - start))
    if len(misfit):
        raise MemoryCloudError(
            f"trunk image cell {cells[misfit[0]].tolist()} (uid, offset, "
            f"size, reserved) does not fit a {trunk_size}-byte trunk")
    raw = []
    for page in state["pages"]:
        length, offset = decode_varint(body, offset)
        # At most zero: the trunk has no such page.
        expected = min(page_size, trunk_size - page * page_size)
        if not 0 < expected == length <= len(body) - offset:
            raise MemoryCloudError(
                f"trunk image page {page} records {length} bytes, holds "
                f"{min(length, len(body) - offset)}, should hold {expected}")
        raw.append(body[offset:offset + length])
        offset += length
    if offset != len(body):
        raise MemoryCloudError(
            f"trunk image has {len(body) - offset} bytes after its last page")
    state["raw"] = raw
    return state


def trunk_from_bytes(image: bytes, trunk: MemoryTrunk) -> int:
    """Load an image into the pristine ``trunk``; returns the cell count.

    Raw pages and allocator state are adopted verbatim, so the target
    must have the page and trunk size the image was taken with —
    recovery loads a failed machine's images into fresh trunks of the
    same cloud configuration on survivors.  Anything wrong with the
    image or the target raises :class:`MemoryCloudError` with the trunk
    untouched.
    """
    state = _parse_image(image, trunk.params)
    trunk.adopt_image_state(state)
    return len(state["cells"])


def backup_trunk(cloud: MemoryCloud, trunk_id: int,
                 tfs: TrinityFileSystem) -> int:
    """Write one trunk's image to TFS; returns the image size."""
    image = trunk_to_bytes(cloud.trunks[trunk_id])
    tfs.write(trunk_image_path(trunk_id), image)
    return len(image)


def backup_all(cloud: MemoryCloud, tfs: TrinityFileSystem) -> int:
    """Back every trunk up to TFS in one commit; returns image bytes."""
    with tfs.batch():
        return sum(
            backup_trunk(cloud, trunk_id, tfs) for trunk_id in cloud.trunks
        )


def restore_trunk(cloud: MemoryCloud, trunk_id: int,
                  tfs: TrinityFileSystem) -> int:
    """Rebuild one trunk from its TFS image; returns cells restored.

    The trunk object is replaced wholesale so stale cells from the failed
    incarnation cannot linger.
    """
    image = tfs.read(trunk_image_path(trunk_id))
    return adopt_trunk_image(cloud, trunk_id, image)


def adopt_trunk_image(cloud: MemoryCloud, trunk_id: int,
                      image: bytes) -> int:
    """Replace ``cloud``'s trunk with one rebuilt from ``image``."""
    return adopt_trunk_images(cloud, {trunk_id: image})


def adopt_trunk_images(cloud: MemoryCloud, images: dict[int, bytes]) -> int:
    """Replace each ``cloud`` trunk in ``images`` with its image's rebuild.

    Every image is parsed and checked in full first: one unusable image
    raises :class:`MemoryCloudError` and leaves every current trunk
    installed and readable.  The replacement itself — old spans going
    stale, the page file changing hands, the epoch carried forward — is
    :meth:`MemoryCloud.replace_trunk`.  Returns cells restored.
    """
    states = {trunk_id: _parse_image(image, cloud.config.memory)
              for trunk_id, image in images.items()}
    for trunk_id, state in states.items():
        cloud.replace_trunk(trunk_id).adopt_image_state(state)
    return sum(len(state["cells"]) for state in states.values())
