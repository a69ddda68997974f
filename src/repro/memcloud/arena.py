"""The arena: one ``mmap`` the kernel commits on touch.

A :class:`MemoryTrunk` treats one contiguous address space as raw bytes;
everything it needs from the backing is a writable buffer of fixed
length.  :class:`Arena` is that buffer — a single ``mmap.mmap`` call
with one of two backings:

* *private anonymous* (the default): process-private bytes.  Mapping
  reserves address space only; a page costs RAM once it is first
  written — the paper's VirtualAlloc reserve/commit (§3, §6.1).  A
  resident cloud reserves **one** such arena for all its trunks, each a
  fixed slice (:func:`slice_stride`), mapped ``MAP_NORESERVE`` so that
  heuristic overcommit accepts a reservation larger than RAM.
* *file-backed* (``path=...``): the paged tier's page file
  (:class:`~repro.memcloud.storage.PagedStorage`), created exclusively
  and removed again by the arena that created it.  The map is shared
  with its file, as a page file's must be.
"""

from __future__ import annotations

import mmap
import os
import sys
import weakref

from ..errors import MemoryCloudError

# Python's mmap module names it only from 3.13 (this is Linux's value).
MAP_NORESERVE = getattr(mmap, "MAP_NORESERVE",
                        0x4000 if sys.platform == "linux" else 0)


def slice_stride(size: int) -> int:
    """Where trunk slices of ``size`` bytes start apart in one arena:
    ``size`` rounded up to the OS page, so each is released alone."""
    return -(-size // mmap.PAGESIZE) * mmap.PAGESIZE


def _remove_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


class Arena:
    """``size`` writable bytes behind one ``mmap``: anonymous and
    process-private, or the file at ``path``."""

    def __init__(self, size: int, path: str | None = None):
        self.path = path
        fd, self._remove = -1, None
        if path is None:
            # Spelled out: Python's default for an anonymous map is
            # MAP_SHARED, and a forked child's writes into the arena
            # must not land in the parent's store.
            flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | MAP_NORESERVE
        else:
            flags = mmap.MAP_SHARED
            # Exclusive create: two storages on one path would read and
            # write each other's bytes, so a collision is refused before
            # anything is mapped — and what this arena removes later is
            # always a file it made.
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
            except FileExistsError:
                raise MemoryCloudError(
                    f"page file {path} already exists: another trunk "
                    f"storage owns it (one spill_dir per paged cloud)"
                ) from None
            self._remove = weakref.finalize(self, _remove_quietly, path)
        try:
            if fd != -1:
                os.ftruncate(fd, size)
            self._map: mmap.mmap | None = mmap.mmap(fd, size, flags=flags)
        finally:
            if fd != -1:
                os.close(fd)

    @property
    def buf(self) -> mmap.mmap:
        """The mapping; :class:`MemoryCloudError` once closed."""
        if self._map is None:
            raise MemoryCloudError("arena used after close()")
        return self._map

    def close(self) -> None:
        """Unmap, and remove the page file of a file-backed arena.

        While numpy views or memoryviews into the buffer are alive the
        mapping cannot be closed (``BufferError``); it is then unmapped
        when the last of them is collected.  Either way the arena itself
        is unusable from here on.
        """
        mapped, self._map = self._map, None
        if mapped is not None:
            try:
                mapped.close()
            except BufferError:
                pass
        if self._remove is not None:
            self._remove()  # at most once: here or at garbage collection
