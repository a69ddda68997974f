"""Checkpointing of computations to TFS (Section 6.2).

"For BSP based synchronous computation, we make check points every a few
supersteps.  These check points are written to the persistent file system
for future failure recovery."  Asynchronous computations instead write
*snapshots* at a quiescent interruption.  Both are one format, written
by the one round loop (:meth:`repro.compute.bsp.BspEngine._run`) every
``every`` rounds and read back by it after a crash: a pickled engine
image, whose numpy arrays (values, active mask, combined inbox) and
queues round-trip exactly, so a restart resumes the computation
bit-identically.  Memory-cloud checkpoints are trunk page images, not
pickles.
"""

from __future__ import annotations

import pickle

from ..errors import RecoveryError
from ..memcloud import persistence as trunk_persistence
from ..tfs import TrinityFileSystem


class CheckpointManager:
    """Writes and restores engine images and cloud images in TFS."""

    def __init__(self, tfs: TrinityFileSystem, job: str = "job",
                 every: int = 5):
        if every < 1:
            raise RecoveryError("checkpoint interval must be >= 1")
        self.tfs = tfs
        self.job = job
        self.every = every
        self.saved = 0

    def _state_path(self, tag: int) -> str:
        return f"/trinity/checkpoints/{self.job}/{tag:08d}.state"

    def _tag_files(self) -> dict[int, list[str]]:
        """Every committed file of this job, by tag."""
        prefix = f"/trinity/checkpoints/{self.job}/"
        out: dict[int, list[str]] = {}
        for path in self.tfs.list_files(prefix):
            out.setdefault(int(path[len(prefix):].split(".")[0]),
                           []).append(path)
        return out

    def tags(self) -> list[int]:
        """Tags that hold an engine image, ascending."""
        return sorted(tag for tag, paths in self._tag_files().items()
                      if self._state_path(tag) in paths)

    # -- engine images (checkpoint-restart) ----------------------------------

    def save_state(self, tag: int, state: dict) -> None:
        """Persist a pickled engine-state image under an integer tag."""
        self.tfs.write(self._state_path(tag), pickle.dumps(state))
        self.saved += 1

    def load_state(self, tag: int) -> dict:
        """Restore one engine-state image."""
        return pickle.loads(self.tfs.read(self._state_path(tag)))

    # -- memory-cloud images (page files, not pickles) -----------------------

    def _trunk_path(self, tag: int, trunk_id: int) -> str:
        return (f"/trinity/checkpoints/{self.job}/{tag:08d}.trunks/"
                f"{trunk_id:05d}.img")

    def save_cloud(self, tag: int, cloud) -> int:
        """Checkpoint every trunk of a memory cloud; returns image bytes.

        Each trunk is persisted as its page image
        (:mod:`repro.memcloud.persistence`) — committed pages verbatim
        plus allocator state, the same on both storage tiers; a paged
        trunk writes its dirty pages back first.  Nothing is pickled —
        the images are the same format machine recovery uses.  The
        images are one TFS commit: the tag appears whole when the last
        is written, or — if any trunk fails — not at all.
        """
        total = 0
        with self.tfs.batch():
            for trunk_id, trunk in cloud.trunks.items():
                image = trunk_persistence.trunk_to_bytes(trunk)
                self.tfs.write(self._trunk_path(tag, trunk_id), image)
                total += len(image)
        self.saved += 1
        return total

    def load_cloud(self, tag: int, cloud) -> int:
        """Restore every trunk of a cloud from a checkpoint tag.

        All or nothing: every trunk's image is read and checked before
        any trunk is replaced, so a missing image
        (:class:`~repro.errors.BlockNotFoundError`) or an unusable one
        (:class:`~repro.errors.MemoryCloudError`) leaves the cloud as it
        was.  Trunks are replaced wholesale through
        :func:`repro.memcloud.persistence.adopt_trunk_images`, which
        carries each trunk's mutation epoch forward so outstanding spans
        and serving-layer caches stamped before the restore can never
        validate against the restored state.  Returns cells restored.
        """
        return trunk_persistence.adopt_trunk_images(cloud, {
            trunk_id: self.tfs.read(self._trunk_path(tag, trunk_id))
            for trunk_id in cloud.trunks})

    def prune(self, keep: int = 2) -> int:
        """Drop every file of all but the newest ``keep`` tags, in one
        commit; returns the number of tags removed."""
        if keep < 0:
            raise RecoveryError("prune must keep >= 0 tags")
        tag_files = self._tag_files()
        pruned = sorted(tag_files)[:-keep] if keep else sorted(tag_files)
        with self.tfs.batch():
            for tag in pruned:
                for path in tag_files[tag]:
                    self.tfs.delete(path)
        return len(pruned)
