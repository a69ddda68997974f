"""Checkpointing of computations to TFS (Section 6.2).

"For BSP based synchronous computation, we make check points every a few
supersteps.  These check points are written to the persistent file system
for future failure recovery."  Asynchronous computations instead write
*snapshots* after a Safra-certified quiescent interruption; both use the
same manager.

Checkpoint payloads are JSON (vertex values are numbers, strings, lists
or null), which keeps images portable and diffable.

For checkpoint-*restart* — resuming a BSP job after an injected machine
crash with bit-identical semantics — JSON is not enough: the engine's
state includes numpy arrays (values, active mask, combined inbox) whose
dtypes must round-trip exactly.  ``save_state``/``load_state`` keep
pickled full-fidelity engine images next to the JSON value vectors
(``.state`` beside ``.ckpt``).
"""

from __future__ import annotations

import json
import pickle

from ..errors import RecoveryError
from ..memcloud import persistence as trunk_persistence
from ..tfs import TrinityFileSystem


class CheckpointManager:
    """Writes and restores value-vector checkpoints in TFS."""

    def __init__(self, tfs: TrinityFileSystem, job: str = "job",
                 every: int = 5):
        if every < 1:
            raise RecoveryError("checkpoint interval must be >= 1")
        self.tfs = tfs
        self.job = job
        self.every = every
        self.saved = 0

    def _path(self, tag: int) -> str:
        return f"/trinity/checkpoints/{self.job}/{tag:08d}.ckpt"

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

    def maybe_checkpoint(self, superstep: int, values) -> bool:
        """BSP hook: checkpoint every ``every`` supersteps; True if saved."""
        if (superstep + 1) % self.every:
            return False
        self.save(superstep, values)
        return True

    def save(self, tag: int, values, metadata: dict | None = None) -> None:
        """Persist a value vector under an integer tag."""
        document = {
            "job": self.job,
            "tag": tag,
            "metadata": metadata or {},
            "values": list(values),
        }
        try:
            payload = json.dumps(document).encode("utf-8")
        except TypeError as exc:
            raise RecoveryError(
                f"checkpoint values are not JSON-serialisable: {exc}"
            ) from None
        self.tfs.write(self._path(tag), payload)
        self.saved += 1

    def tags(self) -> list[int]:
        """Available JSON checkpoint tags, ascending."""
        return sorted(tag for tag, paths in self._tag_files().items()
                      if self._path(tag) in paths)

    def load(self, tag: int) -> tuple[list, dict]:
        """Restore one checkpoint: (values, metadata)."""
        document = json.loads(self.tfs.read(self._path(tag)).decode("utf-8"))
        return document["values"], document["metadata"]

    def load_latest(self) -> tuple[int, list, dict]:
        """Restore the newest checkpoint: (tag, values, metadata)."""
        tags = self.tags()
        if not tags:
            raise RecoveryError(f"no checkpoints for job {self.job!r}")
        tag = tags[-1]
        values, metadata = self.load(tag)
        return tag, values, metadata

    # -- full-fidelity engine images (checkpoint-restart) --------------------

    def save_state(self, tag: int, state: dict) -> None:
        """Persist a pickled engine-state image under an integer tag.

        Unlike :meth:`save`, the payload is a full-fidelity pickle —
        numpy arrays, dtypes and inbox structures round-trip exactly, so
        a restart resumes the computation bit-identically.
        """
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
        tag_files = self._tag_files()
        pruned = sorted(tag_files)[:-keep] if keep else sorted(tag_files)
        with self.tfs.batch():
            for tag in pruned:
                for path in tag_files[tag]:
                    self.tfs.delete(path)
        return len(pruned)
