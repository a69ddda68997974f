"""The Trinity File System: a write-once, block-replicated store.

Design (mirroring HDFS, which the paper cites as TFS's model):

* A single :class:`TrinityFileSystem` object plays the namenode role.  It
  owns the file namespace — a map from path to :class:`FileInfo` — and the
  block-location table.
* :class:`DataNode` objects hold block payloads.  A block is replicated on
  ``replication`` distinct datanodes chosen round-robin from the live set.
* Files are immutable once written (``write`` replaces atomically, it never
  appends), which is all the memory cloud needs: trunk images, checkpoints
  and addressing-table snapshots are always written whole.
* Reads succeed as long as *any* replica of every block survives; losing all
  replicas of some block raises :class:`BlockNotFoundError`.
* Namespace changes are group-committed: inside ``with tfs.batch():``
  block data goes to the datanodes at once, while new files, their block
  locations and the drop of replaced versions are staged and published
  together when the outermost batch exits — one manifest write, through a
  temp file and ``os.replace``.  A ``write`` or ``delete`` outside a batch
  is a batch of one.  An exception inside a batch drops its staged blocks
  and leaves the namespace as it was; a process that dies inside one
  leaves block files no manifest references, which the next
  :class:`TrinityFileSystem` on the same ``disk_root`` deletes.

The failure-recovery path of Section 6.2 ("reload the memory trunks it owns
from the TFS to other alive machines") is exercised through this module.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import pathlib
from dataclasses import dataclass, field

from ..errors import BlockNotFoundError, TfsError


@dataclass
class FileInfo:
    """Namenode metadata for one file."""

    path: str
    size: int
    block_ids: list[int] = field(default_factory=list)
    version: int = 1


@dataclass
class _Staged:
    """The namespace changes of an open batch, not yet visible."""

    #: path -> its new version, or None where the batch deletes it
    files: dict[str, FileInfo | None] = field(default_factory=dict)
    #: holders of every block the batch stored and still references
    locations: dict[int, list[int]] = field(default_factory=dict)


class DataNode:
    """One storage node holding block payloads.

    ``alive`` is toggled by fault-injection tests and the cluster's failure
    simulator; a dead datanode rejects reads and writes.

    With a ``disk_root`` the node also spills every block to a file under
    ``<disk_root>/node-<id>/`` and reloads the directory on construction —
    blocks then survive process restarts, which is what makes the paper's
    "persistent disk storage" recovery stories real rather than simulated.
    """

    def __init__(self, node_id: int, disk_root=None):
        self.node_id = node_id
        self.alive = True
        self._blocks: dict[int, bytes] = {}
        self._disk_dir = None
        if disk_root is not None:
            self._disk_dir = pathlib.Path(disk_root) / f"node-{node_id}"
            self._disk_dir.mkdir(parents=True, exist_ok=True)
            for block_file in self._disk_dir.glob("*.blk"):
                self._blocks[int(block_file.stem)] = block_file.read_bytes()

    def store(self, block_id: int, payload: bytes) -> None:
        if not self.alive:
            raise TfsError(f"datanode {self.node_id} is down")
        self._blocks[block_id] = payload
        if self._disk_dir is not None:
            (self._disk_dir / f"{block_id}.blk").write_bytes(payload)

    def read(self, block_id: int) -> bytes | None:
        """Return the block payload, or None if absent/dead."""
        if not self.alive:
            return None
        return self._blocks.get(block_id)

    def drop(self, block_id: int) -> None:
        self._blocks.pop(block_id, None)
        if self._disk_dir is not None:
            block_file = self._disk_dir / f"{block_id}.blk"
            if block_file.exists():
                block_file.unlink()

    def fail(self) -> None:
        """Simulate a crash: all blocks on this node become unreachable."""
        self.alive = False

    def recover(self) -> None:
        """Bring the node back with whatever blocks it still holds."""
        self.alive = True

    @property
    def block_count(self) -> int:
        return len(self._blocks)

    @property
    def used_bytes(self) -> int:
        return sum(len(b) for b in self._blocks.values())


class TrinityFileSystem:
    """Namenode + datanode ensemble with synchronous replication.

    Parameters
    ----------
    datanodes:
        Number of storage nodes.  The simulated cluster typically creates
        one per slave machine.
    replication:
        Copies kept of every block.  Writes fail unless at least this many
        datanodes are alive.
    block_size:
        Split granularity for file payloads.
    """

    def __init__(self, datanodes: int = 3, replication: int = 2,
                 block_size: int = 1 << 20, disk_root=None):
        if datanodes < 1:
            raise TfsError("need at least one datanode")
        if not 1 <= replication <= datanodes:
            raise TfsError(
                f"replication {replication} must be in [1, {datanodes}]"
            )
        if block_size < 1:
            raise TfsError("block_size must be positive")
        self.replication = replication
        self.block_size = block_size
        self.disk_root = disk_root
        #: Optional :class:`~repro.faults.FaultInjector`; when set, block
        #: reads may find their first replica checksum-corrupted and fail
        #: over to the next one.
        self.faults = None
        self.nodes = [DataNode(i, disk_root) for i in range(datanodes)]
        self._files: dict[str, FileInfo] = {}
        self._block_locations: dict[int, list[int]] = {}
        self._next_block_id = itertools.count()
        self._placement_cursor = 0
        self._staged: _Staged | None = None
        if disk_root is not None:
            self._load_manifest()
            self._drop_orphans()

    # -- group commit -------------------------------------------------------

    @contextlib.contextmanager
    def batch(self):
        """Make every ``write`` and ``delete`` inside one commit.

        Blocks are stored as each call runs; the namespace changes are
        published — and the manifest written — once, when the outermost
        batch exits.  Until then reads see the committed namespace.  An
        exception inside drops the staged blocks and commits nothing.  A
        nested batch joins the one around it.
        """
        if self._staged is not None:
            yield
            return
        self._staged = staged = _Staged()
        try:
            yield
            self._save_manifest(staged)     # the commit point
        except BaseException:
            self._drop_blocks(staged.locations)
            raise
        finally:
            self._staged = None
        self._publish(staged)

    def _publish(self, staged: _Staged) -> None:
        """Make a committed batch visible and free what it replaced."""
        replaced = {}
        for path, info in staged.files.items():
            old = self._files.pop(path, None)
            if old is not None:
                for block_id in old.block_ids:
                    replaced[block_id] = self._block_locations.pop(block_id,
                                                                    [])
            if info is not None:
                self._files[path] = info
        self._block_locations.update(staged.locations)
        self._drop_blocks(replaced)

    def _drop_blocks(self, locations: dict[int, list[int]]) -> None:
        for block_id, holders in locations.items():
            for node_id in holders:
                self.nodes[node_id].drop(block_id)

    def _stage(self, path: str, info: FileInfo | None) -> None:
        """Record ``path``'s next version (None: deleted) in the batch."""
        staged = self._staged
        earlier = staged.files.get(path)
        if earlier is not None:     # superseded inside the batch: never seen
            self._drop_blocks({block_id: staged.locations.pop(block_id)
                               for block_id in earlier.block_ids})
        staged.files[path] = info

    def _current(self, path: str) -> FileInfo | None:
        """``path`` as the open batch has left it so far."""
        if path in self._staged.files:
            return self._staged.files[path]
        return self._files.get(path)

    # -- namespace ----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        """All paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def stat(self, path: str) -> FileInfo:
        try:
            return self._files[path]
        except KeyError:
            raise BlockNotFoundError(path) from None

    def delete(self, path: str) -> None:
        """Remove a file; its blocks are freed when the batch commits."""
        with self.batch():
            if self._current(path) is not None:
                self._stage(path, None)

    # -- I/O ----------------------------------------------------------------

    def write(self, path: str, payload: bytes) -> FileInfo:
        """Write ``payload`` to ``path``, replacing any previous version.

        The write is atomic at the namespace level: the old version remains
        readable until the batch holding the new one commits.
        """
        with self.batch():
            live = [n for n in self.nodes if n.alive]
            if len(live) < self.replication:
                raise TfsError(
                    f"only {len(live)} datanodes alive, need "
                    f"{self.replication}")
            locations: dict[int, list[int]] = {}
            try:
                for start in range(0, max(len(payload), 1), self.block_size):
                    chunk = payload[start:start + self.block_size]
                    block_id = next(self._next_block_id)
                    locations[block_id] = holders = []
                    for node in self._pick_nodes(live):
                        node.store(block_id, chunk)
                        holders.append(node.node_id)
            except BaseException:   # a batch that goes on must not hold them
                self._drop_blocks(locations)
                raise
            self._staged.locations.update(locations)
            old = self._current(path)
            info = FileInfo(path, len(payload), list(locations),
                            old.version + 1 if old else 1)
            self._stage(path, info)
        return info

    def read(self, path: str) -> bytes:
        """Reassemble a file from any surviving replica of each block."""
        info = self.stat(path)
        parts: list[bytes] = []
        for block_id in info.block_ids:
            chunk = self._read_block(block_id)
            if chunk is None:
                raise BlockNotFoundError(f"{path} (block {block_id})")
            parts.append(chunk)
        data = b"".join(parts)
        # A zero-byte file still stores one empty block; normalise.
        return data[: info.size]

    def _read_block(self, block_id: int) -> bytes | None:
        corruption_checked = False
        for node_id in self._block_locations.get(block_id, []):
            chunk = self.nodes[node_id].read(block_id)
            if chunk is None:
                continue
            if self.faults is not None and not corruption_checked:
                # Injected image corruption strikes at most the first
                # surviving replica of a read (a checksum rejection);
                # the read fails over to the next replica, so with
                # replication >= 2 no data is ever lost.
                corruption_checked = True
                if self.faults.corrupt_replica(block_id, node_id):
                    continue
            return chunk
        return None

    def _pick_nodes(self, live: list[DataNode]) -> list[DataNode]:
        """Round-robin placement over live datanodes, replication-many."""
        picked = []
        for _ in range(self.replication):
            node = live[self._placement_cursor % len(live)]
            self._placement_cursor += 1
            picked.append(node)
        # Round-robin over >=replication live nodes cannot repeat, but be
        # explicit for the replication == len(live) edge case.
        unique = {n.node_id: n for n in picked}
        while len(unique) < self.replication:
            node = live[self._placement_cursor % len(live)]
            self._placement_cursor += 1
            unique[node.node_id] = node
        return list(unique.values())

    # -- on-disk namespace manifest -------------------------------------

    def _manifest_path(self) -> pathlib.Path:
        return pathlib.Path(self.disk_root) / "namenode.json"

    def _save_manifest(self, staged: _Staged) -> None:
        """Write the namespace as it is once ``staged`` is published.

        The temp file plus ``os.replace`` is what makes a batch one
        commit: a crash leaves either the old manifest or the new one.
        """
        if self.disk_root is None:
            return
        files = {**self._files, **staged.files}
        document = {"files": {}, "locations": {}}
        for path, info in files.items():
            if info is None:
                continue
            document["files"][path] = {"size": info.size,
                                       "blocks": info.block_ids,
                                       "version": info.version}
            for block_id in info.block_ids:
                document["locations"][str(block_id)] = (
                    staged.locations.get(block_id)
                    or self._block_locations[block_id])
        manifest = self._manifest_path()
        temp = manifest.with_suffix(".tmp")
        temp.write_text(json.dumps(document))
        os.replace(temp, manifest)

    def _load_manifest(self) -> None:
        manifest = self._manifest_path()
        if not manifest.exists():
            return
        document = json.loads(manifest.read_text())
        for path, meta in document["files"].items():
            self._files[path] = FileInfo(
                path, meta["size"], list(meta["blocks"]), meta["version"],
            )
        self._block_locations = {
            int(block): list(holders)
            for block, holders in document["locations"].items()
        }
        highest = max(self._block_locations, default=-1)
        self._next_block_id = itertools.count(highest + 1)

    def _drop_orphans(self) -> None:
        """Delete every block the manifest does not place on its node.

        These are the blocks of a batch that never committed: a process
        that died between storing them and the manifest's ``os.replace``.
        """
        for node in self.nodes:
            for block_id in list(node._blocks):
                if node.node_id not in self._block_locations.get(block_id,
                                                                 ()):
                    node.drop(block_id)
        self._manifest_path().with_suffix(".tmp").unlink(missing_ok=True)

    # -- maintenance --------------------------------------------------------

    def re_replicate(self) -> int:
        """Restore the replication factor after datanode failures.

        For every block with fewer than ``replication`` live holders, copy a
        surviving replica onto additional live nodes.  Returns the number of
        new copies made.  Blocks with no surviving replica are left as-is
        (they will surface as :class:`BlockNotFoundError` on read).
        """
        live = [n for n in self.nodes if n.alive]
        copies = 0
        for block_id, holders in self._block_locations.items():
            alive_holders = [
                h for h in holders
                if self.nodes[h].alive
                and self.nodes[h].read(block_id) is not None
            ]
            if not alive_holders or len(alive_holders) >= self.replication:
                continue
            payload = self.nodes[alive_holders[0]].read(block_id)
            assert payload is not None
            candidates = [n for n in live if n.node_id not in alive_holders]
            needed = self.replication - len(alive_holders)
            for node in candidates[:needed]:
                node.store(block_id, payload)
                alive_holders.append(node.node_id)
                copies += 1
            self._block_locations[block_id] = alive_holders
        if copies:      # the new holders are namespace state too
            self._save_manifest(_Staged())
        return copies

    @property
    def total_bytes(self) -> int:
        """Raw bytes stored across all replicas (for capacity accounting)."""
        return sum(n.used_bytes for n in self.nodes)
