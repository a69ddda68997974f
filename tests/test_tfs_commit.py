"""TFS group commit: one manifest write per batch, tags whole or absent.

Two parts.  A hypothesis program of ``write`` / ``delete`` / a batch that
raises at step k runs against a dict model; after every step the
namespace equals the model, the datanodes hold exactly the referenced
blocks (in memory and on disk), a fresh TFS on the same ``disk_root``
reads the same namespace back, and exactly one manifest write happened
per outermost batch that committed.  Then a crash-point sweep over
``CheckpointManager.save_cloud``: ``trunk_to_bytes`` raises at trunk k,
for every k, and the previous tag must stay listed and restore
bit-identically while the new one never appears.

The CI fault matrix re-runs this module with the sweep's cloud drawn
from the ``FAULTS_SEED`` environment variable.
"""

import contextlib
import itertools
import os
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compute import CheckpointManager
from repro.config import ClusterConfig, MemoryParams
from repro.errors import BlockNotFoundError, MemoryCloudError
from repro.memcloud import MemoryCloud, persistence
from repro.obs import MetricsRegistry
from repro.tfs import TrinityFileSystem

SEED = int(os.environ.get("FAULTS_SEED", "7"))


class Crash(Exception):
    """Raised inside a batch by the program."""


def namespace(tfs: TrinityFileSystem) -> dict[str, bytes]:
    return {path: tfs.read(path) for path in tfs.list_files()}


def held_blocks(tfs: TrinityFileSystem) -> set[tuple[int, int]]:
    return {(node.node_id, block_id)
            for node in tfs.nodes for block_id in node._blocks}


def referenced_blocks(tfs: TrinityFileSystem) -> set[tuple[int, int]]:
    return {(holder, block_id)
            for path in tfs.list_files()
            for block_id in tfs.stat(path).block_ids
            for holder in tfs._block_locations[block_id]}


def disk_blocks(root) -> set[tuple[int, int]]:
    return {(int(path.parent.name.removeprefix("node-")), int(path.stem))
            for path in pathlib.Path(root).glob("node-*/*.blk")}


def counted_manifest_writes():
    return mock.patch.object(
        TrinityFileSystem, "_save_manifest", autospec=True,
        side_effect=TrinityFileSystem._save_manifest)


# -- the program --------------------------------------------------------------

PATHS = st.sampled_from(["/a", "/b", "/c/d"])
SIMPLE = st.one_of(
    st.tuples(st.just("write"), PATHS, st.binary(max_size=200)),
    st.tuples(st.just("delete"), PATHS),
)
BATCH = st.tuples(st.just("batch"), st.lists(SIMPLE, max_size=5),
                  st.none() | st.integers(0, 5), st.booleans())
PROGRAM = st.lists(st.one_of(SIMPLE, BATCH), max_size=12)


def apply(tfs: TrinityFileSystem, model: dict, op) -> None:
    if op[0] == "write":
        tfs.write(op[1], op[2])
        model[op[1]] = op[2]
    else:
        tfs.delete(op[1])
        model.pop(op[1], None)


def run_batch(tfs: TrinityFileSystem, model: dict, ops, raise_at,
              nested: bool) -> dict:
    """The model after one batch: ``model`` itself if it raised."""
    staged = dict(model)
    try:
        with tfs.batch():
            with tfs.batch() if nested else contextlib.nullcontext():
                for step, op in enumerate(ops):
                    if step == raise_at:
                        raise Crash
                    apply(tfs, staged, op)
                    # reads inside a batch see the committed namespace
                    assert namespace(tfs) == model
            if raise_at is not None and raise_at >= len(ops):
                raise Crash
    except Crash:
        return model
    return staged


@settings(max_examples=60, deadline=None)
@given(program=PROGRAM)
def test_namespace_follows_the_model_one_manifest_per_batch(program):
    with tempfile.TemporaryDirectory(prefix="tfs-commit-") as root, \
            counted_manifest_writes() as manifest_writes:
        shape = dict(datanodes=3, replication=2, block_size=64)
        tfs = TrinityFileSystem(disk_root=root, **shape)
        model: dict[str, bytes] = {}
        commits = 0
        for op in program:
            if op[0] == "batch":
                after = run_batch(tfs, model, *op[1:])
                commits += after is not model
                model = after
            else:
                apply(tfs, model, op)
                commits += 1
            assert namespace(tfs) == model
            assert held_blocks(tfs) == referenced_blocks(tfs)
            assert disk_blocks(root) == referenced_blocks(tfs)
            assert set(tfs._block_locations) == {
                block_id for _, block_id in referenced_blocks(tfs)}
            assert manifest_writes.call_count == commits
            reopened = TrinityFileSystem(disk_root=root, **shape)
            assert namespace(reopened) == model
            assert ({path: reopened.stat(path).version for path in model}
                    == {path: tfs.stat(path).version for path in model})


# -- checkpoint tags ----------------------------------------------------------

CONFIG = ClusterConfig(machines=2, trunk_bits=3,
                       memory=MemoryParams(trunk_size=64 * 1024))


def seeded_cloud(seed: int) -> MemoryCloud:
    rng = np.random.default_rng(seed)
    cloud = MemoryCloud(CONFIG, MetricsRegistry())
    uids = rng.choice(1 << 20, size=300, replace=False)
    for uid in uids.tolist():
        cloud.put(uid, rng.bytes(int(rng.integers(1, 120))))
    return cloud


def trunk_states(cloud: MemoryCloud) -> dict:
    return {trunk_id: (dict(trunk.dump_cells()), trunk.stats(),
                       trunk.mutation_epoch)
            for trunk_id, trunk in cloud.trunks.items()}


def without_epochs(states: dict) -> dict:
    return {trunk_id: state[:2] for trunk_id, state in states.items()}


def test_save_cloud_writes_the_manifest_once(tmp_path):
    cloud = seeded_cloud(SEED)
    manager = CheckpointManager(TrinityFileSystem(disk_root=tmp_path),
                                job="once")
    with counted_manifest_writes() as manifest_writes:
        manager.save_cloud(1, cloud)
    assert manifest_writes.call_count == 1
    assert len(manager.tfs.list_files()) == len(cloud.trunks)


def test_a_save_that_fails_at_any_trunk_leaves_the_previous_tag(
        tmp_path, monkeypatch):
    cloud = seeded_cloud(SEED)
    tfs = TrinityFileSystem(disk_root=tmp_path)
    manager = CheckpointManager(tfs, job="sweep")
    manager.save_cloud(1, cloud)
    saved = without_epochs(trunk_states(cloud))
    files, blocks = tfs.list_files(), disk_blocks(tmp_path)
    encode = persistence.trunk_to_bytes
    rng = np.random.default_rng(SEED + 1)
    for crash_at in range(len(cloud.trunks)):
        # the state the failed tag would have held differs from tag 1's
        for uid in rng.integers(1 << 20, 1 << 21, size=20).tolist():
            cloud.put(uid, rng.bytes(30))
        calls = itertools.count()

        def failing(trunk, crash_at=crash_at, calls=calls):
            if next(calls) == crash_at:
                raise OSError("device lost mid-checkpoint")
            return encode(trunk)

        monkeypatch.setattr(persistence, "trunk_to_bytes", failing)
        with pytest.raises(OSError, match="mid-checkpoint"):
            manager.save_cloud(2, cloud)
        monkeypatch.setattr(persistence, "trunk_to_bytes", encode)
        assert tfs.list_files() == files
        assert held_blocks(tfs) == referenced_blocks(tfs)
        assert disk_blocks(tmp_path) == blocks
        assert TrinityFileSystem(disk_root=tmp_path).list_files() == files
        manager.load_cloud(1, cloud)
        assert without_epochs(trunk_states(cloud)) == saved


class TestLoadCloudIsAllOrNothing:
    @pytest.fixture
    def saved(self):
        cloud = seeded_cloud(SEED)
        manager = CheckpointManager(TrinityFileSystem(), job="whole")
        manager.save_cloud(1, cloud)
        # the live cloud moves on, so a partial restore would show
        for uid in range(1 << 21, (1 << 21) + 40):
            cloud.put(uid, b"after the checkpoint")
        return cloud, manager

    def test_a_missing_trunk_image_restores_nothing(self, saved):
        cloud, manager = saved
        manager.tfs.delete(manager._trunk_path(1, 3))
        before = trunk_states(cloud)
        with pytest.raises(BlockNotFoundError):
            manager.load_cloud(1, cloud)
        assert trunk_states(cloud) == before

    def test_a_corrupt_last_image_restores_nothing(self, saved):
        cloud, manager = saved
        last = manager._trunk_path(1, max(cloud.trunks))
        image = bytearray(manager.tfs.read(last))
        image[len(image) // 2] ^= 0xFF
        manager.tfs.write(last, bytes(image))
        before = trunk_states(cloud)
        with pytest.raises(MemoryCloudError, match="checksum"):
            manager.load_cloud(1, cloud)
        assert trunk_states(cloud) == before
