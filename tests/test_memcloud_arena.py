"""The arena: one mmap, two backings, one close rule.

What every layer above relies on and a change of backing could lose:
pages cost RAM only once written, an anonymous arena is private across
``fork``, a page file belongs to exactly one arena, and a closed arena
says so.  A resident cloud reserves one arena for all its trunks: it
has to fit a reservation larger than RAM, and a trunk's successor on
the same slice must start from zeros, never from its predecessor's
bytes or its neighbours'.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.config import ClusterConfig, MemoryParams
from repro.errors import MemoryCloudError
from repro.memcloud import Arena, MemoryCloud, persistence
from repro.memcloud.arena import slice_stride
from repro.obs import MetricsRegistry
from repro.utils.hashing import trunk_of


def _child_writes(arena: Arena, payload: bytes) -> None:
    """Fork; the child writes ``payload`` at offset 0 and exits."""
    pid = os.fork()
    if pid == 0:
        try:
            arena.buf[:len(payload)] = payload
        finally:
            os._exit(0)
    assert os.waitpid(pid, 0)[1] == 0


class TestForkSemantics:
    def test_private_arena_hides_a_childs_write(self):
        arena = Arena(4096)
        arena.buf[:6] = b"parent"
        _child_writes(arena, b"child!")
        assert arena.buf[:6] == b"parent"


class TestFileBacked:
    def test_page_file_is_created_sized_and_removed(self, tmp_path):
        path = str(tmp_path / "one.pages")
        arena = Arena(8192, path=path)
        arena.buf[100:105] = b"bytes"
        assert os.path.getsize(path) == 8192
        arena.buf.flush()
        with open(path, "rb") as handle:
            assert handle.read()[100:105] == b"bytes"
        arena.close()
        assert not os.path.exists(path)

    def test_existing_path_is_refused_and_left_alone(self, tmp_path):
        path = str(tmp_path / "taken.pages")
        owner = Arena(4096, path=path)
        owner.buf[:5] = b"owner"
        with pytest.raises(MemoryCloudError, match="taken.pages"):
            Arena(4096, path=path)
        # The loser never mapped, truncated or removed the file.
        assert os.path.getsize(path) == 4096
        assert owner.buf[:5] == b"owner"
        owner.close()

    def test_collected_arena_removes_its_file(self, tmp_path):
        path = str(tmp_path / "gc.pages")
        arena = Arena(4096, path=path)
        del arena
        assert not os.path.exists(path)


class TestClose:
    def test_use_after_close_is_a_cloud_error(self):
        arena = Arena(4096)
        arena.close()
        with pytest.raises(MemoryCloudError, match="after close"):
            arena.buf
        arena.close()  # idempotent

    def test_live_views_outlast_close(self):
        """The one close rule: an exported view keeps the mapping
        readable, the arena itself is closed either way."""
        arena = Arena(4096)
        arena.buf[:4] = b"kept"
        view = np.frombuffer(arena.buf, dtype=np.uint8)
        arena.close()
        assert bytes(view[:4]) == b"kept"
        with pytest.raises(MemoryCloudError):
            arena.buf


class TestCloudArena:
    """One reservation for the whole resident cloud, trunk t at slice t."""

    def test_a_reservation_larger_than_ram_maps(self):
        """1,024 trunks of 16 MiB are 16 GiB in one private anonymous
        map, which the kernel's heuristic overcommit refuses on a box
        with less RAM unless it is mapped ``MAP_NORESERVE``.  Starts no
        thread and no process."""
        config = ClusterConfig(trunk_bits=10,
                               memory=MemoryParams(trunk_size=16 << 20))
        cloud = MemoryCloud(config, MetricsRegistry())
        try:
            assert sum(map(len, (t.storage for t in cloud.trunks.values()))
                       ) == 16 << 30
            cloud.put(5, b"five")
            assert cloud.get(5) == b"five"
            assert cloud.bulk_get([5]) == [b"five"]
        finally:
            cloud.release_arenas()
        with pytest.raises(MemoryCloudError, match="after close"):
            cloud.get(5)

    @pytest.mark.parametrize("trunk_size", [64 * 1024, 4100])
    def test_trunks_are_slices_of_one_arena(self, trunk_size):
        """A slice starts on a page, so it can be released on its own;
        a trunk size that is not a whole page leaves a gap after it."""
        cloud = make_cloud(trunk_size)
        try:
            stride = slice_stride(trunk_size)
            assert stride % os.sysconf("SC_PAGE_SIZE") == 0
            assert stride >= trunk_size
            [arena] = {id(t.storage.arena): t.storage.arena
                       for t in cloud.trunks.values()}.values()
            assert len(arena.buf) == len(cloud.trunks) * stride
            assert [t.storage.base for t in cloud.trunks.values()] == [
                t * stride for t in cloud.trunks]
        finally:
            cloud.release_arenas()


def make_cloud(trunk_size: int = 64 * 1024) -> MemoryCloud:
    page = 4 if trunk_size % 1024 else 1024
    return MemoryCloud(ClusterConfig(machines=2, trunk_bits=2, memory=(
        MemoryParams(trunk_size=trunk_size, page_size=page))),
        MetricsRegistry())


def fill(cloud: MemoryCloud, trunk_id: int, count: int, size: int) -> list:
    """``count`` cells of ``size`` bytes put into trunk ``trunk_id``."""
    bits = cloud.config.trunk_bits
    uids = [uid for uid in range(40 * count)
            if trunk_of(uid, bits) == trunk_id][:count]
    for uid in uids:
        cloud.put(uid, bytes([uid % 251 or 1]) * size)
    return uids


class TestSliceReuse:
    """A replaced trunk's successor starts on the same slice of the
    arena, released first: nothing of the old cells leaks into it, and
    no other trunk's bytes move."""

    @pytest.mark.parametrize("trunk_size", [64 * 1024, 4100])
    def test_an_emptied_successor_reads_as_zeros(self, trunk_size):
        cloud = make_cloud(trunk_size)
        try:
            uids = {trunk_id: fill(cloud, trunk_id, 20, trunk_size // 40)
                    for trunk_id in cloud.trunks}
            neighbours = {t: cloud.trunks[t].storage.as_ndarray().copy()
                          for t in (0, 2)}
            old = cloud.trunks[1]
            fresh = cloud.replace_trunk(1)
            assert fresh.storage.base == old.storage.base
            assert not fresh.storage.as_ndarray().any()
            for t, before in neighbours.items():
                assert np.array_equal(cloud.trunks[t].storage.as_ndarray(),
                                      before)
            # the old trunk can no longer reach the slice it had
            for use in (lambda uid: old.get(uid),
                        lambda uid: old.put(uid, b"stale write")):
                with pytest.raises(MemoryCloudError, match="after close"):
                    use(uids[1][0])
            assert not fresh.storage.as_ndarray().any()
        finally:
            cloud.release_arenas()

    def test_a_smaller_adopted_image_leaves_zeros_past_its_pages(self):
        source, cloud = make_cloud(), make_cloud()
        try:
            fill(source, 1, 5, 300)
            image = persistence.trunk_to_bytes(source.trunks[1])
            fill(cloud, 1, 150, 400)        # far more than the image holds
            neighbours = {t: cloud.trunks[t].storage.as_ndarray().copy()
                          for t in (0, 2)}
            persistence.adopt_trunk_image(cloud, 1, image)
            state = source.trunks[1].freeze_image_state()
            page = cloud.config.memory.page_size
            expected = np.zeros(len(cloud.trunks[1].storage), dtype=np.uint8)
            for index, raw in zip(state["pages"], state["raw"]):
                expected[index * page:index * page + len(raw)] = list(raw)
            assert np.array_equal(cloud.trunks[1].storage.as_ndarray(),
                                  expected)
            assert (dict(cloud.trunks[1].dump_cells())
                    == dict(source.trunks[1].dump_cells()))
            for t, before in neighbours.items():
                assert np.array_equal(cloud.trunks[t].storage.as_ndarray(),
                                      before)
        finally:
            source.release_arenas()
            cloud.release_arenas()

    def test_a_pinned_view_is_not_writable_after_its_block(self):
        cloud = make_cloud()
        try:
            [uid] = fill(cloud, 1, 1, 32)
            with cloud.pin(uid) as view:
                view[:4] = b"held"
            with pytest.raises(ValueError):
                view[:4] = b"late"
            cloud.replace_trunk(1)
            with pytest.raises(ValueError):
                view[:4] = b"late"
            assert not cloud.trunks[1].storage.as_ndarray().any()
        finally:
            cloud.release_arenas()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status (Linux)")
def test_default_cloud_commits_on_touch():
    """256 x 4 MiB of trunks are reserved, not zero-filled: a default
    cloud holding 1,000 small cells stays far below its 1 GiB of address
    space.  Measured in a fresh interpreter by its own ``VmHWM`` (an
    eager arena peaks above 1,000 MiB here).  Not ``ru_maxrss``: Linux
    carries that across fork + exec, so the child would report the test
    runner's peak whenever it is the larger."""
    program = textwrap.dedent("""
        from repro.config import ClusterConfig
        from repro.memcloud import MemoryCloud
        cloud = MemoryCloud(ClusterConfig())
        assert sum(len(t.storage) for t in cloud.trunks.values()) == 1 << 30
        for uid in range(1000):
            cloud.put(uid, b"cell" * 8)
        assert cloud.get(999) == b"cell" * 8
        with open("/proc/self/status") as status:
            [peak_kb] = [line.split()[1] for line in status
                         if line.startswith("VmHWM:")]
        print(int(peak_kb) // 1024)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", program], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    assert int(out.stdout) < 128, f"peak RSS {out.stdout.strip()} MiB"
