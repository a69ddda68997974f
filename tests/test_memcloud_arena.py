"""The trunk arena: one mmap, two backings, one close rule.

What every layer above relies on and a change of backing could lose:
pages cost RAM only once written, an anonymous arena is private across
``fork``, a page file belongs to exactly one arena, and a closed arena
says so.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.errors import MemoryCloudError
from repro.memcloud import Arena


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
