"""Where a served read goes: ``perf_counter`` around the per-trunk seams.

    python benchmarks/read_seams.py [--src DIR] [--workload serve_rw]
                                    [--blocks 3] [--seed 42] [--smoke]

Runs a spine serve workload (``serve_rw`` by default, or ``serve_cold``)
in this process — its graph, its request stream and its writes; block 0
is a warm-up, the next ``--blocks`` are timed — and wraps the seams a
fusion window's reads and cache checks pass through — no profiler:

* the batched read, ``MemoryCloud.bulk_get_spans`` (``fetch``), and
  inside it the routing pass (``_route``), the span directory's refresh
  of stale regions and its probe pass, the word computation
  (``word_spans``) and the one ``take`` of the arena's words (timed
  through a ``frombuffer`` that hands back a timed array).  A read of
  one field cuts its spans to the field first (``clip``, the decoder's
  ``BatchStructDecoder.clip``), reading the fields' length bytes from
  the arena (``header take``, inside ``clip``).  What the fetch spends
  besides those is ``lock + charge``: taking every touched trunk's
  mutex and charging its table, with the buffer allocation, counters
  and the ``SpanRead`` itself;
* ``SpanRead.assert_fresh``, the staleness check after the decode;
* ``MemoryCloud.epoch_vector``, read once per drain and per write;
* the caches: the result cache's ``put`` (its stamp), the hub cache's
  ``get_many`` and ``put`` (a per-entry ``get`` is left unwrapped:
  ``get_many`` calls it once per candidate, inside its own time);
* the executor's ``run_window``, and the scheduler's window less it
  (``window, rest``: admission, plan steps, folding each op's footprint
  into its ticket, completion).

Each seam is reported in ms per block, with its calls per block.  The
block's wall (what the spine's ``ops_per_s`` divides) is printed first,
so a parent and a change can be compared seam by seam: ``--src`` points
at another checkout's ``src``; a seam that checkout lacks is left out.
Last come the bytes the reads copied per block
(``memcloud.cloud.read_buffer_bytes``), split by the field each
``Graph`` batch read decoded, with the bytes per cell read.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent

#: Printed in this order; the fetch's parts are indented under it.
ROWS = ("fetch", "  route", "  refresh", "  probe", "  clip",
        "    header take", "  words", "  take", "  lock + charge",
        "assert_fresh", "epoch_vector", "result put", "hub get_many",
        "hub put", "run_window", "window, rest")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    parser.add_argument("--workload", default="serve_rw",
                        choices=("serve_rw", "serve_cold"))
    parser.add_argument("--blocks", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE / "spine"))
    sys.path.insert(0, args.src)

    import numpy as np

    import repro.memcloud.cloud as cloud_module
    import repro.tsl.batch as batch_module
    from repro.graph.api import Graph
    from repro.memcloud import MemoryCloud
    from repro.memcloud.directory import SpanDirectory
    from repro.serve.caches import EpochLruCache
    from repro.serve.fusion import FusedExecutor
    from repro.serve.scheduler import QueryServer
    from repro.tsl.batch import BatchStructDecoder
    from workloads import WORKLOADS

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    copied: dict[str, list] = {}    # field -> [buffer bytes, cells]
    clipping = [False]              # inside a read's clip

    def add(key: str, seconds: float) -> None:
        totals[key] = totals.get(key, 0.0) + seconds
        calls[key] = calls.get(key, 0) + 1

    def timed(owner, name: str, key, module: bool = False) -> None:
        """Wrap ``owner.name``; ``key`` is a row name, or a function of
        the call's first argument (a cache's name picks its row)."""
        inner = (getattr(owner, name, None) if module
                 else owner.__dict__.get(name))
        if inner is None:
            return

        def wrapper(*call_args, **call_kwargs):
            start = time.perf_counter()
            try:
                return inner(*call_args, **call_kwargs)
            finally:
                add(key(call_args[0]) if callable(key) else key,
                    time.perf_counter() - start)
        setattr(owner, name, wrapper)

    class TimedWords(np.ndarray):
        """The arena's words as the fetch sees them: ``take`` is timed."""

        def take(self, *take_args, **take_kwargs):
            start = time.perf_counter()
            try:
                return np.ndarray.take(self.view(np.ndarray), *take_args,
                                       **take_kwargs)
            finally:
                add("  take", time.perf_counter() - start)

    class NumpyWithTimedWords:
        """``numpy`` for the cloud module, but ``frombuffer`` of the arena
        hands back :class:`TimedWords`."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def frombuffer(*buffer_args, **buffer_kwargs):
            return np.frombuffer(*buffer_args,
                                 **buffer_kwargs).view(TimedWords)

    def timed_clip(inner):
        """A decoder's clip, run over the plain (untimed) arena bytes."""
        def clip(buf, starts, limits):
            clipping[0] = True
            start = time.perf_counter()
            try:
                return inner(buf.view(np.ndarray), starts, limits)
            finally:
                add("  clip", time.perf_counter() - start)
                clipping[0] = False
        return clip

    def timed_header(inner):
        """``read_varints``, timed as the header take inside a clip."""
        def read_varints(*varint_args):
            if not clipping[0]:
                return inner(*varint_args)
            start = time.perf_counter()
            try:
                return inner(*varint_args)
            finally:
                add("    header take", time.perf_counter() - start)
        return read_varints

    def counted(inner):
        """``Graph._read_batch``, adding what its read copied to its
        field's row."""
        def read_batch(graph, node_ids, field_name, *rest, **kwargs):
            obs = graph.cloud.obs
            meters = (obs.counter("memcloud.cloud.read_buffer_bytes"),
                      obs.counter("memcloud.bulk.get.cells"))
            before = [meter.value for meter in meters]
            try:
                return inner(graph, node_ids, field_name, *rest, **kwargs)
            finally:
                row = copied.setdefault(field_name, [0, 0])
                for k, meter in enumerate(meters):
                    row[k] += meter.value - before[k]
        return read_batch

    cloud_module.np = NumpyWithTimedWords()
    if hasattr(BatchStructDecoder, "clip"):
        batch_module.read_varints = timed_header(batch_module.read_varints)
        plain_clip = BatchStructDecoder.clip

        def clip_of(decoder, field_name):
            step = plain_clip(decoder, field_name)
            return None if step is None else timed_clip(step)
        BatchStructDecoder.clip = clip_of
    Graph._read_batch = counted(Graph._read_batch)
    timed(MemoryCloud, "bulk_get_spans", "fetch")
    timed(MemoryCloud, "_route", "  route")
    timed(SpanDirectory, "refresh", "  refresh")
    timed(SpanDirectory, "probe", "  probe")
    timed(cloud_module, "word_spans", "  words", module=True)
    timed(cloud_module.SpanRead, "assert_fresh", "assert_fresh")
    timed(MemoryCloud, "epoch_vector", "epoch_vector")
    timed(EpochLruCache, "put", lambda cache: f"{cache.name} put")
    timed(EpochLruCache, "get_many", lambda cache: f"{cache.name} get_many")
    timed(FusedExecutor, "run_window", "run_window")
    timed(QueryServer, "_window", "window")

    workload = WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup()
    try:
        workload.run_block(0)
        totals.clear()
        calls.clear()
        copied.clear()
        blocks = [workload.run_block(1 + index) for index in range(args.blocks)]
    finally:
        workload.teardown()

    fetch_parts = ("  route", "  refresh", "  probe", "  clip", "  words",
                   "  take")
    if "fetch" in totals:
        totals["  lock + charge"] = totals["fetch"] - sum(
            totals.get(key, 0.0) for key in fetch_parts)
    if "window" in totals:
        totals["window, rest"] = (totals.pop("window")
                                  - totals.get("run_window", 0.0))
    block_ms = sum(block.wall for block in blocks) / args.blocks * 1e3
    ops = sum(block.ops for block in blocks) / args.blocks
    print(f"{args.workload} seed {args.seed}: {workload.nodes} nodes, "
          f"{workload.edges} edges; per block over {args.blocks} (after "
          f"block 0): {block_ms:.1f} ms wall, {ops:.0f} ops, "
          f"{ops / block_ms * 1e3:.0f} ops/s")
    for key in ROWS:
        if key in totals:
            per_block = totals[key] / args.blocks * 1e3
            count = (f"{calls[key] / args.blocks:8.0f} calls"
                     if key in calls else "")
            print(f"  {key:20s} {per_block:8.2f}  "
                  f"({per_block / block_ms:5.1%}) {count}")
    print("read_buffer_bytes per block, by field read:")
    for field_name, (nbytes, cells) in sorted(copied.items()):
        print(f"  {field_name:20s} {nbytes / args.blocks / 1e3:10.1f} kB  "
              f"({nbytes / max(cells, 1):6.1f} B a cell)")


if __name__ == "__main__":
    main()
