"""Where a paged query goes: ``perf_counter`` around the page-table seams.

    python benchmarks/paged_seams.py [--src DIR] [--blocks 3] [--seed 42] [--smoke]

Runs the spine's ``serve_cold_paged`` workload in this process (its
graph, its request stream, four resident pages per trunk; block 0 is a
warm-up, the next ``--blocks`` are timed) and wraps the batched read's
seams — no profiler:

* ``MemoryCloud.bulk_get_spans``, the whole span fetch;
* ``MemoryTrunk.open_spans``, one trunk's share of it, and inside that
  the page computation (``PagedStorage.span_pages``), the page-table
  walk and the drop of its victims (``_walk`` / ``_drop``) and the copy
  of the pages: ``PagedStorage.open_spans`` less its walk and drop, at
  a checkout whose every paged read copies into one read-wide buffer;
  the over-budget fallback ``_copy_pages`` at one that pinned or copied;
* ``BatchStructDecoder._decode``, the columnar decode, with its calls per
  block: one per read when a read's trunks share one buffer, one per
  trunk touched when they do not;
* ``Graph._read_batch``, the whole batched read those sit in, and
  ``SpanGroup.close`` at a checkout that still released span pins.

``--src`` points at another checkout's ``src`` so a parent commit can be
timed by the same script; a seam that checkout lacks is left out.  This
is the source of the seam table in DESIGN.md §14, not part of the
benchmark spine.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(HERE.parent / "src"))
    parser.add_argument("--blocks", type=int, default=3)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(HERE / "spine"))
    sys.path.insert(0, args.src)

    from repro.graph.api import Graph
    from repro.memcloud import cloud as cloud_module
    from repro.memcloud import trunk as trunk_module
    from repro.memcloud.storage import PagedStorage
    from repro.tsl.batch import BatchStructDecoder
    from workloads import WORKLOADS

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(owner, name: str, key: str) -> None:
        inner = owner.__dict__.get(name)
        if inner is None:
            return

        def wrapper(*call_args, **call_kwargs):
            start = time.perf_counter()
            try:
                return inner(*call_args, **call_kwargs)
            finally:
                totals[key] = (totals.get(key, 0.0)
                               + time.perf_counter() - start)
                calls[key] = calls.get(key, 0) + 1
        setattr(owner, name, wrapper)

    timed(Graph, "_read_batch", "read")
    timed(cloud_module.SpanGroup, "close", "close")
    timed(cloud_module.MemoryCloud, "bulk_get_spans", "span fetch")
    timed(trunk_module.MemoryTrunk, "open_spans", "open_spans")
    timed(PagedStorage, "span_pages", "pages")
    timed(PagedStorage, "_span_pages", "pages")
    timed(PagedStorage, "_walk", "walk")
    timed(PagedStorage, "_drop", "drop")
    timed(PagedStorage, "_copy_pages", "copy")
    if "_copy_pages" not in PagedStorage.__dict__:
        timed(PagedStorage, "open_spans", "storage")
    timed(BatchStructDecoder, "_decode", "decode")

    workload = WORKLOADS["serve_cold_paged"](args.seed, args.smoke)
    workload.setup()
    try:
        workload.run_block(0)
        totals.clear()
        calls.clear()
        walls = [workload.run_block(1 + index).wall
                 for index in range(args.blocks)]
    finally:
        workload.teardown()

    totals["walk + drop"] = totals["walk"] + totals["drop"]
    if "storage" in totals:     # the copy is what the read adds to its walk
        totals["copy"] = totals.pop("storage") - totals["walk + drop"]
    block_ms = sum(walls) / args.blocks * 1e3
    print(f"serve_cold_paged seed {args.seed}: {workload.nodes} nodes, "
          f"{workload.edges} edges; mean ms per block over {args.blocks} "
          f"(after block 0): {block_ms:.1f}")
    for key in ("read", "span fetch", "open_spans", "pages", "walk", "drop",
                "walk + drop", "copy", "decode", "close"):
        if key in totals:
            per_block = totals[key] / args.blocks * 1e3
            count = (f"{calls[key] / args.blocks:8.0f} calls"
                     if key in calls else "")
            print(f"  {key:12s} {per_block:7.1f}  "
                  f"({per_block / block_ms:4.0%}) {count}")


if __name__ == "__main__":
    main()
