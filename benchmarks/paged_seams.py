"""Where a paged query goes: ``perf_counter`` around the page-table seams.

    python benchmarks/paged_seams.py [--src DIR] [--blocks 3] [--seed 42] [--smoke]

Runs the spine's ``serve_cold_paged`` workload in this process (its
graph, its request stream, four resident pages per trunk; block 0 is a
warm-up, the next ``--blocks`` are timed) and wraps
``MemoryTrunk.open_spans`` and, inside it, the page computation
(``PagedStorage._span_pages``), the page-table walk and the drop of its
victims (``_walk`` / ``_drop``; at a checkout that still evicts inside
``pin_spans`` the two cannot be told apart and are ``pin_spans`` minus
the page computation) and the over-budget fallback copy
(``_copy_pages``, or the ``gather_ranges`` the trunk module used to
call) — no profiler.  ``--src`` points at another checkout's ``src`` so
a parent commit can be timed by the same script; a seam that checkout
lacks is left out.  Then one sparse batch — a 30-byte cell on each of
64 pages, adjacent and every other page — is copied both ways on the
same input, so the page copy's worst shape reads beside the
byte-granular gather's.  This is the source of the seam table in
DESIGN.md §14, not a benchmark the driver runs.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
import timeit

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

    import numpy as np

    from repro.config import MemoryParams
    from repro.memcloud import trunk as trunk_module
    from repro.memcloud.storage import PagedStorage
    from repro.obs import MetricsRegistry
    from repro.utils.arrays import gather_ranges
    from workloads import WORKLOADS

    totals: dict[str, float] = {}
    calls: dict[str, int] = {}

    def timed(owner, name: str, key: str) -> None:
        inner = getattr(owner, name, None)
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

    timed(trunk_module.MemoryTrunk, "open_spans", "open_spans")
    timed(PagedStorage, "pin_spans", "pin_spans")
    timed(PagedStorage, "_span_pages", "pages")
    timed(PagedStorage, "_walk", "walk")
    timed(PagedStorage, "_drop", "drop")
    timed(PagedStorage, "_copy_pages", "copy")
    timed(trunk_module, "gather_ranges", "copy")

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

    if "pin_spans" in totals:
        totals["walk + drop"] = totals.pop("pin_spans") - totals["pages"]
    else:
        totals["walk + drop"] = totals["walk"] + totals["drop"]
    block_ms = sum(walls) / args.blocks * 1e3
    print(f"serve_cold_paged seed {args.seed}: {workload.nodes} nodes, "
          f"{workload.edges} edges; mean ms per block over {args.blocks} "
          f"(after block 0): {block_ms:.1f}")
    for key in ("open_spans", "pages", "walk", "drop", "walk + drop",
                "copy"):
        if key in totals:
            per_block = totals[key] / args.blocks * 1e3
            count = (f"{calls[key] / args.blocks:8.0f} calls"
                     if key in calls else "")
            print(f"  {key:12s} {per_block:7.1f}  "
                  f"({per_block / block_ms:4.0%}) {count}")

    # The sparse batch: the page copy moves whole pages to serve 30
    # bytes of each, the gather moves 30 bytes through an 8-byte index.
    params = MemoryParams(trunk_size=1 << 20, storage="paged", page_budget=4)
    storage = PagedStorage(0, params, registry=MetricsRegistry())
    try:
        page = params.storage_page_size
        arena = storage.as_ndarray()
        arena[:] = np.arange(len(arena), dtype=np.uint8)
        copy_pages = getattr(storage, "_copy_pages", None)
        for label, stride in (("adjacent", 1), ("every other", 2)):
            starts = np.arange(64, dtype=np.int64) * (stride * page) + 100
            limits = starts + 30
            sizes = limits - starts
            line = f"sparse, 64 pages {label:11s}"
            gathered = clock(lambda: gather_ranges(arena, starts, sizes))
            line += f"  gather_ranges {gathered:6.1f} us"
            if copy_pages is not None:
                pages = storage._span_pages(starts, limits)
                copied = clock(lambda: copy_pages(pages, starts, limits))
                line += (f"  page copy {copied:6.1f} us "
                         f"({len(copy_pages(pages, starts, limits)[0])} B)")
            print(line)
        del arena
    finally:
        storage.close()


def clock(function, repeats: int = 200) -> float:
    """Best-of-5 mean microseconds of ``function()`` over ``repeats``."""
    best = min(timeit.repeat(function, number=repeats, repeat=5))
    return best / repeats * 1e6


if __name__ == "__main__":
    main()
