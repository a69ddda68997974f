"""Where a BSP run's host time goes: ``perf_counter`` around the seams.

    python benchmarks/bsp_seams.py [--src DIR] [--scale 16] [--runs 8]

Times ``BspEngine.run`` for the four shipped programs on the spine's
graph (R-MAT, degree 8, seed 42, 4 machines) and, inside it,
``_compute_machines`` (the kernels), ``_flush_deferred_sends`` (the
barrier), ``_FastState.build_plan`` and ``_fold_into`` (both inside the
flush), by wrapping the methods — no profiler, which misreads this code
(DESIGN.md §12).  ``--src`` points at another checkout's ``src`` so a
parent commit can be timed by the same script; a seam that checkout
lacks is left out.  Means over ``--runs`` runs after one warm-up run;
this is the source of the tables in DESIGN.md §12, not a benchmark the
driver runs.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(
        pathlib.Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--scale", type=int, default=16)
    parser.add_argument("--runs", type=int, default=8)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    import numpy as np

    from repro.algorithms import BfsProgram, PageRankProgram, SsspProgram
    from repro.algorithms.wcc import WccProgram
    from repro.compute import bsp
    from repro.generators import rmat_edges
    from repro.graph import CsrTopology

    totals: dict[str, float] = {}

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
        setattr(owner, name, wrapper)

    timed(bsp.BspEngine, "_compute_machines", "kernels")
    timed(bsp.BspEngine, "_flush_deferred_sends", "flush")
    timed(bsp.BspEngine, "_fold_into", "fold")
    timed(bsp._FastState, "build_plan", "plan_build")

    edges = rmat_edges(args.scale, avg_degree=8, seed=42)
    topology = CsrTopology.from_arrays(edges, machines=4,
                                       num_nodes=1 << args.scale)
    weights = np.random.default_rng(3).uniform(0.5, 4.0,
                                               size=topology.num_edges)
    programs = {
        "pagerank": lambda: PageRankProgram(iterations=10),
        "bfs": lambda: BfsProgram(root=0),
        "sssp": lambda: SsspProgram(root=0, edge_weights=weights),
        "wcc": lambda: WccProgram(),
    }
    print(f"scale {args.scale}: {topology.n} vertices, "
          f"{topology.num_edges} edges; mean ms per run over {args.runs}")
    for name, make in programs.items():
        engine = bsp.BspEngine(topology)
        result = engine.run(make())
        totals.clear()
        start = time.perf_counter()
        for _ in range(args.runs):
            engine.run(make())
        wall = (time.perf_counter() - start) / args.runs * 1e3
        parts = "  ".join(
            f"{key} {seconds / args.runs * 1e3:6.1f} "
            f"({seconds / args.runs * 1e3 / wall:4.0%})"
            for key, seconds in sorted(totals.items()))
        print(f"{name:9s} {result.superstep_count:2d} supersteps  "
              f"run {wall:6.1f}  {parts}")


if __name__ == "__main__":
    main()
