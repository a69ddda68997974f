"""Wall-clock benchmark: vectorized BSP fast path vs per-vertex reference.

Not a pytest benchmark (hence the underscore — the collector skips it):
this harness measures **real** wall-clock seconds, best-of-k, on seeded
R-MAT graphs, and asserts along the way that the two paths stay
bit-identical in values and identical in simulated-time/traffic
accounting.  Results land in ``benchmarks/results/BENCH_bsp.json``.

``--parallel`` instead benchmarks the execution backends — in-process vs
the shared-memory worker-process backend across worker counts, for both
BSP workloads and the bulk graph load — into
``benchmarks/results/BENCH_parallel.json``.  Bit-identity between the
backends is asserted on every run, and one extra shared-memory run per
workload executes with ``cross_check=True`` (the scalar reference
replay).  The recorded numbers are honest about the host: the JSON
carries ``cpus``, and on a single-core runner the fork/IPC overhead
makes the parallel backend *slower* — the point of the benchmark is the
trend across hosts, not a guaranteed speedup.

Usage::

    PYTHONPATH=src python benchmarks/_perf.py            # full run
    PYTHONPATH=src python benchmarks/_perf.py --smoke    # CI-sized run
    PYTHONPATH=src python benchmarks/_perf.py --parallel [--smoke]

``--smoke`` also compares against the committed baseline JSON and prints
a GitHub Actions ``::warning::`` (never a failure) when the measured
speedup (or backend overhead ratio, for ``--parallel``) regressed by
more than 2x.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms.bfs import BfsProgram               # noqa: E402
from repro.algorithms.pagerank import PageRankProgram     # noqa: E402
from repro.algorithms.sssp import SsspProgram             # noqa: E402
from repro.algorithms.wcc import WccProgram               # noqa: E402
from repro.compute import BspEngine                       # noqa: E402
from repro.config import ClusterConfig                    # noqa: E402
from repro.generators import rmat_edges                   # noqa: E402
from repro.graph import (                                 # noqa: E402
    CsrTopology, GraphBuilder, plain_graph_schema,
)
from repro.memcloud import MemoryCloud                    # noqa: E402
from repro.net.simnet import SimNetwork                   # noqa: E402
from repro.obs import MetricsRegistry                     # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_PATH = RESULTS_DIR / "BENCH_bsp.json"
PARALLEL_PATH = RESULTS_DIR / "BENCH_parallel.json"

MACHINES = 4
SEED = 42


def _programs():
    return {
        "pagerank_10iter": lambda: PageRankProgram(iterations=10),
        "bfs": lambda: BfsProgram(root=0),
        "sssp_unit": lambda: SsspProgram(root=0),
        "wcc": lambda: WccProgram(),
    }


def _time_run(topology, make_program, vectorize: bool, repeats: int):
    """Best-of-``repeats`` wall time; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        engine = BspEngine(
            topology,
            network=SimNetwork(registry=MetricsRegistry()),
            vectorize=vectorize,
        )
        program = make_program()
        start = time.perf_counter()
        run = engine.run(program, max_supersteps=200)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            result = run
    return best, result


def _assert_identical(name: str, fast, reference) -> None:
    fast_values = np.asarray(fast.values)
    reference_values = np.asarray(reference.values,
                                  dtype=fast_values.dtype)
    if not np.array_equal(reference_values, fast_values):
        raise AssertionError(f"{name}: values diverge between paths")
    if fast.supersteps != reference.supersteps:
        raise AssertionError(
            f"{name}: superstep reports diverge between paths"
        )


def run_bench(scale: int, avg_degree: int, repeats: int) -> dict:
    edges = rmat_edges(scale=scale, avg_degree=avg_degree, seed=SEED)
    topology = CsrTopology.from_arrays(edges, machines=MACHINES)
    print(f"graph: rmat scale={scale} n={topology.n} "
          f"edges={topology.num_edges} machines={MACHINES}")

    bench = {
        "graph": {
            "generator": "rmat",
            "scale": scale,
            "avg_degree": avg_degree,
            "seed": SEED,
            "nodes": topology.n,
            "edges": topology.num_edges,
            "machines": MACHINES,
        },
        "repeats": repeats,
        "python": platform.python_version(),
        "results": {},
    }
    for name, make_program in _programs().items():
        fast_s, fast = _time_run(topology, make_program, True, repeats)
        ref_s, reference = _time_run(topology, make_program, False, repeats)
        _assert_identical(name, fast, reference)
        speedup = ref_s / fast_s if fast_s else float("inf")
        bench["results"][name] = {
            "vectorized_seconds": fast_s,
            "reference_seconds": ref_s,
            "speedup": speedup,
            "supersteps": fast.superstep_count,
            "simulated_seconds": fast.elapsed,
        }
        print(f"{name:16s} vectorized {fast_s * 1e3:9.1f} ms   "
              f"reference {ref_s * 1e3:9.1f} ms   "
              f"speedup {speedup:6.2f}x   "
              f"supersteps {fast.superstep_count}")
    return bench


def _time_backend(topology, make_program, backend, workers, repeats,
                  cross_check=False):
    """Best-of-``repeats`` wall time for one execution backend."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        engine = BspEngine(
            topology,
            network=SimNetwork(registry=MetricsRegistry()),
            backend=backend,
            workers=workers,
            cross_check=cross_check,
        )
        program = make_program()
        start = time.perf_counter()
        run = engine.run(program, max_supersteps=200)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            result = run
    return best, result


def _time_bulk_load(edges, backend, workers, repeats):
    """Best-of-``repeats`` wall time for a full bulk graph load."""
    best = float("inf")
    last_cloud = None
    for _ in range(repeats):
        config = ClusterConfig(machines=MACHINES, trunk_bits=6)
        cloud = MemoryCloud(config, registry=MetricsRegistry(),
                            shared_arenas=backend == "shared_memory")
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges(edges)
        start = time.perf_counter()
        builder.finalize(backend=backend, workers=workers)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        if last_cloud is not None and getattr(
                last_cloud, "arenas_shared", False):
            last_cloud.release_arenas()
        last_cloud = cloud
    return best, last_cloud


def run_parallel_bench(scale: int, avg_degree: int, repeats: int,
                       worker_counts: tuple) -> dict:
    edges = rmat_edges(scale=scale, avg_degree=avg_degree, seed=SEED)
    topology = CsrTopology.from_arrays(edges, machines=MACHINES)
    print(f"graph: rmat scale={scale} n={topology.n} "
          f"edges={topology.num_edges} machines={MACHINES} "
          f"cpus={os.cpu_count()}")

    bench = {
        "graph": {
            "generator": "rmat",
            "scale": scale,
            "avg_degree": avg_degree,
            "seed": SEED,
            "nodes": topology.n,
            "edges": topology.num_edges,
            "machines": MACHINES,
        },
        "repeats": repeats,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "worker_counts": list(worker_counts),
        "results": {},
    }
    for name, make_program in _programs().items():
        inproc_s, inproc = _time_backend(
            topology, make_program, "in_process", None, repeats)
        entry = {
            "in_process_seconds": inproc_s,
            "shared_memory_seconds": {},
            "overhead_ratio": {},
            "supersteps": inproc.superstep_count,
            "simulated_seconds": inproc.elapsed,
        }
        for workers in worker_counts:
            shm_s, shm = _time_backend(
                topology, make_program, "shared_memory", workers, repeats)
            _assert_identical(f"{name}[workers={workers}]", shm, inproc)
            ratio = shm_s / inproc_s if inproc_s else float("inf")
            entry["shared_memory_seconds"][str(workers)] = shm_s
            entry["overhead_ratio"][str(workers)] = ratio
            print(f"{name:16s} in_process {inproc_s * 1e3:8.1f} ms   "
                  f"shm[{workers}] {shm_s * 1e3:8.1f} ms   "
                  f"ratio {ratio:5.2f}x")
        # One untimed paranoia run: the scalar reference engine replays
        # every superstep of the worker-process run and must agree.
        _, checked = _time_backend(
            topology, make_program, "shared_memory", max(worker_counts),
            1, cross_check=True)
        _assert_identical(f"{name}[cross_check]", checked, inproc)
        bench["results"][name] = entry

    load_repeats = max(1, repeats - 1)
    inproc_s, _ = _time_bulk_load(edges, "in_process", None, load_repeats)
    entry = {
        "in_process_seconds": inproc_s,
        "shared_memory_seconds": {},
        "overhead_ratio": {},
    }
    for workers in worker_counts:
        shm_s, cloud = _time_bulk_load(
            edges, "shared_memory", workers, load_repeats)
        if cloud is not None and getattr(cloud, "arenas_shared", False):
            cloud.release_arenas()
        ratio = shm_s / inproc_s if inproc_s else float("inf")
        entry["shared_memory_seconds"][str(workers)] = shm_s
        entry["overhead_ratio"][str(workers)] = ratio
        print(f"{'bulk_load':16s} in_process {inproc_s * 1e3:8.1f} ms   "
              f"shm[{workers}] {shm_s * 1e3:8.1f} ms   "
              f"ratio {ratio:5.2f}x")
    bench["results"]["bulk_load"] = entry
    return bench


def check_parallel_regression(bench: dict,
                              baseline_path: pathlib.Path) -> None:
    """Warn when the shm/in-process ratio worsened >2x vs the baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return
    baseline = json.loads(baseline_path.read_text())
    for name, entry in bench["results"].items():
        base = baseline.get("results", {}).get(name)
        if not base:
            continue
        for workers, ratio in entry["overhead_ratio"].items():
            base_ratio = base.get("overhead_ratio", {}).get(workers)
            if base_ratio and ratio > base_ratio * 2.0:
                print(f"::warning::perf-smoke: {name} shared-memory "
                      f"overhead with {workers} workers is "
                      f"{ratio:.2f}x in-process, more than 2x worse "
                      f"than the committed baseline {base_ratio:.2f}x")


def check_regression(bench: dict, baseline_path: pathlib.Path) -> None:
    """Warn (never fail) when a speedup regressed >2x vs the baseline."""
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; skipping regression check")
        return
    baseline = json.loads(baseline_path.read_text())
    for name, entry in bench["results"].items():
        base = baseline.get("results", {}).get(name)
        if not base:
            continue
        if entry["speedup"] * 2.0 < base["speedup"]:
            print(f"::warning::perf-smoke: {name} speedup "
                  f"{entry['speedup']:.2f}x is more than 2x below the "
                  f"committed baseline {base['speedup']:.2f}x")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized graph; compares against the "
                             "committed baseline and warns on regression")
    parser.add_argument("--parallel", action="store_true",
                        help="benchmark execution backends (in-process vs "
                             "shared-memory workers) instead of "
                             "vectorized-vs-reference")
    parser.add_argument("--scale", type=int, default=None,
                        help="override R-MAT scale (2^scale nodes)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-k repetitions (default 3, smoke 2)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="output JSON path (default BENCH_bsp.json; "
                             "smoke writes BENCH_bsp_smoke.json)")
    args = parser.parse_args()

    scale = args.scale or (10 if args.smoke else 14)
    repeats = args.repeats or (2 if args.smoke else 3)
    if args.parallel:
        worker_counts = (2,) if args.smoke else (1, 2, 4)
        bench = run_parallel_bench(scale=scale, avg_degree=8,
                                   repeats=repeats,
                                   worker_counts=worker_counts)
        out = args.out or (RESULTS_DIR / "BENCH_parallel_smoke.json"
                           if args.smoke else PARALLEL_PATH)
        if args.smoke:
            check_parallel_regression(bench, out)
    else:
        bench = run_bench(scale=scale, avg_degree=8, repeats=repeats)
        out = args.out or (RESULTS_DIR / "BENCH_bsp_smoke.json"
                           if args.smoke else BENCH_PATH)
        if args.smoke:
            # Compare against the committed smoke baseline (same scale)
            # before overwriting it.
            check_regression(bench, out)
    RESULTS_DIR.mkdir(exist_ok=True)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
