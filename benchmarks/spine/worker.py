"""One workload in one fresh interpreter: set up, gate, timed blocks.

Started by ``run.py`` (never directly by a user); prints one JSON object,
the raw result, as the last line of standard output.  ``metrics.py`` turns
raw results into the named metrics.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse                                         # noqa: E402
import gc                                               # noqa: E402
import json                                             # noqa: E402
import os                                               # noqa: E402
import pathlib                                          # noqa: E402
import resource                                         # noqa: E402
import statistics                                       # noqa: E402
import sys                                              # noqa: E402
import threading                                        # noqa: E402
from collections import defaultdict                     # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
SOURCE = HERE.parent.parent / "src"
if not (SOURCE / "repro").is_dir():
    sys.exit(f"benchmark spine: no program to measure at {SOURCE}/repro")
sys.path.insert(0, str(SOURCE))

import numpy as np                                      # noqa: E402

import reference                                        # noqa: E402
from spans import Tracer                                # noqa: E402
from workloads import (                                 # noqa: E402
    SETUP_REPEATS,
    TRACE_BLOCKS,
    WORKLOADS,
)


def summarize(latencies: dict) -> dict:
    """Per op class: sample count, median, p95, p99 (seconds)."""
    summary = {}
    for cls, values in latencies.items():
        if values:
            p50, p95, p99 = np.percentile(
                np.asarray(values, dtype=np.float64), (50, 95, 99))
            summary[cls] = {"count": len(values), "p50": float(p50),
                            "p95": float(p95), "p99": float(p99)}
    return summary


def growth(now: dict, base: dict) -> dict:
    """``counts`` and ``sums`` since ``base``; ``levels`` as they stand."""
    grown = {"levels": now.get("levels", {})}
    for group in ("counts", "sums"):
        before = base.get(group, {})
        grown[group] = {key: value - before.get(key, 0)
                        for key, value in now.get(group, {}).items()}
    return grown


def run(name: str, seed: int, seconds: float, traced: bool,
        smoke: bool) -> dict:
    tracer = Tracer() if traced else None
    workload = WORKLOADS[name](seed, smoke, tracer)
    import_s = time.perf_counter() - STARTED

    # Set up several times (setup_s is their median); the first state also
    # serves the correctness gate, the last one is measured.  The traced
    # pass sets up once and takes its oracle from the untraced one: same
    # inputs, same answers_digest.  Every set-up and every block has the
    # reference kernel timed before and after it (see reference.py).
    setups = []
    setup_references = []
    gate = None
    repeats = 1 if traced else SETUP_REPEATS
    for repeat in range(repeats):
        mark = reference.sample()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
        setup_references.append((mark + reference.sample()) / 2)
        if repeat == 0 and not traced:
            gate = workload.gate()
        if repeat < repeats - 1:
            workload.teardown()
            # or peak memory depends on when the collector happens to run
            gc.collect()
    workload.first_cycle()
    setup_phases = workload.phases, workload.phases_sys
    workload.phases = defaultdict(list)
    workload.phases_sys = defaultdict(list)

    gc.collect()
    if tracer is not None:
        tracer.reset_totals()
    base = workload.counters()
    blocks = []
    pooled: dict[str, list] = {}
    at_trace = None
    began = time.perf_counter()
    mark = reference.sample()
    while True:
        block = workload.run_block(len(blocks))
        after = reference.sample()
        block.reference_s = (mark + after) / 2
        mark = after
        blocks.append(block)
        for cls, values in block.latencies.items():
            pooled.setdefault(cls, []).extend(values)
        if len(blocks) == TRACE_BLOCKS:
            # what the traced pass (which stops here) must reproduce
            at_trace = {**growth(workload.counters(), base),
                        "digest": workload.digest.hexdigest(),
                        "walls": [reference.on_reference_clock(
                            b.wall, b.reference_s) for b in blocks]}
            if traced:
                break
        if (len(blocks) >= TRACE_BLOCKS
                and time.perf_counter() - began >= seconds):
            break
    measured_s = time.perf_counter() - began

    requests = [v for cls, values in pooled.items() if cls != "write"
                for v in values]
    result = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "smoke": smoke,
        "size": workload.size,
        "edges": workload.edges,
        "import_s": import_s,
        "setup_s": setups,
        "setup_reference_s": setup_references,
        "phases": setup_phases[0],
        "phases_sys": setup_phases[1],
        "cycle_phases": workload.phases,
        "cycle_phases_sys": workload.phases_sys,
        "first_load": workload.first_load,
        "gate": gate,
        "measured_s": measured_s,
        "blocks": [{"ops": b.ops, "failed": b.failed, "wall": b.wall,
                    "cpu": b.cpu, "reference_s": b.reference_s,
                    **summarize({"lat": b.requests()})["lat"],
                    **b.extra} for b in blocks],
        "attempted": sum(b.ops for b in blocks),
        "failed": sum(b.failed for b in blocks),
        "ops": summarize({"all": requests})["all"],
        "classes": summarize(pooled),
        **growth(workload.counters(), base),
        "at_trace": at_trace,
        "digest": workload.digest.hexdigest(),
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counted": tracer.counted,
            "layer_self_s": tracer.layer_self_s(),
            "root_wall_s": sum(
                span[3] - span[2] for span in tracer.spans
                if span[0] == "driver.block"),
            "spans": len(tracer.spans),
            "missing_seam": tracer.missing,
            "superstep_p50_ms": {
                cls: statistics.median(walls) * 1e3
                for cls, walls in workload.superstep_walls.items()},
        }
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace_{name}.json",
                    {"workload": name, "seed": seed, "smoke": smoke})
    workload.teardown()

    # Leave nothing behind: arenas and spill files are released above,
    # temp dirs were removed where they were made, no thread may survive.
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if threads:
        raise RuntimeError(f"threads left running: {threads}")
    result["rss_peak_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["loadavg_end"] = os.getloadavg()[0]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, args.traced,
                 args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
