"""Backend equivalence: real worker processes, bit-identical results.

The shared-memory execution backend runs superstep kernels (and the bulk
loader's encode+store) in forked worker processes over shared mappings.
Everything observable must match the in-process backend **bit for bit**:
vertex values, per-superstep reports (including simulated elapsed time),
aggregators, engine metrics, stored cell bytes, and trunk accounting.
Every shared-memory BSP run here also sets ``cross_check=True``, so the
scalar reference engine replays each superstep and must agree too.

The suite covers four workloads (PageRank, BFS, SSSP, WCC) across
{in_process, shared_memory} x {1, 2, 4} workers, the parallel bulk load,
and checkpoint-restart under an injected fault plan — proving the plan's
draws replay deterministically when real workers are killed and
re-forked at a rollback.
"""

import os

import numpy as np
import pytest

from repro.algorithms import BfsProgram, PageRankProgram, SsspProgram
from repro.algorithms.wcc import WccProgram
from repro.compute import BspEngine, CheckpointManager
from repro.config import ClusterConfig
from repro.faults import FaultPlan
from repro.generators import rmat_edges
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.net import SimNetwork
from repro.obs import MetricsRegistry
from repro.tfs import TrinityFileSystem

MACHINES = 4
WORKER_COUNTS = (1, 2, 4)

PROGRAMS = {
    "pagerank": lambda: PageRankProgram(iterations=6),
    "bfs": lambda: BfsProgram(root=0),
    "sssp": lambda: SsspProgram(root=0),
    "wcc": lambda: WccProgram(),
}


@pytest.fixture(autouse=True)
def dev_shm():
    """The backend's dense state and a shared cloud's arenas are
    anonymous mappings: no case here may leave a segment in /dev/shm
    (the bulk-load cases also check none exists while they run)."""
    before = sorted(os.listdir("/dev/shm"))
    yield before
    assert sorted(os.listdir("/dev/shm")) == before


@pytest.fixture(scope="module")
def topology() -> CsrTopology:
    edges = rmat_edges(scale=9, avg_degree=8, seed=11)
    cloud = MemoryCloud(ClusterConfig(machines=MACHINES, trunk_bits=6))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges)
    return CsrTopology(builder.finalize(), include_inlinks=True)


def run(topology, program, backend="in_process", workers=None,
        cross_check=False, faults=None, checkpoints=None):
    registry = MetricsRegistry()
    engine = BspEngine(
        topology,
        network=SimNetwork(registry=registry),
        cross_check=cross_check,
        faults=faults,
        checkpoints=checkpoints,
        backend=backend,
        workers=workers,
    )
    result = engine.run(program, max_supersteps=40)
    return result, registry


def assert_equivalent(baseline, candidate):
    """Bit-identical values, reports, and aggregators."""
    base = np.asarray(baseline.values)
    cand = np.asarray(candidate.values)
    assert base.dtype == cand.dtype
    assert np.array_equal(base, cand)
    assert baseline.superstep_count == candidate.superstep_count
    for ours, theirs in zip(baseline.supersteps, candidate.supersteps):
        assert ours == theirs  # dataclass equality: elapsed included
    assert baseline.aggregators == candidate.aggregators
    assert baseline.restarts == candidate.restarts


@pytest.fixture(scope="module")
def baselines(topology):
    """One in-process reference run per workload."""
    return {name: run(topology, make())[0]
            for name, make in PROGRAMS.items()}


@pytest.mark.parametrize("workload", sorted(PROGRAMS))
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_shared_memory_bit_identical(topology, baselines, workload,
                                     workers):
    result, _ = run(topology, PROGRAMS[workload](),
                    backend="shared_memory", workers=workers,
                    cross_check=True)
    assert_equivalent(baselines[workload], result)


def _bsp_metric_series(registry):
    """The engine's metric series, minus real wall-clock histograms."""
    return {
        name: entry
        for name, entry in registry.snapshot().items()
        if name.startswith("bsp.") and not name.endswith("wall_seconds")
    }


def test_superstep_metrics_backend_invariant(topology):
    """Worker-side metric deltas fold in at barriers: ``bsp.superstep.*``
    (and the rest of the engine series) match the in-process run."""
    _, reg_inproc = run(topology, PageRankProgram(iterations=4))
    result, reg_shm = run(topology, PageRankProgram(iterations=4),
                          backend="shared_memory", workers=2)
    assert _bsp_metric_series(reg_inproc) == _bsp_metric_series(reg_shm)
    assert reg_shm.snapshot()["bsp.superstep.total"]["series"][0][
        "value"] == result.superstep_count


def chaos_plan() -> FaultPlan:
    return FaultPlan(
        seed=13,
        crashes=((2, 1), (5, 3)),
        drop_rate=0.08,
        duplicate_rate=0.05,
        delay_rate=0.05,
        partitions=((3, 5, frozenset({2})),),
    )


def test_checkpoint_restart_under_faults_backend_invariant(topology):
    """Crashes force rollbacks; the worker pool is killed and re-forked
    from the restored image, and the fault plan's draws — keyed by round,
    machine pair, and attempt — must replay identically, so both
    backends restart the same number of times and agree bit for bit."""
    results = {}
    for backend, workers in (("in_process", None), ("shared_memory", 2)):
        results[backend], _ = run(
            topology, PageRankProgram(iterations=6),
            backend=backend, workers=workers, cross_check=True,
            faults=chaos_plan(),
            checkpoints=CheckpointManager(TrinityFileSystem(), every=2),
        )
    assert results["in_process"].restarts >= 2
    assert_equivalent(results["in_process"], results["shared_memory"])


def test_faulted_matches_fault_free(topology, baselines):
    """Injected chaos costs simulated time but never changes values."""
    result, _ = run(topology, PageRankProgram(iterations=6),
                    backend="shared_memory", workers=4, cross_check=True,
                    faults=chaos_plan(),
                    checkpoints=CheckpointManager(TrinityFileSystem(),
                                                  every=2))
    assert np.array_equal(np.asarray(result.values),
                          np.asarray(baselines["pagerank"].values))


# -- parallel bulk load ------------------------------------------------------


def _build(cloud, backend, workers=None, cross_check=True):
    edges = rmat_edges(scale=10, avg_degree=8, seed=23)
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges)
    builder.add_node(10_000_001)
    return builder.finalize(cross_check=cross_check, backend=backend,
                            workers=workers)


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_bulk_load_parallel_bit_identical(workers, dev_shm):
    config = ClusterConfig(machines=MACHINES, trunk_bits=6)
    reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
    cloud_a = MemoryCloud(config, registry=reg_a)
    graph_a = _build(cloud_a, "in_process")
    cloud_b = MemoryCloud(config, registry=reg_b,
                          shared_arenas=True)
    try:
        graph_b = _build(cloud_b, "shared_memory", workers=workers)
        assert cloud_b.arenas_shared
        assert sorted(os.listdir("/dev/shm")) == dev_shm
        assert graph_a.node_ids == graph_b.node_ids
        node_ids = graph_a.node_ids
        assert cloud_a.bulk_get(node_ids) == cloud_b.bulk_get(node_ids)
        for trunk_a, trunk_b in zip(cloud_a.trunks.values(),
                                    cloud_b.trunks.values()):
            assert trunk_a.stats() == trunk_b.stats()
        # The adopt path replays the in-process probe accounting too.
        for name in ("memcloud.bulk.put.cells", "memcloud.bulk.put.batches"):
            assert reg_a.counter(name).value == reg_b.counter(name).value
    finally:
        cloud_b.release_arenas()


def test_bulk_load_parallel_needs_shared_arenas():
    """Without shared arenas the workers' writes would be fork-private;
    the builder silently falls back to the in-process path."""
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4))
    graph = _build(cloud, "shared_memory", workers=2, cross_check=False)
    reference = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4))
    _build(reference, "in_process", cross_check=False)
    ids = graph.node_ids
    assert cloud.bulk_get(ids) == reference.bulk_get(ids)


def test_bulk_load_parallel_requires_pristine_trunks():
    """A pre-existing cell means adopt-from-offset-zero would clobber it;
    eligibility fails and the load goes through the normal bulk path."""
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4),
                        shared_arenas=True)
    try:
        cloud.put(20_000_099, b"resident")
        graph = _build(cloud, "shared_memory", workers=2,
                       cross_check=False)
        assert cloud.get(20_000_099) == b"resident"
        assert graph.outlinks(graph.node_ids[0]) is not None
    finally:
        cloud.release_arenas()
