"""Chaos equivalence: injected faults never change results, bit for bit.

Every workload here runs twice — fault-free, then under a seeded
``FaultPlan`` that crashes a machine mid-job, drops/duplicates/delays
messages and partitions the network — and the final vertex values must
be **bit-identical**.  Each faulted run is also checked
(``repro.oracle.checking``), so the per-vertex reference path replays
the same chaos and must agree with the vectorized path superstep by superstep.
Both paths share one superstep loop, so rollback and replay are
checked here against the fault-free run, for a kernel program and for
one without a combiner (whose carry is list inboxes).

The CI fault matrix re-runs this module over a grid of seeds and cluster
sizes via the ``FAULTS_SEED`` / ``FAULTS_MACHINES`` environment
variables.
"""

import os

import numpy as np
import pytest

from repro.algorithms import (
    BfsProgram,
    PageRankProgram,
    SsspProgram,
    pagerank_async,
)
from repro.algorithms.wcc import WccProgram
from repro.compute import (
    AsyncEngine,
    BspEngine,
    CheckpointManager,
    VertexProgram,
)
from repro.config import ClusterConfig
from repro.faults import FaultPlan
from repro.generators import rmat_edges
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.net import SimNetwork
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tfs import TrinityFileSystem

SEED = int(os.environ.get("FAULTS_SEED", "7"))
MACHINES = int(os.environ.get("FAULTS_MACHINES", "4"))


@pytest.fixture(scope="module")
def topology() -> CsrTopology:
    edges = rmat_edges(scale=9, avg_degree=8, seed=42)
    cloud = MemoryCloud(ClusterConfig(machines=MACHINES, trunk_bits=6))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges.tolist())
    return CsrTopology(builder.finalize(), include_inlinks=True)


def chaos_plan(**overrides) -> FaultPlan:
    base = dict(
        seed=SEED,
        crashes=((2, SEED % MACHINES),),
        drop_rate=0.08,
        duplicate_rate=0.05,
        delay_rate=0.05,
        partitions=((3, 5, frozenset({(SEED + 1) % MACHINES})),),
    )
    base.update(overrides)
    return FaultPlan(**base)


def run(topology, program, faults=None, max_supersteps=50):
    registry = MetricsRegistry()
    engine = BspEngine(
        topology,
        network=SimNetwork(registry=registry),
        faults=faults,
        checkpoints=(CheckpointManager(TrinityFileSystem(), every=2)
                     if faults is not None else None),
    )
    with checking(faults is not None):
        result = engine.run(program, max_supersteps=max_supersteps)
    return result, registry


def assert_bit_identical(baseline, chaos):
    base = np.asarray(baseline.values)
    faulted = np.asarray(chaos.values)
    assert base.dtype == faulted.dtype
    assert np.array_equal(base, faulted)


def test_pagerank_bit_identical_under_chaos(topology):
    baseline, _ = run(topology, PageRankProgram(iterations=10))
    chaos, registry = run(topology, PageRankProgram(iterations=10),
                          faults=chaos_plan())
    assert_bit_identical(baseline, chaos)
    # The acceptance criteria of this subsystem: the crash actually
    # fired, the transport actually retried, and nothing changed.
    assert chaos.restarts >= 1
    assert registry.counter("faults.crash.total").value >= 1
    assert registry.counter("rpc.retry.total").value > 0
    assert registry.counter("bsp.restart.total").value >= 1


def test_bfs_bit_identical_under_chaos(topology):
    baseline, _ = run(topology, BfsProgram(root=0))
    chaos, registry = run(topology, BfsProgram(root=0),
                          faults=chaos_plan())
    assert_bit_identical(baseline, chaos)
    assert registry.counter("faults.crash.total").value >= 1


def test_sssp_bit_identical_under_chaos(topology):
    weights = np.random.default_rng(3).uniform(
        0.5, 4.0, size=len(topology.out_indices)
    )
    baseline, _ = run(topology, SsspProgram(root=0, edge_weights=weights))
    chaos, registry = run(topology,
                          SsspProgram(root=0, edge_weights=weights),
                          faults=chaos_plan())
    assert_bit_identical(baseline, chaos)
    assert registry.counter("faults.crash.total").value >= 1


def test_wcc_bit_identical_under_chaos(topology):
    baseline, _ = run(topology, WccProgram())
    chaos, registry = run(topology, WccProgram(), faults=chaos_plan())
    assert_bit_identical(baseline, chaos)
    assert registry.counter("faults.crash.total").value >= 1


class NeighborAverage(VertexProgram):
    """No combiner, so it runs on the per-vertex path: every superstep
    each vertex averages its value with what arrived and re-sends it,
    for ``rounds`` supersteps, then halts."""

    restrictive = True
    uniform_messages = True

    def __init__(self, rounds: int = 6):
        self.rounds = rounds

    def init(self, ctx, vertex):
        ctx.set_value(vertex, float(vertex % 7))

    def compute(self, ctx, vertex, messages):
        ctx.value = (ctx.value + sum(messages)) / (1 + len(messages))
        if ctx.superstep < self.rounds:
            ctx.send_to_neighbors(ctx.value)
        else:
            ctx.vote_to_halt()


def test_program_without_combiner_bit_identical_under_chaos(topology):
    baseline, _ = run(topology, NeighborAverage())
    chaos, registry = run(topology, NeighborAverage(), faults=chaos_plan())
    assert baseline.superstep_count >= 5
    assert_bit_identical(baseline, chaos)
    assert chaos.restarts >= 1
    assert registry.counter("bsp.checkpoint.total").value >= 1
    # The crash entering superstep 2 resumed from the image written after
    # superstep 1 — its list inboxes round-tripped through the pickle —
    # so no superstep ran twice.
    assert [report.superstep for report in chaos.supersteps] == list(
        range(baseline.superstep_count))


def test_pagerank_async_bit_identical_under_chaos(topology):
    """The asynchronous model's rounds run in the same loop: a crash
    rolls back to the last snapshot, and the replay changes nothing."""
    baseline, base_result = pagerank_async(topology, tolerance=1e-8)
    registry = MetricsRegistry()
    chaos, chaos_result = pagerank_async(topology, tolerance=1e-8, engine=(
        AsyncEngine(topology, network=SimNetwork(registry=registry),
                    faults=chaos_plan(),
                    checkpoints=CheckpointManager(TrinityFileSystem(),
                                                  every=2))))
    assert chaos.dtype == baseline.dtype
    assert np.array_equal(chaos, baseline)
    assert chaos_result.updates == base_result.updates
    assert chaos_result.messages == base_result.messages
    assert chaos_result.terminated
    assert chaos_result.restarts >= 1
    assert registry.counter("faults.crash.total").value >= 1


def test_crash_without_checkpoints_restarts_from_scratch(topology):
    program = PageRankProgram(iterations=6)
    baseline, _ = run(topology, program)
    registry = MetricsRegistry()
    engine = BspEngine(
        topology, network=SimNetwork(registry=registry),
        faults=FaultPlan(seed=SEED, crashes=((3, 0),)),
    )
    with checking():
        chaos = engine.run(PageRankProgram(iterations=6))
    assert_bit_identical(baseline, chaos)
    assert chaos.restarts == 1
    assert registry.counter("bsp.checkpoint.total").value == 0


def test_reused_checkpoint_manager_resumes_only_its_own_run(topology):
    """One manager across two runs: a crash in the second rolls back to
    the second run's image, never to the first run's newer ones (tags 5,
    7 and 9 here, against the second run's 1)."""
    baseline, _ = run(topology, PageRankProgram(iterations=6))
    registry = MetricsRegistry()
    checkpoints = CheckpointManager(TrinityFileSystem(), every=2)
    engine = BspEngine(topology, network=SimNetwork(registry=registry),
                       checkpoints=checkpoints)
    with checking():
        engine.run(PageRankProgram(iterations=10))
        engine.faults = FaultPlan(seed=SEED,
                                  crashes=((3, SEED % MACHINES),))
        chaos = engine.run(PageRankProgram(iterations=6))
    assert chaos.restarts == 1
    assert_bit_identical(baseline, chaos)
    assert [report.superstep for report in chaos.supersteps][:5] == [
        0, 1, 2, 2, 3]       # resumed after its own superstep 1


def test_drops_only_change_time_not_values(topology):
    baseline, _ = run(topology, PageRankProgram(iterations=8))
    chaos, _ = run(topology, PageRankProgram(iterations=8),
                   faults=FaultPlan(seed=SEED, drop_rate=0.2))
    assert_bit_identical(baseline, chaos)
    assert chaos.restarts == 0
    # Retransmissions and backoffs are charged to the simulated clock.
    assert chaos.elapsed > baseline.elapsed


def test_partition_stalls_but_heals(topology):
    baseline, _ = run(topology, PageRankProgram(iterations=8))
    chaos, registry = run(
        topology, PageRankProgram(iterations=8),
        faults=FaultPlan(
            seed=SEED,
            # Cut off half the cluster so traffic always crosses the cut.
            partitions=((1, 4, frozenset(range(max(1, MACHINES // 2)))),),
        ),
    )
    assert_bit_identical(baseline, chaos)
    assert registry.counter("faults.partition.blocked.total").value > 0
    assert chaos.elapsed > baseline.elapsed


def test_chaos_run_is_reproducible(topology):
    first, _ = run(topology, PageRankProgram(iterations=8),
                   faults=chaos_plan())
    second, _ = run(topology, PageRankProgram(iterations=8),
                    faults=chaos_plan())
    assert_bit_identical(first, second)
    assert first.restarts == second.restarts
    assert [r.elapsed for r in first.supersteps] == \
        [r.elapsed for r in second.supersteps]
