"""Equivalence of the vectorized BSP fast path with the per-vertex
reference path.

The contract under test (the whole point of the combiner/batch-kernel
design): for every shipped program, both paths produce **bit-identical**
values, the same superstep count, and the same simulated-time/traffic
accounting — every field of every ``SuperstepReport``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.bfs import BfsProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.sssp import SsspProgram
from repro.algorithms.wcc import WccProgram
from repro.compute import BspEngine, VertexProgram
from repro.errors import ComputeError, DivergenceError
from repro.generators import rmat_edges
from repro.generators.erdos_renyi import erdos_renyi_edges
from repro.graph import CsrTopology
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry


@pytest.fixture(scope="module")
def er_topology() -> CsrTopology:
    """An Erdős–Rényi graph (no hubs — exercises the non-hub traffic
    path) over 4 machines, built without a memory cloud."""
    edges = erdos_renyi_edges(500, avg_degree=6.0, directed=True, seed=11)
    return CsrTopology.from_arrays(edges, machines=4, num_nodes=500)


def _run_both(topology, make_program, max_supersteps=80):
    """Run the same program on both paths with isolated networks."""
    results = {}
    for vectorize in (True, False):
        engine = BspEngine(
            topology,
            network=SimNetwork(registry=MetricsRegistry()),
            vectorize=vectorize,
        )
        results[vectorize] = engine.run(make_program(),
                                        max_supersteps=max_supersteps)
    return results[True], results[False]


def _assert_equivalent(fast, reference):
    fast_values = np.asarray(fast.values)
    reference_values = np.asarray(reference.values,
                                  dtype=fast_values.dtype)
    # Bit-identical, not approximately equal.
    assert np.array_equal(reference_values, fast_values)
    assert fast.superstep_count == reference.superstep_count
    for fast_step, ref_step in zip(fast.supersteps, reference.supersteps):
        assert fast_step == ref_step  # every field, elapsed included
    assert fast.aggregators == reference.aggregators


PROGRAMS = {
    "pagerank": lambda: PageRankProgram(iterations=10),
    "bfs": lambda: BfsProgram(root=0),
    "sssp_unit": lambda: SsspProgram(root=0),
    "wcc": lambda: WccProgram(),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_rmat_equivalence(rmat_topology, name):
    fast, reference = _run_both(rmat_topology, PROGRAMS[name])
    _assert_equivalent(fast, reference)
    assert fast.superstep_count > 1


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_erdos_renyi_equivalence(er_topology, name):
    fast, reference = _run_both(er_topology, PROGRAMS[name])
    _assert_equivalent(fast, reference)


def test_weighted_sssp_equivalence(rmat_topology):
    rng = np.random.default_rng(17)
    weights = rng.uniform(0.5, 2.0,
                          size=len(rmat_topology.out_indices))
    fast, reference = _run_both(
        rmat_topology, lambda: SsspProgram(root=3, edge_weights=weights)
    )
    _assert_equivalent(fast, reference)


def test_dict_weight_sssp_vetoes_batch_but_still_vectorizes(er_topology):
    """A (src, dst) weights dict can't be gathered vectorially: the
    instance falls back to per-vertex compute over the combined inbox,
    which must still match the reference path exactly."""
    weights = {(0, int(d)): 3.0 for d in er_topology.out_neighbors(0)}
    assert not SsspProgram(root=0, weights=weights).batch_eligible
    fast, reference = _run_both(
        er_topology, lambda: SsspProgram(root=0, weights=weights)
    )
    _assert_equivalent(fast, reference)


def test_pagerank_dangling_aggregator_matches(er_topology):
    """Dangling mass flows through the aggregator identically (the batch
    kernel folds it sequentially in vertex order on purpose)."""
    assert (er_topology.out_degrees() == 0).any()
    fast, reference = _run_both(er_topology,
                                lambda: PageRankProgram(iterations=6))
    _assert_equivalent(fast, reference)
    assert np.isclose(np.asarray(fast.values).sum(), 1.0)


def test_cross_check_accepts_consistent_program(er_topology):
    engine = BspEngine(er_topology,
                       network=SimNetwork(registry=MetricsRegistry()),
                       cross_check=True)
    result = engine.run(PageRankProgram(iterations=4))
    assert result.superstep_count == 5


def test_cross_check_rejects_divergent_kernel(er_topology):
    class Broken(PageRankProgram):
        def compute_batch(self, ctx, vertices, combined, received):
            super().compute_batch(ctx, vertices, combined, received)
            ctx.values[vertices[0]] += 1e-9  # diverge slightly

    engine = BspEngine(er_topology,
                       network=SimNetwork(registry=MetricsRegistry()),
                       cross_check=True)
    with pytest.raises(DivergenceError, match="cross-check"):
        engine.run(Broken(iterations=2))


def test_unknown_combiner_rejected(er_topology):
    class Bad(VertexProgram):
        combiner = "mean"

        def compute(self, ctx, vertex, messages):
            ctx.vote_to_halt()

    engine = BspEngine(er_topology,
                       network=SimNetwork(registry=MetricsRegistry()))
    with pytest.raises(ComputeError, match="combiner"):
        engine.run(Bad())


def test_no_combiner_program_keeps_list_values(er_topology):
    """Programs without a combiner stay on the reference path and keep
    plain-list values (the checkpoint layer JSON-serialises them)."""

    class Keep(VertexProgram):
        def init(self, ctx, vertex):
            ctx.set_value(vertex, vertex * 2)

        def compute(self, ctx, vertex, messages):
            ctx.vote_to_halt()

    engine = BspEngine(er_topology,
                       network=SimNetwork(registry=MetricsRegistry()))
    result = engine.run(Keep())
    assert isinstance(result.values, list)
    assert result.values[5] == 10


def test_vectorized_path_observes_wall_clock(er_topology):
    registry = MetricsRegistry()
    engine = BspEngine(er_topology,
                       network=SimNetwork(registry=registry))
    result = engine.run(BfsProgram(root=0))
    wall = registry.histogram("bsp.superstep.wall_seconds")
    assert wall.count == result.superstep_count
    assert wall.total > 0.0


def test_from_arrays_matches_manual_adjacency():
    edges = np.array([[0, 1], [0, 2], [2, 0], [3, 1], [1, 1]],
                     dtype=np.int64)
    topo = CsrTopology.from_arrays(edges, machines=2, num_nodes=5)
    assert topo.n == 5
    assert topo.num_edges == 5
    assert sorted(topo.out_neighbors(0).tolist()) == [1, 2]
    assert topo.out_neighbors(4).tolist() == []
    assert topo.machine.tolist() == [0, 1, 0, 1, 0]
    assert topo.machine_count == 2


def test_from_arrays_agrees_with_cloud_built_topology(rmat_topology):
    """The synthetic constructor must produce the same vertex-program
    results as a cloud-built topology of the same edge set would — the
    perf harness depends on it standing in for the real thing."""
    edges = rmat_edges(scale=8, avg_degree=6, seed=5)
    topo = CsrTopology.from_arrays(edges, machines=4)
    fast, reference = _run_both(topo, lambda: WccProgram())
    _assert_equivalent(fast, reference)
