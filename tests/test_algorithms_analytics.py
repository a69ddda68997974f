"""Tests for offline analytics: PageRank, BFS, SSSP, WCC.

Each entry point is one BSP engine run of its vertex program.  The
answers are checked against networkx, and a cross-checked engine run of
the same program holds the kernel path to the per-vertex reference path.
"""

import numpy as np
import pytest

from repro.algorithms import (
    BfsProgram, PageRankProgram, SsspProgram, WccProgram,
    bfs, pagerank, sssp, wcc,
)
from repro.compute import BspEngine
from repro.compute.bsp import HUB_FRACTION
from repro.errors import ComputeError
from repro.net import SimNetwork
from repro.obs import MetricsRegistry
from repro.oracle import checking


def recorded_pagerank(topology, iterations):
    """A :func:`pagerank` run and its private network's per-superstep
    message histogram."""
    network = SimNetwork(registry=MetricsRegistry())
    run = pagerank(topology, iterations=iterations, network=network)
    return run, network.obs.histogram("bsp.superstep.messages")


class TestPageRank:
    def test_ranks_sum_to_one(self, rmat_topology):
        run = pagerank(rmat_topology, iterations=15)
        assert run.ranks.sum() == pytest.approx(1.0, abs=1e-9)
        assert (run.ranks > 0).all()

    def test_matches_networkx(self, rmat_topology, rmat_networkx):
        networkx = pytest.importorskip("networkx")
        run = pagerank(rmat_topology, iterations=80)
        reference = networkx.pagerank(rmat_networkx, alpha=0.85,
                                      max_iter=200, tol=1e-12,
                                      weight="multiplicity")
        ours = run.ranks
        theirs = np.array([reference[i] for i in range(rmat_topology.n)])
        assert np.abs(ours - theirs).max() < 1e-6

    def test_vertex_engine_agrees_with_vectorised(self, rmat_topology):
        # A cross-checked run also runs the per-vertex reference path and
        # requires bit-identical ranks and accounting.
        run = pagerank(rmat_topology, iterations=10)
        with checking():
            result = BspEngine(rmat_topology).run(
                PageRankProgram(iterations=10), max_supersteps=12)
        assert np.array_equal(result.values, run.ranks)
        assert [step.elapsed for step in result.supersteps] == (
            run.iteration_times)

    def test_iteration_times_recorded(self, rmat_topology):
        run, messages = recorded_pagerank(rmat_topology, iterations=7)
        # Seven broadcasts, then the final apply, which sends nothing.
        assert len(run.iteration_times) == 8
        assert messages.count == 8
        assert messages.total == 7 * rmat_topology.num_edges
        assert messages.min == 0
        assert run.time_per_iteration > 0
        assert run.elapsed == pytest.approx(sum(run.iteration_times))

    def test_constant_traffic_per_iteration(self, rmat_topology):
        run, messages = recorded_pagerank(rmat_topology, iterations=5)
        # Full-broadcast pattern: every iteration costs the same; the
        # final apply has no messages to pay for.
        broadcasts, final = run.iteration_times[:5], run.iteration_times[5]
        assert len(run.iteration_times) == 6
        assert max(broadcasts) == pytest.approx(min(broadcasts))
        assert messages.min == 0
        assert final < min(broadcasts)

    def test_dangling_mass_redistributed(self, cloud):
        from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edge(0, 1)  # 1 is dangling
        graph = builder.finalize()
        topo = CsrTopology(graph)
        run = pagerank(topo, iterations=50)
        assert run.ranks.sum() == pytest.approx(1.0)
        assert run.ranks[1] > run.ranks[0]  # 1 receives 0's rank

    def test_bad_iterations(self, rmat_topology):
        with pytest.raises(ComputeError):
            pagerank(rmat_topology, iterations=0)

    def test_hub_buffering_cheaper(self, rmat_topology):
        """Every broadcast superstep puts the hub-buffered fan-out on the
        wire, which is fewer messages than one per cut edge."""
        result = BspEngine(rmat_topology).run(PageRankProgram(iterations=3))
        machines = rmat_topology.machine_count

        def remote(fanout) -> int:
            counts = rmat_topology.pair_traffic(
                np.arange(rmat_topology.n), fanout
            ).reshape(machines, machines)
            return int(counts.sum() - np.trace(counts))

        buffered = remote(rmat_topology.hub_fanout(
            rmat_topology.hub_threshold(HUB_FRACTION)))
        assert buffered < remote(rmat_topology.machine_fanout)
        assert [step.remote_transfers for step in result.supersteps] == [
            buffered] * 3 + [0]
        assert np.array_equal(result.values,
                              pagerank(rmat_topology, iterations=3).ranks)


class TestBfs:
    def test_matches_networkx(self, rmat_topology, rmat_networkx):
        networkx = pytest.importorskip("networkx")
        run = bfs(rmat_topology, 0)
        reference = networkx.single_source_shortest_path_length(
            rmat_networkx, 0
        )
        for vertex in range(rmat_topology.n):
            assert run.levels[vertex] == reference.get(vertex, -1)

    def test_vertex_engine_agrees(self, rmat_topology):
        run = bfs(rmat_topology, 0)
        with checking():
            result = BspEngine(rmat_topology).run(BfsProgram(0),
                                                  max_supersteps=60)
        assert np.array_equal(result.values, run.levels)
        assert [step.elapsed for step in result.supersteps] == (
            run.level_times)

    def test_root_level_zero(self, rmat_topology):
        run = bfs(rmat_topology, 5)
        assert run.levels[5] == 0

    def test_depth_and_reach(self, rmat_topology):
        run = bfs(rmat_topology, 0)
        assert run.depth == run.levels.max()
        assert run.reached == (run.levels >= 0).sum()

    def test_level_times_match_levels(self, rmat_topology):
        run = bfs(rmat_topology, 0)
        assert len(run.level_times) >= run.depth

    def test_invalid_root(self, rmat_topology):
        with pytest.raises(ComputeError):
            bfs(rmat_topology, rmat_topology.n)

    def test_isolated_root(self, cloud):
        from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_node(0)
        builder.add_edge(1, 2)
        graph = builder.finalize()
        topo = CsrTopology(graph)
        run = bfs(topo, topo.index_of[0])
        assert run.reached == 1


class TestSssp:
    def test_unit_weights_equal_bfs(self, rmat_topology):
        bfs_run = bfs(rmat_topology, 0)
        sssp_run = sssp(rmat_topology, 0)
        distances = np.where(np.isfinite(sssp_run.distances),
                             sssp_run.distances, -1)
        assert np.array_equal(distances.astype(np.int64), bfs_run.levels)

    def test_weighted_matches_networkx(self, rmat_topology, rmat_networkx):
        networkx = pytest.importorskip("networkx")
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.5, 2.0, size=rmat_topology.num_edges)
        run = sssp(rmat_topology, 0, edge_weights=weights)
        weighted = rmat_networkx.copy()
        edge_index = 0
        for src in range(rmat_topology.n):
            for dst in rmat_topology.out_neighbors(src):
                # networkx collapses parallel edges: keep the minimum.
                dst = int(dst)
                w = weights[edge_index]
                edge_index += 1
                if weighted.has_edge(src, dst):
                    w = min(w, weighted[src][dst].get("weight", np.inf))
                weighted.add_edge(src, dst, weight=w)
        reference = networkx.single_source_dijkstra_path_length(
            weighted, 0
        )
        for vertex, expected in reference.items():
            assert run.distances[vertex] == pytest.approx(expected)

    def test_vertex_engine_agrees(self, rmat_topology):
        with checking():
            result = BspEngine(rmat_topology).run(SsspProgram(0),
                                                  max_supersteps=80)
        run = sssp(rmat_topology, 0)
        assert np.array_equal(result.values, run.distances)

    def test_negative_weights_rejected(self, rmat_topology):
        weights = np.full(rmat_topology.num_edges, -1.0)
        with pytest.raises(ComputeError):
            sssp(rmat_topology, 0, edge_weights=weights)

    def test_misaligned_weights_rejected(self, rmat_topology):
        with pytest.raises(ComputeError):
            sssp(rmat_topology, 0, edge_weights=np.ones(3))


class TestWcc:
    def test_matches_networkx(self, rmat_topology, rmat_networkx):
        networkx = pytest.importorskip("networkx")
        run = wcc(rmat_topology)
        assert run.component_count == (
            networkx.number_weakly_connected_components(rmat_networkx)
        )
        # Same partition, not just same count.
        for component in networkx.weakly_connected_components(rmat_networkx):
            labels = {run.labels[v] for v in component}
            assert len(labels) == 1

    def test_vertex_engine_agrees_on_undirected(self, undirected_topology):
        run = wcc(undirected_topology)
        with checking():
            result = BspEngine(undirected_topology).run(WccProgram(),
                                                        max_supersteps=80)
        # On an undirected (symmetrised) topology the vertex program's
        # out-neighbor propagation equals weak connectivity.
        engine_labels = np.array(result.values)
        # Identical partitions up to label choice:
        mapping = {}
        for ours, theirs in zip(run.labels, engine_labels):
            assert mapping.setdefault(int(ours), int(theirs)) == int(theirs)

    def test_label_is_component_minimum(self, undirected_topology):
        run = wcc(undirected_topology)
        for label in np.unique(run.labels):
            members = np.nonzero(run.labels == label)[0]
            assert label == members.min()

    def test_singleton_components(self, cloud):
        from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        for node in range(5):
            builder.add_node(node)
        graph = builder.finalize()
        run = wcc(CsrTopology(graph))
        assert run.component_count == 5


class TestTrafficModel:
    """A superstep's wire traffic is the topology's per-vertex fan-out
    rows summed by machine pair (``CsrTopology.pair_traffic``)."""

    @staticmethod
    def full(topology, fanout):
        return topology.pair_traffic(np.arange(topology.n), fanout)

    def test_full_broadcast_counts_every_edge_at_most_once(self,
                                                           rmat_topology):
        counts = self.full(rmat_topology, rmat_topology.machine_fanout)
        assert counts.sum() == rmat_topology.num_edges

    def test_hub_buffering_reduces_counts(self, rmat_topology):
        plain = self.full(rmat_topology, rmat_topology.machine_fanout)
        buffered = self.full(rmat_topology, rmat_topology.hub_fanout(
            rmat_topology.hub_threshold(0.02)))
        assert buffered.sum() < plain.sum()

    def test_frontier_traffic_subset_of_full(self, rmat_topology):
        fanout = rmat_topology.machine_fanout
        partial = rmat_topology.pair_traffic(np.arange(50), fanout)
        assert (partial <= self.full(rmat_topology, fanout)).all()

    def test_agrees_with_bsp_engine_accounting(self, rmat_topology):
        """The fan-out table and the per-vertex path's message routing
        must count the same number of wire messages for a full
        broadcast."""
        from repro.compute import VertexProgram

        class Broadcast(VertexProgram):
            restrictive = True
            uniform_messages = True

            def compute(self, ctx, vertex, messages):
                if ctx.superstep == 0:
                    ctx.send_to_neighbors(1.0)
                ctx.vote_to_halt()

        engine = BspEngine(rmat_topology)
        result = engine.run(Broadcast(), max_supersteps=3)
        counts = self.full(rmat_topology, rmat_topology.hub_fanout(
            rmat_topology.hub_threshold(HUB_FRACTION))).reshape(
            rmat_topology.machine_count, rmat_topology.machine_count
        )
        remote = int(counts.sum() - np.trace(counts))
        assert result.supersteps[0].remote_transfers == remote

    def test_remote_fraction_in_unit_range(self, rmat_topology):
        machines = rmat_topology.machine_count
        counts = self.full(rmat_topology, rmat_topology.machine_fanout
                           ).reshape(machines, machines)
        assert 0.0 < 1.0 - np.trace(counts) / counts.sum() < 1.0
