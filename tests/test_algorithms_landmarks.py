"""Tests for the landmark distance oracle: Brandes betweenness, the
three landmark selection strategies and the oracle's accuracy
(Section 5.5, Figure 8b)."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.algorithms import evaluate_oracle, select_landmarks
from repro.algorithms.landmarks import brandes_betweenness
from repro.errors import QueryError
from repro.generators.social import community_edges
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud


@pytest.fixture(scope="module")
def ring_topology():
    edges = community_edges(1200, communities=12, avg_degree=8,
                            layout="ring", seed=5)
    cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=6))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
    builder.add_edges(edges.tolist())
    return CsrTopology(builder.finalize())


class TestBrandes:
    def test_matches_networkx_exact(self):
        """Full-sample Brandes equals networkx betweenness ranking."""
        networkx = pytest.importorskip("networkx")
        from repro.generators import powerlaw_edges
        edges = powerlaw_edges(60, avg_degree=4, seed=3)
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=3))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
        builder.add_edges(edges.tolist())
        topo = CsrTopology(builder.finalize())
        ours = brandes_betweenness(
            topo.out_indptr, topo.out_indices, samples=topo.n, seed=0,
        )
        reference_graph = networkx.Graph()
        reference_graph.add_nodes_from(range(topo.n))
        for i in range(topo.n):
            for j in topo.out_neighbors(i):
                reference_graph.add_edge(i, int(j))
        reference = networkx.betweenness_centrality(
            reference_graph, normalized=False,
        )
        theirs = np.array([reference[i] for i in range(topo.n)])
        # Exact Brandes counts each unordered pair twice in an
        # undirected graph; networkx halves.  Compare scaled.
        assert np.allclose(ours, theirs * 2, atol=1e-6)

    def test_sampled_scores_nonnegative(self, ring_topology):
        scores = brandes_betweenness(
            ring_topology.out_indptr, ring_topology.out_indices,
            samples=20, seed=1,
        )
        assert (scores >= 0).all()
        assert scores.max() > 0

    def test_empty_pool(self):
        scores = brandes_betweenness(
            np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64),
            nodes=np.empty(0, dtype=np.int64),
        )
        assert len(scores) == 0


class TestLandmarkSelection:
    def test_strategies_return_requested_count(self, ring_topology):
        for strategy in ("degree", "local-betweenness",
                         "global-betweenness"):
            landmarks = select_landmarks(ring_topology, 12, strategy,
                                         samples=32, seed=0)
            assert len(landmarks) == 12
            assert len(set(landmarks)) == 12

    def test_degree_strategy_picks_high_degree(self, ring_topology):
        landmarks = select_landmarks(ring_topology, 5, "degree")
        degrees = ring_topology.out_degrees()
        median = np.median(degrees)
        assert all(degrees[lm] > median for lm in landmarks)

    def test_spacing_constraint(self, ring_topology):
        landmarks = select_landmarks(ring_topology, 10, "degree")
        chosen = set(landmarks)
        for landmark in landmarks:
            neighbors = set(
                int(u) for u in ring_topology.out_neighbors(landmark)
            )
            # No two *chosen in the spaced phase* are adjacent; allow the
            # relaxed-fallback tail by checking at most one violation pair.
            assert len(neighbors & chosen) <= 1

    def test_unknown_strategy(self, ring_topology):
        with pytest.raises(QueryError, match="unknown strategy"):
            select_landmarks(ring_topology, 4, "random-walk")

    def test_bad_count(self, ring_topology):
        with pytest.raises(QueryError):
            select_landmarks(ring_topology, 0, "degree")


class TestOracle:
    def test_estimates_are_upper_bounds(self, ring_topology):
        landmarks = select_landmarks(ring_topology, 16,
                                     "global-betweenness", samples=48)
        evaluation = evaluate_oracle(ring_topology, landmarks, pairs=60,
                                     seed=2)
        for _, _, true, estimate in evaluation.per_pair:
            assert estimate >= true

    def test_accuracy_in_unit_range(self, ring_topology):
        landmarks = select_landmarks(ring_topology, 16, "degree")
        evaluation = evaluate_oracle(ring_topology, landmarks, pairs=60,
                                     seed=2)
        assert 0.0 < evaluation.accuracy <= 1.0
        assert 0.0 <= evaluation.exact_fraction <= 1.0
        assert evaluation.pairs_evaluated > 0

    def test_more_landmarks_no_worse(self, ring_topology):
        few = select_landmarks(ring_topology, 4, "global-betweenness",
                               samples=48, seed=1)
        many = select_landmarks(ring_topology, 32, "global-betweenness",
                                samples=48, seed=1)
        acc_few = evaluate_oracle(ring_topology, few, pairs=80, seed=3)
        acc_many = evaluate_oracle(ring_topology, many, pairs=80, seed=3)
        assert acc_many.accuracy >= acc_few.accuracy - 0.02

    def test_paper_ordering_at_moderate_count(self, ring_topology):
        """Figure 8(b): global betweenness beats largest-degree."""
        degree = select_landmarks(ring_topology, 32, "degree")
        globl = select_landmarks(ring_topology, 32, "global-betweenness",
                                 samples=96, seed=1)
        acc_degree = evaluate_oracle(ring_topology, degree, pairs=120,
                                     seed=4).accuracy
        acc_global = evaluate_oracle(ring_topology, globl, pairs=120,
                                     seed=4).accuracy
        assert acc_global >= acc_degree - 0.01

