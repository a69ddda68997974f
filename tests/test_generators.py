"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.algorithms.people_search import people_search
from repro.config import ClusterConfig, MemoryParams
from repro.generators import (
    FIRST_NAMES,
    erdos_renyi_edges,
    powerlaw_degree_sequence,
    powerlaw_edges,
    rmat_edges,
    sample_names,
    social_edges,
    stream_build_social_graph,
    stream_social_edges,
)
from repro.generators.rmat import rmat_graph_size
from repro.generators.social import community_edges
from repro.memcloud import MemoryCloud
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry


class TestRmat:
    def test_shape_and_range(self):
        edges = rmat_edges(scale=8, avg_degree=4, seed=0)
        assert edges.shape == (256 * 4, 2)
        assert edges.min() >= 0
        assert edges.max() < 256

    def test_deterministic(self):
        a = rmat_edges(scale=6, seed=9)
        b = rmat_edges(scale=6, seed=9)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = rmat_edges(scale=6, seed=1)
        b = rmat_edges(scale=6, seed=2)
        assert not np.array_equal(a, b)

    def test_heavy_tail(self):
        """R-MAT with skewed quadrants produces a hub-dominated
        out-degree distribution (the paper's scale-free setting)."""
        edges = rmat_edges(scale=11, avg_degree=8, seed=0)
        degrees = np.bincount(edges[:, 0], minlength=2048)
        mean = degrees.mean()
        assert degrees.max() > 8 * mean

    def test_dedup(self):
        edges = rmat_edges(scale=6, avg_degree=16, seed=0, dedup=True)
        assert len(np.unique(edges, axis=0)) == len(edges)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            rmat_edges(scale=0)
        with pytest.raises(ValueError):
            rmat_edges(scale=4, a=0.9, b=0.2, c=0.2)

    def test_graph_size_helper(self):
        assert rmat_graph_size(10, 13) == (1024, 13312)


class TestPowerlaw:
    def test_degree_sequence_bounds(self):
        degrees = powerlaw_degree_sequence(1000, gamma=2.16, seed=0)
        assert len(degrees) == 1000
        assert degrees.min() >= 1
        assert degrees.sum() % 2 == 0

    def test_gamma_controls_tail(self):
        heavy = powerlaw_degree_sequence(5000, gamma=2.0, seed=1)
        light = powerlaw_degree_sequence(5000, gamma=3.5, seed=1)
        assert heavy.max() >= light.max()

    def test_gamma_validated(self):
        with pytest.raises(ValueError):
            powerlaw_degree_sequence(10, gamma=1.0)

    def test_edges_simple_graph(self):
        edges = powerlaw_edges(500, avg_degree=8, seed=2)
        assert (edges[:, 0] != edges[:, 1]).all()          # no loops
        assert len(np.unique(edges, axis=0)) == len(edges)  # no dups
        assert (edges[:, 0] < edges[:, 1]).all()           # canonical

    def test_avg_degree_targeting(self):
        edges = powerlaw_edges(2000, avg_degree=12, seed=3)
        realised = 2 * len(edges) / 2000
        assert realised > 8  # close-ish to 12 after dedup losses

    def test_hub_share_matches_paper_claim(self):
        """Section 5.4: with gamma = 2.16, a small fraction of hub
        vertices covers a disproportionate share of edge endpoints."""
        edges = powerlaw_edges(5000, gamma=2.16, avg_degree=13, seed=4)
        degrees = np.bincount(edges.ravel(), minlength=5000)
        order = np.argsort(-degrees)
        top_2pct = order[: 5000 // 50]
        share = degrees[top_2pct].sum() / degrees.sum()
        assert share > 0.15


class TestSocial:
    def test_social_edges_are_powerlaw(self):
        edges = social_edges(1000, avg_degree=13, seed=5)
        assert len(edges) > 1000

    def test_community_random_layout(self):
        edges = community_edges(600, communities=6, avg_degree=8,
                                layout="random", seed=6)
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_community_ring_layout_connected_ish(self):
        networkx = pytest.importorskip("networkx")
        edges = community_edges(600, communities=6, avg_degree=8,
                                layout="ring", seed=6)
        graph = networkx.Graph()
        graph.add_edges_from(edges.tolist())
        largest = max(networkx.connected_components(graph), key=len)
        assert len(largest) > 500

    def test_ring_layout_has_long_paths(self):
        """Ring community layout must have larger diameter than random
        layout — the property the landmark experiment needs."""
        networkx = pytest.importorskip("networkx")

        def diameter_of(layout):
            edges = community_edges(600, communities=10, avg_degree=8,
                                    layout=layout, seed=7)
            graph = networkx.Graph()
            graph.add_edges_from(edges.tolist())
            core = graph.subgraph(
                max(networkx.connected_components(graph), key=len)
            )
            return networkx.approximation.diameter(core)

        assert diameter_of("ring") > diameter_of("random")

    def test_bad_layout(self):
        with pytest.raises(ValueError):
            community_edges(100, layout="torus")


class TestErdosRenyi:
    def test_directed_count(self):
        edges = erdos_renyi_edges(500, avg_degree=6, directed=True, seed=0)
        assert len(edges) == 3000

    def test_no_self_loops(self):
        edges = erdos_renyi_edges(100, avg_degree=10, seed=1)
        assert (edges[:, 0] != edges[:, 1]).all()

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            erdos_renyi_edges(1)


class TestNames:
    def test_pool_contains_david(self):
        assert "David" in FIRST_NAMES

    def test_sample_size(self):
        names = sample_names(100, seed=0)
        assert len(names) == 100
        assert all(name in FIRST_NAMES for name in names)

    def test_david_selectivity(self):
        """David is popular (ranked 11th): ~1-3% of a big sample."""
        names = sample_names(20000, seed=1)
        share = names.count("David") / len(names)
        assert 0.005 < share < 0.06

    def test_deterministic(self):
        assert sample_names(50, seed=3) == sample_names(50, seed=3)


class TestStreaming:
    """The external-memory generator and the paged load it exists for."""

    def test_batches_are_bounded_loop_free_and_seeded(self):
        batches = list(stream_social_edges(600, avg_degree=8.0, seed=4,
                                           batch_edges=256))
        assert len(batches) > 1
        for batch in batches:
            assert batch.dtype == np.int64 and batch.shape[1] == 2
            assert 0 < len(batch) <= 256
            assert (batch[:, 0] != batch[:, 1]).all()
            assert batch.min() >= 0 and batch.max() < 600
        again = stream_social_edges(600, avg_degree=8.0, seed=4,
                                    batch_edges=256)
        assert all(np.array_equal(a, b) for a, b in zip(batches, again))
        other = np.concatenate(list(stream_social_edges(
            600, avg_degree=8.0, seed=5, batch_edges=256)))
        assert not np.array_equal(np.concatenate(batches), other)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            next(stream_social_edges(1))
        with pytest.raises(ValueError):
            next(stream_social_edges(10, batch_edges=0))

    def test_paged_stream_load_answers_like_resident(self):
        """A graph streamed into a cloud that keeps two pages per trunk
        answers the same searches as a resident cloud fed the same
        stream — and really did fault, evict and write back."""
        graphs, clouds = {}, {}
        try:
            for storage in ("resident", "paged"):
                memory = MemoryParams(trunk_size=256 * 1024, storage=storage,
                                      page_size=512, page_budget=2)
                clouds[storage] = MemoryCloud(
                    ClusterConfig(machines=2, trunk_bits=4, memory=memory),
                    MetricsRegistry())
                graphs[storage], edges = stream_build_social_graph(
                    clouds[storage], 1500, avg_degree=8.0, seed=42,
                    batch_edges=1024)
                assert edges > 1024     # more than one batch was ingested
            assert graphs["paged"].num_edges() == \
                graphs["resident"].num_edges()
            for start in (0, 1, 7, 100):
                paged, resident = (
                    people_search(graphs[storage], start, "David", hops=3,
                                  network=SimNetwork())
                    for storage in ("paged", "resident"))
                assert paged.matches == resident.matches
                assert paged.visited == resident.visited > 0
                assert paged.hop_times == resident.hop_times
            snap = clouds["paged"].obs.snapshot()
            for event in ("fault", "evict", "writeback"):
                series = snap[f"trunk.page.{event}.total"]["series"]
                assert sum(s["value"] for s in series) > 0, event
            live = clouds["paged"].total_live_bytes()
            assert live > len(clouds["paged"].trunks) * 2 * 512
        finally:
            for cloud in clouds.values():
                cloud.release_arenas()
