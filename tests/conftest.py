"""Shared fixtures for the Trinity reproduction test suite."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import ClusterConfig, MemoryParams
from repro.cluster import TrinityCluster
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.generators import rmat_edges
from repro.memcloud import MemoryCloud
from repro.oracle import checking


@pytest.fixture
def small_config() -> ClusterConfig:
    """4 machines, 32 trunks, small trunks so defrag paths trigger."""
    return ClusterConfig(
        machines=4, trunk_bits=5,
        memory=MemoryParams(trunk_size=256 * 1024),
    )


@pytest.fixture
def cloud(small_config) -> MemoryCloud:
    return MemoryCloud(small_config)


@pytest.fixture
def cluster(small_config) -> TrinityCluster:
    return TrinityCluster(small_config)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def rmat_topology() -> CsrTopology:
    """A 1024-node R-MAT graph over 4 machines (session-scoped: building
    cloud-resident graphs is the slowest fixture step)."""
    edges = rmat_edges(scale=10, avg_degree=8, seed=42)
    cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=6))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    builder.add_edges(edges.tolist())
    graph = builder.finalize()
    return CsrTopology(graph, include_inlinks=True)


@pytest.fixture(scope="session")
def rmat_networkx(rmat_topology):
    """The same graph as a networkx DiGraph (reference implementation).

    R-MAT emits parallel edges, which the CSR keeps; the reference graph
    carries them as a ``multiplicity`` weight so weighted comparisons
    (e.g. PageRank) see the same structure.
    """
    networkx = pytest.importorskip("networkx")
    reference = networkx.DiGraph()
    reference.add_nodes_from(range(rmat_topology.n))
    for i in range(rmat_topology.n):
        for j in rmat_topology.out_neighbors(i):
            j = int(j)
            if reference.has_edge(i, j):
                reference[i][j]["multiplicity"] += 1
            else:
                reference.add_edge(i, j, multiplicity=1)
    return reference


@pytest.fixture(scope="session")
def undirected_topology() -> CsrTopology:
    """A 600-node undirected power-law graph over 4 machines."""
    from repro.generators import powerlaw_edges
    edges = powerlaw_edges(600, avg_degree=8, seed=7)
    cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=6))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
    builder.add_edges(edges.tolist())
    graph = builder.finalize()
    return CsrTopology(graph, include_inlinks=False)


def random_blob(rng: random.Random, max_len: int = 256) -> bytes:
    """A random byte string (shared helper for store tests)."""
    return bytes(rng.getrandbits(8) for _ in range(rng.randrange(max_len)))


@pytest.fixture(scope="session")
def numpy_seeded():
    np.random.seed(1234)
    return np.random


@pytest.fixture
def checked():
    """Run the test inside a ``repro.oracle.checking()`` scope: every
    checked site it reaches replays its reference (fixtures of a wider
    scope are built before it, outside the scope)."""
    with checking():
        yield
