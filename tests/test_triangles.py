"""Tests for triangle counting."""

import pytest

from repro.algorithms import TriangleProgram, count_triangles
from repro.compute import BspEngine
from repro.config import ClusterConfig
from repro.generators import powerlaw_edges
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.oracle import checking


@pytest.fixture(scope="module")
def triangle_topology():
    edges = powerlaw_edges(300, avg_degree=8, seed=5)
    cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=5))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
    builder.add_edges(edges.tolist())
    return CsrTopology(builder.finalize())


class TestTriangles:
    def test_matches_networkx(self, triangle_topology):
        networkx = pytest.importorskip("networkx")
        run = count_triangles(triangle_topology)
        reference = networkx.Graph()
        reference.add_nodes_from(range(triangle_topology.n))
        for i in range(triangle_topology.n):
            for j in triangle_topology.out_neighbors(i):
                reference.add_edge(i, int(j))
        expected = sum(networkx.triangles(reference).values()) // 3
        assert run.count == expected

    def test_vertex_program_agrees(self, triangle_topology):
        # A cross-checked run holds every send to an out-neighbor; the
        # per-vertex counts must equal a merge over sorted higher-id
        # adjacency, each triangle credited to its middle vertex.
        with checking():
            result = BspEngine(triangle_topology).run(TriangleProgram(),
                                                      max_supersteps=4)
        higher = []
        for vertex in range(triangle_topology.n):
            neighbors = set(triangle_topology.out_neighbors(vertex).tolist())
            higher.append({v for v in neighbors if v > vertex})
        expected = [0] * triangle_topology.n
        for low in range(triangle_topology.n):
            for middle in higher[low]:
                expected[middle] += len(higher[low] & higher[middle])
        assert result.values == expected
        assert result.aggregators.get("triangles", 0.0) == sum(expected)
        assert count_triangles(triangle_topology).count == sum(expected)

    def test_per_vertex_sums_to_total(self, triangle_topology):
        run = count_triangles(triangle_topology)
        assert int(run.per_vertex.sum()) == run.count

    def test_known_small_graphs(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
        # A 4-clique has exactly 4 triangles.
        for u in range(4):
            for v in range(u + 1, 4):
                builder.add_edge(u, v)
        topo = CsrTopology(builder.finalize())
        assert count_triangles(topo).count == 4

    def test_triangle_free_graph(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
        builder.add_edges([(0, 1), (1, 2), (2, 3), (3, 0)])  # a 4-cycle
        topo = CsrTopology(builder.finalize())
        assert count_triangles(topo).count == 0

    def test_accounting(self, triangle_topology):
        run = count_triangles(triangle_topology)
        assert run.elapsed > 0
