"""Tests for the graph data model: schemas, builder, API, CSR cache."""

import numpy as np
import pytest

from repro.errors import QueryError, TslTypeError
from repro.graph import (
    CsrTopology,
    GraphBuilder,
    GraphSchema,
    hyperedge_schema,
    plain_graph_schema,
    social_graph_schema,
    struct_edge_schema,
)
from repro.tsl import compile_tsl


class TestSchemas:
    def test_plain_directed(self):
        schema = plain_graph_schema(directed=True)
        assert schema.directed
        assert schema.out_field == "Outlinks"
        assert schema.in_field == "Inlinks"

    def test_plain_undirected(self):
        schema = plain_graph_schema(directed=False)
        assert not schema.directed
        assert schema.out_field == "Neighbors"

    def test_social_has_name_attribute(self):
        schema = social_graph_schema()
        assert schema.attribute_fields == ("Name",)

    def test_from_compiled_infers_conventions(self):
        compiled = compile_tsl("""
        cell struct Page {
            double Rank;
            [EdgeType: SimpleEdge]
            List<long> Out;
            [EdgeType: SimpleEdge]
            List<long> In;
        }
        """)
        schema = GraphSchema.from_compiled(compiled, "Page")
        assert schema.out_field == "Out"
        assert schema.in_field == "In"
        assert schema.attribute_fields == ("Rank",)

    def test_from_compiled_requires_edges(self):
        compiled = compile_tsl("cell struct X { int A; }")
        with pytest.raises(TslTypeError, match="EdgeType"):
            GraphSchema.from_compiled(compiled, "X")

    def test_struct_edge_schema_compiles(self):
        schema = struct_edge_schema()
        assert "Relation" in schema.cells
        edge = schema.edge_fields("Entity")[0]
        assert edge.edge_type == "StructEdge"

    def test_hyperedge_schema_compiles(self):
        schema = hyperedge_schema()
        assert schema.edge_fields("Member")[0].edge_type == "HyperEdge"


class TestBuilder:
    def test_directed_edges(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edge(1, 2)
        builder.add_edge(1, 3)
        graph = builder.finalize()
        assert sorted(graph.outlinks(1)) == [2, 3]
        assert graph.inlinks(2) == [1]
        assert graph.outlinks(2) == []

    def test_undirected_edges_mirrored(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
        builder.add_edge(1, 2)
        graph = builder.finalize()
        assert graph.outlinks(2) == [1]
        assert graph.inlinks(1) == [2]

    def test_attributes(self, cloud):
        builder = GraphBuilder(cloud, social_graph_schema())
        builder.add_node(1, Name="David")
        builder.add_edge(1, 2)
        graph = builder.finalize()
        assert graph.attribute(1, "Name") == "David"
        assert graph.attribute(2, "Name") == ""  # default

    def test_unknown_attribute_rejected(self, cloud):
        builder = GraphBuilder(cloud, social_graph_schema())
        with pytest.raises(QueryError, match="unknown attributes"):
            builder.add_node(1, Age=30)

    def test_repeated_node_merges_attributes(self, cloud):
        builder = GraphBuilder(cloud, social_graph_schema())
        builder.add_node(1, Name="David")
        builder.add_node(1)                 # no attributes: nothing lost
        builder.add_node(2)
        builder.add_node(2, Name="Eve")     # attributes after a bare call
        builder.add_node(1, Name="Dave")    # a repeat overrides
        with pytest.raises(QueryError, match=(
                r"unknown attributes for Person: \['Age', 'Zip'\]")):
            builder.add_node(2, Name="Mallory", Zip=1, Age=30)
        graph = builder.finalize()
        assert graph.attribute(1, "Name") == "Dave"
        assert graph.attribute(2, "Name") == "Eve"  # a refused call stores nothing

    def test_counts(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges([(0, 1), (1, 2), (2, 0)])
        assert builder.node_count == 3
        assert builder.edge_count == 3

    def test_undirected_edge_count_not_doubled(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=False))
        builder.add_edges([(0, 1), (1, 2)])
        assert builder.edge_count == 2

    def test_finalize_once(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema())
        builder.add_edge(0, 1)
        builder.finalize()
        with pytest.raises(QueryError, match="finalized"):
            builder.add_edge(1, 2)
        with pytest.raises(QueryError, match="finalized"):
            builder.finalize()


class TestGraphApi:
    @pytest.fixture
    def graph(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges([(0, 1), (0, 2), (1, 2), (2, 0)])
        return builder.finalize()

    def test_shape(self, graph):
        assert graph.num_nodes == 3
        assert graph.num_edges() == 4
        assert graph.directed
        assert 0 in graph and 99 not in graph

    def test_degree(self, graph):
        assert graph.degree(0) == 2

    def test_node_materialisation(self, graph):
        node = graph.node(0)
        assert sorted(node["Outlinks"]) == [1, 2]

    def test_machine_placement_consistent(self, graph):
        partition = graph.partition()
        assert sum(len(v) for v in partition.values()) == 3
        for machine, nodes in partition.items():
            for node in nodes:
                assert graph.machine_of(node) == machine

    def test_use_node_mutation(self, graph):
        with graph.use_node(0) as cell:
            cell.Outlinks.append(99)
        assert 99 in graph.outlinks(0)

    def test_attribute_on_plain_schema_rejected(self, graph):
        with pytest.raises(QueryError):
            graph.attribute(0, "Name")


class TestCsrTopology:
    def test_matches_graph_adjacency(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges([(5, 7), (7, 9), (9, 5), (5, 9)])
        graph = builder.finalize()
        topo = CsrTopology(graph, include_inlinks=True)
        assert topo.n == 3
        assert topo.num_edges == 4
        five = topo.index_of[5]
        out_ids = sorted(topo.node_ids[topo.out_neighbors(five)])
        assert out_ids == [7, 9]
        in_nine = sorted(topo.node_ids[topo.in_neighbors(topo.index_of[9])])
        assert in_nine == [5, 7]

    def test_out_degrees(self, rmat_topology):
        degrees = rmat_topology.out_degrees()
        assert degrees.sum() == rmat_topology.num_edges
        assert len(degrees) == rmat_topology.n

    def test_machine_assignment_covers_all(self, rmat_topology):
        counted = sum(
            len(rmat_topology.nodes_of_machine(m))
            for m in range(rmat_topology.machine_count)
        )
        assert counted == rmat_topology.n

    def test_cut_edges_bounded(self, rmat_topology):
        cut = rmat_topology.cut_edges()
        assert 0 < cut < rmat_topology.num_edges

    def test_machine_fanout_counts_edges_per_destination_machine(
            self, rmat_topology):
        topo = rmat_topology
        fanout = topo.machine_fanout
        assert fanout is topo.machine_fanout and not fanout.flags.writeable
        assert fanout.shape == (topo.n, topo.machine_count)
        src = np.repeat(np.arange(topo.n), topo.out_degrees())
        per_edge = np.zeros(fanout.shape, dtype=np.int64)
        np.add.at(per_edge, (src, topo.machine[topo.out_indices]), 1)
        assert np.array_equal(fanout, per_edge)
        # Summed by source machine over any sender set, it is the
        # machine-pair matrix a per-edge tally gives.
        senders = np.arange(0, topo.n, 3)
        sent = np.isin(src, senders)
        pairs = (topo.machine[src[sent]].astype(np.int64)
                 * topo.machine_count
                 + topo.machine[topo.out_indices[sent]])
        assert np.array_equal(
            topo.pair_traffic(senders, fanout),
            np.bincount(pairs, minlength=topo.machine_count ** 2))
        diagonal = topo.pair_traffic(np.arange(topo.n), fanout)[
            ::topo.machine_count + 1]
        assert topo.num_edges - diagonal.sum() == topo.cut_edges()

    def test_inlinks_disabled_raises(self, undirected_topology):
        with pytest.raises(QueryError):
            undirected_topology.in_neighbors(0)

    def test_empty_neighbor_slices(self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_node(1)
        graph = builder.finalize()
        topo = CsrTopology(graph)
        assert len(topo.out_neighbors(0)) == 0

    @staticmethod
    def scalar_build(graph, neighbors_fn):
        """The snapshot one ``outlinks(uid)`` call and one dict lookup
        per neighbour at a time: the reference for the batch build."""
        index_of = {uid: i for i, uid in enumerate(graph.node_ids)}
        indptr, indices = [0], []
        for uid in graph.node_ids:
            indices += [index_of[v] for v in neighbors_fn(uid)]
            indptr.append(len(indices))
        return np.array(indptr), np.array(indices, dtype=np.int64)

    @pytest.mark.parametrize("directed", [True, False])
    def test_batch_build_equals_the_scalar_build(self, cloud, directed):
        rng = np.random.default_rng(11)
        builder = GraphBuilder(cloud, plain_graph_schema(directed=directed))
        ids = rng.permutation(400)[:120] * 1_000_003    # far apart
        for src, dst in rng.integers(0, len(ids), size=(600, 2)):
            builder.add_edge(int(ids[src]), int(ids[dst]))
        builder.add_node(7)     # isolated
        graph = builder.finalize()
        graph.add_node(5)       # a later node: the ids are not ascending
        graph.add_edge(5, int(ids[3]))
        graph.add_edge(int(ids[9]), 5)
        assert list(graph.node_ids) != sorted(graph.node_ids)
        topo = CsrTopology(graph, include_inlinks=True)
        indptr, indices = self.scalar_build(graph, graph.outlinks)
        assert np.array_equal(topo.out_indptr, indptr)
        assert np.array_equal(topo.out_indices, indices)
        if directed:
            indptr, indices = self.scalar_build(graph, graph.inlinks)
            assert np.array_equal(topo.in_indptr, indptr)
            assert np.array_equal(topo.in_indices, indices)
        else:
            assert topo.in_indices is None
        assert topo.machine.dtype == np.int32
        assert topo.machine.tolist() == [
            graph.machine_of(uid) for uid in graph.node_ids]
        assert topo.index_of == {
            uid: i for i, uid in enumerate(graph.node_ids)}

    def test_neighbor_that_is_not_a_node_raises_keyerror_naming_it(
            self, cloud):
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges([(1, 2), (2, 3), (3, 4), (4, 1)])
        graph = builder.finalize()
        graph.node_ids.remove(3)    # 2 -> 3 now points outside the snapshot
        with pytest.raises(KeyError) as raised:
            CsrTopology(graph)
        assert raised.value.args == (3,)
