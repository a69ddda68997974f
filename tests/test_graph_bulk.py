"""Equivalence tests for the vectorized graph-loading path.

``GraphBuilder.add_edges`` (numpy) + ``finalize(bulk=True)`` must produce
a memory cloud bit-identical to the one built by a scalar ``add_edge``
loop + ``finalize(bulk=False)`` — same node blobs, same trunk contents.
The batch TSL encoder is additionally pinned against the scalar encoder
by a hypothesis property.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.errors import QueryError, SchemaMismatchError
from repro.graph import GraphBuilder
from repro.graph.model import plain_graph_schema, social_graph_schema
from repro.memcloud import MemoryCloud
from repro.obs import MetricsRegistry
from repro.tsl import LONG, ListType, StructType, batch_encoder_for
from repro.tsl.batch import BatchStructEncoder

NODE = st.integers(min_value=0, max_value=40)
EDGES = st.lists(st.tuples(NODE, NODE), max_size=120)


def make_cloud():
    return MemoryCloud(ClusterConfig(machines=2, trunk_bits=3),
                       MetricsRegistry())


def build(edges, directed, bulk, cross_check=False, as_array=False):
    cloud = make_cloud()
    builder = GraphBuilder(cloud, plain_graph_schema(directed=directed))
    if as_array and edges:
        builder.add_edges(np.asarray(edges, dtype=np.int64))
    else:
        for src, dst in edges:
            builder.add_edge(src, dst)
    graph = builder.finalize(bulk=bulk, cross_check=cross_check)
    return cloud, graph


def cloud_cells(cloud):
    return {
        trunk_id: dict(trunk.dump_cells())
        for trunk_id, trunk in cloud.trunks.items()
    }


class TestAddEdgesEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(EDGES, st.booleans())
    def test_array_ingest_matches_scalar_loop(self, edges, directed):
        scalar_cloud, scalar_graph = build(edges, directed, bulk=False)
        array_cloud, array_graph = build(edges, directed, bulk=False,
                                         as_array=True)
        assert cloud_cells(scalar_cloud) == cloud_cells(array_cloud)
        assert scalar_graph.node_ids == array_graph.node_ids

    def test_self_loops(self):
        for directed in (True, False):
            edges = [(1, 1), (1, 2), (2, 2), (1, 1)]
            scalar_cloud, _ = build(edges, directed, bulk=False)
            array_cloud, _ = build(edges, directed, bulk=False,
                                   as_array=True)
            assert cloud_cells(scalar_cloud) == cloud_cells(array_cloud)

    def test_undirected_mirror_order(self):
        # The scalar loop appends dst to src's list *then* src to dst's:
        # an interleaved pattern the vectorized grouping must reproduce.
        edges = [(1, 2), (2, 1), (1, 3), (3, 2)]
        scalar_cloud, scalar_graph = build(edges, False, bulk=False)
        array_cloud, array_graph = build(edges, False, bulk=False,
                                         as_array=True)
        assert cloud_cells(scalar_cloud) == cloud_cells(array_cloud)
        for node in scalar_graph.node_ids:
            assert scalar_graph.outlinks(node) == array_graph.outlinks(node)

    def test_iterable_input_falls_back_to_scalar(self):
        cloud = make_cloud()
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges((pair for pair in [(1, 2), (2, 3)]))
        assert builder.edge_count == 2
        graph = builder.finalize()
        assert graph.outlinks(1) == [2]

    def test_bad_array_shape_rejected(self):
        builder = GraphBuilder(make_cloud(),
                               plain_graph_schema(directed=True))
        with pytest.raises(QueryError):
            builder.add_edges(np.zeros((3, 3), dtype=np.int64))

    def test_empty_inputs(self):
        builder = GraphBuilder(make_cloud(),
                               plain_graph_schema(directed=True))
        builder.add_edges([])
        builder.add_edges(np.empty((0, 2), dtype=np.int64))
        assert builder.edge_count == 0
        assert builder.node_count == 0


class TestEdgeCount:
    def test_running_counter(self):
        builder = GraphBuilder(make_cloud(),
                               plain_graph_schema(directed=True))
        builder.add_edge(1, 2)
        assert builder.edge_count == 1
        builder.add_edges(np.asarray([(2, 3), (3, 4)], dtype=np.int64))
        assert builder.edge_count == 3

    def test_undirected_counts_logical_edges(self):
        # One add_edge = one logical edge even though it lands in two
        # neighbor lists (the historical sum(len)//2 semantics).
        builder = GraphBuilder(make_cloud(),
                               plain_graph_schema(directed=False))
        builder.add_edge(1, 2)
        builder.add_edges(np.asarray([(2, 3)], dtype=np.int64))
        assert builder.edge_count == 2


class TestBulkFinalize:
    @settings(max_examples=40, deadline=None)
    @given(EDGES, st.booleans())
    def test_bulk_finalize_matches_scalar(self, edges, directed):
        scalar_cloud, _ = build(edges, directed, bulk=False)
        bulk_cloud, _ = build(edges, directed, bulk=True, as_array=True,
                              cross_check=True)
        assert cloud_cells(scalar_cloud) == cloud_cells(bulk_cloud)

    def test_bulk_and_scalar_loads_account_identically(self):
        """Same cells is not the whole claim: both loads leave every
        trunk, and so every machine, with the same allocator ledger."""
        from repro.generators import rmat_edges
        edges = rmat_edges(scale=8, avg_degree=6, seed=42).tolist()
        scalar_cloud, _ = build(edges, True, bulk=False)
        bulk_cloud, _ = build(edges, True, bulk=True, as_array=True,
                              cross_check=True)
        assert cloud_cells(scalar_cloud) == cloud_cells(bulk_cloud)
        for trunk_id, trunk in bulk_cloud.trunks.items():
            assert trunk.stats() == scalar_cloud.trunks[trunk_id].stats()
        for machine in range(bulk_cloud.config.machines):
            assert bulk_cloud.machine_stats(machine) == \
                scalar_cloud.machine_stats(machine)

    def test_bulk_graph_is_queryable(self):
        edges = [(1, 2), (1, 3), (2, 3), (4, 1)]
        _, graph = build(edges, True, bulk=True, as_array=True)
        assert graph.outlinks(1) == [2, 3]
        assert graph.inlinks(3) == [1, 2]

    def test_attributes_survive_bulk_path(self):
        for bulk in (False, True):
            cloud = make_cloud()
            builder = GraphBuilder(cloud, social_graph_schema())
            builder.add_node(1, Name="Alice")
            builder.add_node(2, Name="Bob")
            builder.add_edge(1, 2)
            graph = builder.finalize(bulk=bulk, cross_check=bulk)
            assert graph.attribute(1, "Name") == "Alice"
            assert graph.attribute(2, "Name") == "Bob"

    def test_scalar_and_bulk_attribute_blobs_identical(self):
        clouds = []
        for bulk in (False, True):
            cloud = make_cloud()
            builder = GraphBuilder(cloud, social_graph_schema())
            for i, name in enumerate(["Ada", "Guy", "三位一体", ""]):
                builder.add_node(i, Name=name)
            builder.add_edge(0, 1)
            builder.add_edge(2, 3)
            builder.finalize(bulk=bulk)
            clouds.append(cloud)
        assert cloud_cells(clouds[0]) == cloud_cells(clouds[1])

    def test_finalize_twice_rejected(self):
        builder = GraphBuilder(make_cloud(),
                               plain_graph_schema(directed=True))
        builder.add_edge(1, 2)
        builder.finalize()
        with pytest.raises(QueryError):
            builder.finalize()


class TestIdsCheckedAtFinalize:
    """An id no cell can have — not an integer, or outside [0, 2**63) —
    is one ``QueryError`` at finalize, before anything is encoded or
    stored, and the builder stays open."""

    def refused(self, builder, cloud):
        with pytest.raises(QueryError, match="ids must"):
            builder.finalize()
        assert len(cloud) == 0
        builder.add_node(7)     # still open
        with pytest.raises(QueryError, match="ids must"):
            builder.finalize()  # and still refusing, not "finalized"

    def builder(self, directed=True):
        cloud = make_cloud()
        return GraphBuilder(cloud, plain_graph_schema(directed)), cloud

    def test_float_endpoints_are_not_truncated(self):
        builder, cloud = self.builder()
        builder.add_edge(1.7, 2.2)
        self.refused(builder, cloud)

    def test_float_edge_array_is_not_truncated(self):
        builder, cloud = self.builder()
        builder.add_edges(np.asarray([(1.0, 2.0), (3.5, 4.0)]))
        self.refused(builder, cloud)

    def test_float_pairs_are_not_truncated(self):
        builder, cloud = self.builder()
        builder.add_edges([(1, 2), (3.5, 4)])
        self.refused(builder, cloud)

    def test_uint64_edge_array_does_not_wrap_negative(self):
        builder, cloud = self.builder()
        builder.add_edges(np.asarray([(1, 2**63 + 5)], dtype=np.uint64))
        self.refused(builder, cloud)

    @pytest.mark.parametrize("node", [2**63, 2**63 + 5, -2**63 - 1, "7"])
    def test_declared_id_no_cell_can_have(self, node):
        builder, cloud = self.builder()
        builder.add_edge(1, 2)
        builder.add_node(node)
        self.refused(builder, cloud)

    def test_negative_declared_id_stores_nothing(self):
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=3),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edges(np.arange(200).reshape(100, 2))
        builder.add_node(-5)
        self.refused(builder, cloud)

    def test_negative_endpoint(self):
        builder, cloud = self.builder(directed=False)
        builder.add_edge(-1, 3)
        self.refused(builder, cloud)

    def test_largest_id_is_stored(self):
        builder, cloud = self.builder()
        builder.add_edge(0, 2**63 - 1)
        graph = builder.finalize(cross_check=True)
        assert graph.outlinks(0) == [2**63 - 1]
        assert graph.node_ids == [0, 2**63 - 1]


LONG_LIST = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=30)


class TestBatchEncoder:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(LONG_LIST, LONG_LIST), max_size=20))
    def test_plain_schema_equivalence(self, rows):
        node_type = plain_graph_schema(directed=True).node_type
        records = [{"Outlinks": out, "Inlinks": in_} for out, in_ in rows]
        batch = batch_encoder_for(node_type).encode_many(records)
        assert batch.blobs() == [node_type.encode(r) for r in records]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.text(max_size=12), LONG_LIST),
                    max_size=15))
    def test_social_schema_equivalence(self, rows):
        node_type = social_graph_schema().node_type
        records = [{"Name": name, "Friends": friends}
                   for name, friends in rows]
        batch = batch_encoder_for(node_type).encode_many(records)
        assert batch.blobs() == [node_type.encode(r) for r in records]

    def test_missing_fields_take_defaults(self):
        node_type = plain_graph_schema(directed=True).node_type
        batch = batch_encoder_for(node_type).encode_many([{}])
        assert batch.blobs() == [
            node_type.encode({"Outlinks": [], "Inlinks": []})]

    def test_unknown_field_raises_canonical_error(self):
        node_type = plain_graph_schema(directed=True).node_type
        with pytest.raises(SchemaMismatchError):
            batch_encoder_for(node_type).encode_many([{"Nope": []}])

    def test_out_of_range_element_raises_like_scalar(self):
        node_type = plain_graph_schema(directed=True).node_type
        record = {"Outlinks": [2**63], "Inlinks": []}
        with pytest.raises(SchemaMismatchError):
            node_type.encode(record)
        with pytest.raises(SchemaMismatchError):
            batch_encoder_for(node_type).encode_many([record])

    def test_nested_list_raises_like_scalar(self):
        node_type = plain_graph_schema(directed=True).node_type
        record = {"Outlinks": [[1, 2]], "Inlinks": []}
        with pytest.raises(SchemaMismatchError):
            node_type.encode(record)
        with pytest.raises(SchemaMismatchError):
            batch_encoder_for(node_type).encode_many([record])

    def test_float_elements_match_scalar_behaviour(self):
        node_type = plain_graph_schema(directed=True).node_type
        record = {"Outlinks": [3.7, -3.7], "Inlinks": []}
        batch = batch_encoder_for(node_type).encode_many([record])
        assert batch.blobs() == [node_type.encode(record)]

    def test_empty_batch(self):
        node_type = plain_graph_schema(directed=True).node_type
        assert batch_encoder_for(node_type).encode_many([]).blobs() == []

    def test_encoder_cached_per_type(self):
        node_type = plain_graph_schema(directed=True).node_type
        assert batch_encoder_for(node_type) is batch_encoder_for(node_type)

    def test_fresh_type_gets_fresh_encoder(self):
        a = StructType("A", [("Xs", ListType(LONG))])
        b = StructType("A", [("Xs", ListType(LONG))])
        encoder_a = batch_encoder_for(a)
        encoder_b = batch_encoder_for(b)
        assert encoder_a.struct_type is a
        assert encoder_b.struct_type is b

    def test_direct_construction(self):
        node_type = plain_graph_schema(directed=True).node_type
        encoder = BatchStructEncoder(node_type)
        records = [{"Outlinks": [1], "Inlinks": [2, 3]}]
        assert encoder.encode_many(records).blobs() == [
            node_type.encode(records[0])]
