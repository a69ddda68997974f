"""The packed bulk load against the scalar reference, byte for byte.

``GraphBuilder.finalize`` encodes a graph a field at a time into one
packed batch — one buffer plus per-cell spans (``tsl/batch.py``,
``tsl/layout.py``) — and stores it with one ``bulk_put``, whose trunks
each write their run of it in one go (``memcloud/trunk.py``).  No cell
is ever a ``bytes`` on the way.  The reference is one
``node_type.encode(record)`` per node and one ``put`` per cell.

These properties hold the two together on random graphs over three
schemas — undirected social, directed social (two adjacency fields) and
one whose adjacency list is not ``List<long>`` — across every adjacency
layout, empty lists, non-ASCII names and missing attributes; and, at the
cloud level, a packed batch laid out in any order in its buffer against
the put loop, through the fallbacks a batch can hit: a run that wraps,
repeated ids, ids already stored, and a paged cloud.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, MemoryParams
from repro.graph import GraphBuilder
from repro.graph.model import GraphSchema, social_graph_schema
from repro.memcloud import MemoryCloud
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tsl import LayoutPolicy, compile_tsl
from repro.utils.arrays import SpanBatch
from repro.utils.varint import decode_varint

from ._reference_load import reference_load, reference_records

RECORDS_TSL = """
[CellType: NodeCell]
cell struct Node {
    int Rank;
    string Tag;
    [EdgeType: SimpleEdge, ReferencedCell: Node]
    List<int> Links;
    List<double> Weights;
}
"""

SCHEMAS = {
    "social": social_graph_schema(),
    "social_directed": social_graph_schema(directed=True),
    "records": GraphSchema.from_compiled(compile_tsl(RECORDS_TSL), "Node"),
}

POLICIES = {
    "adaptive": "adaptive",
    # every layout within reach of a small graph
    "low": LayoutPolicy(delta_min_degree=2, bitmap_min_degree=3),
    "raw": "raw",
}

NODE = st.integers(min_value=0, max_value=60)
TEXT = st.text(max_size=6)       # any code point a str can encode
ATTRIBUTES = {
    "social": st.fixed_dictionaries({}, optional={"Name": TEXT}),
    "social_directed": st.fixed_dictionaries({}, optional={"Name": TEXT}),
    "records": st.fixed_dictionaries({}, optional={
        "Rank": st.integers(-2**31, 2**31 - 1),
        "Tag": TEXT,
        "Weights": st.lists(st.floats(allow_nan=False), max_size=4),
    }),
}


@st.composite
def graphs(draw, schema_name):
    """Declared nodes with attributes, arrival-order edges, and maybe a
    hub whose list is one dense ascending run (bitmap-eligible)."""
    edges = draw(st.lists(st.tuples(NODE, NODE), max_size=80))
    hub = draw(st.none() | st.tuples(NODE, NODE, st.integers(3, 40)))
    if hub is not None:
        source, first, count = hub
        edges += [(source, 100 + first + k) for k in range(count)]
    nodes = draw(st.dictionaries(NODE, ATTRIBUTES[schema_name], max_size=20))
    return nodes, edges


def make_cloud(policy):
    config = ClusterConfig(machines=2, trunk_bits=3,
                           memory=MemoryParams(layout_policy=policy))
    return MemoryCloud(config, MetricsRegistry())


def load(schema, policy, nodes, edges, checked=False):
    """The builder's load: declared nodes, then one edge array;
    ``checked`` finalizes inside the oracle's scope."""
    cloud = make_cloud(policy)
    builder = GraphBuilder(cloud, schema)
    for node, attributes in nodes.items():
        builder.add_node(node, **attributes)
    if edges:
        builder.add_edges(np.asarray(edges, dtype=np.int64))
    with checking(checked):
        graph = builder.finalize()
    return cloud, graph


def stored_tags(cloud, schema) -> set[int]:
    node_type = schema.node_type
    tags = set()
    for trunk in cloud.trunks.values():
        for _, blob in trunk.dump_cells():
            offset = node_type.field_offset(blob, schema.out_field)
            tags.add(decode_varint(blob, offset)[0] & 3)
    return tags


def cells_and_stats(cloud):
    return {trunk_id: (dict(trunk.dump_cells()), trunk.stats())
            for trunk_id, trunk in cloud.trunks.items()}


class TestPackedCellsAreScalarCells:

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("schema_name", sorted(SCHEMAS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_cell_is_its_records_encoding(self, schema_name, policy,
                                                data):
        schema = SCHEMAS[schema_name]
        nodes, edges = data.draw(graphs(schema_name))
        cloud, graph = load(schema, POLICIES[policy], nodes, edges,
                            checked=True)
        records = reference_records(schema, nodes, edges)
        assert graph.node_ids == sorted(records)
        encode = schema.node_type.encode
        for node, record in records.items():
            assert cloud.get(node) == encode(record)
        assert len(cloud) == len(records)
        # and the trunk ledger is the scalar load's
        scalar_cloud = make_cloud(POLICIES[policy])
        reference_load(scalar_cloud, schema, nodes, edges)
        assert cells_and_stats(cloud) == cells_and_stats(scalar_cloud)

    def test_all_three_layouts_in_one_load(self):
        schema = SCHEMAS["social_directed"]
        rng = np.random.default_rng(5)
        edges = [(1, 500 + k) for k in range(64)]                # bitmap
        edges += [(2, int(v)) for v in rng.integers(0, 10**6, 40)]  # delta
        edges += [(3, 4), (4, 3)]                                  # raw
        nodes = {1: {"Name": "Ådne"}, 9: {}, 10: {"Name": "三位一体"}}
        cloud, _ = load(schema, POLICIES["low"], nodes, edges, checked=True)
        assert stored_tags(cloud, schema) == {0, 1, 2}
        records = reference_records(schema, nodes, edges)
        encode = schema.node_type.encode
        assert {node: cloud.get(node) for node in records} == {
            node: encode(record) for node, record in records.items()}


# -- the cloud: a packed batch against the put loop ---------------------------

CONFIGS = {
    # a small trunk the batches wrap around (the eligible prefix ends
    # and the rest falls back to put)
    "wrapping": MemoryParams(trunk_size=2048, page_size=128),
    "paged": MemoryParams(trunk_size=64 * 1024, page_size=512,
                          storage="paged", page_budget=2),
}
UID = st.integers(min_value=0, max_value=23)
PAYLOAD = st.binary(max_size=60)
BATCHES = st.lists(
    st.tuples(st.lists(st.tuples(UID, PAYLOAD), max_size=14),
              st.randoms(use_true_random=False)),
    min_size=1, max_size=8)


def packed(pairs, rng) -> SpanBatch:
    """``pairs``' payloads as one buffer in a shuffled order with junk
    between them, so no cell's span follows its predecessor's."""
    order = list(range(len(pairs)))
    rng.shuffle(order)
    buffer = bytearray()
    starts = [0] * len(pairs)
    for i in order:
        buffer += bytes([0xEE]) * rng.randrange(3)
        starts[i] = len(buffer)
        buffer += pairs[i][1]
    starts = np.asarray(starts, dtype=np.int64)
    limits = starts + np.fromiter((len(p) for _, p in pairs),
                                  dtype=np.int64, count=len(pairs))
    return SpanBatch(np.frombuffer(bytes(buffer), dtype=np.uint8),
                     starts, limits)


class TestPackedBulkPutIsThePutLoop:

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    @settings(max_examples=30, deadline=None)
    @given(batches=BATCHES)
    def test_any_program_of_packed_batches(self, config, batches):
        clouds = [MemoryCloud(ClusterConfig(machines=2, trunk_bits=2,
                                            memory=CONFIGS[config]),
                              MetricsRegistry()) for _ in range(2)]
        bulk, scalar = clouds
        try:
            for pairs, rng in batches:
                if not pairs:
                    continue
                uids = np.asarray([uid for uid, _ in pairs], dtype=np.int64)
                bulk.bulk_put(uids, packed(pairs, rng), presize=False)
                for uid, payload in pairs:
                    scalar.put(uid, payload)
            assert cells_and_stats(bulk) == cells_and_stats(scalar)
            for trunk_id, trunk in bulk.trunks.items():
                other = scalar.trunks[trunk_id]
                assert (trunk._index.probe_count, trunk._index.lookup_count
                        ) == (other._index.probe_count,
                              other._index.lookup_count)
        finally:
            for cloud in clouds:
                cloud.release_arenas()

    def test_wraps_repeats_and_stored_ids_all_happen(self):
        # The fallbacks the property draws, each forced once.
        with checking():
            cloud = MemoryCloud(ClusterConfig(machines=1, trunk_bits=1,
                                              memory=CONFIGS["wrapping"]),
                                MetricsRegistry())
        payload = bytes(range(150))
        rng = random.Random(0)
        for start in range(0, 200, 8):
            if start:       # FIFO churn: the last batch goes
                for uid in range(start - 8, start):
                    cloud.remove(uid)
            pairs = [(uid, payload[:100 + uid % 50])
                     for uid in range(start, start + 8)]
            pairs += [(start, b"again"), (start + 1, b"")]   # repeats
            cloud.bulk_put([uid for uid, _ in pairs], packed(pairs, rng),
                           presize=False)       # verifies the shadow
        cloud.bulk_put([start, start + 1], [b"stored", b"ids"])
        assert any(t.stats().wraps for t in cloud.trunks.values())
        assert cloud.get(start) == b"stored"
        cloud.verify_shadow()
