"""Unit tests for the adaptive adjacency layouts (tsl/layout.py).

Covers the policy chooser, all three codecs' round trips and canonical
errors, forced-layout encoding, segment/scalar bit-identity, the
accessor's layout-preserving mutation path, and the ``MemoryParams``
layout knob.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, ConfigError, MemoryParams
from repro.errors import SchemaMismatchError
from repro.graph import GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.tsl import (
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    AdjacencyListType,
    LayoutPolicy,
    compile_tsl,
)
from repro.tsl.layout import (
    DEFAULT_LAYOUT_POLICY,
    RAW_ONLY_POLICY,
    encode_adjacency,
    encode_adjacency_segments,
    resolve_layout_policy,
)
from repro.utils.arrays import SpanBatch
from repro.utils.varint import decode_varint

LOW = LayoutPolicy(delta_min_degree=2, bitmap_min_degree=2)


def segment_blobs(flat, starts, ends, policy) -> list[bytes]:
    """``encode_adjacency_segments`` cut into one blob per list."""
    buffer, sizes = encode_adjacency_segments(flat, starts, ends, policy)
    assert len(buffer) == sizes.sum()
    return SpanBatch.of_sizes(buffer, sizes).blobs()


def stored_tag(blob: bytes) -> int:
    header, _ = decode_varint(blob, 0)
    return header & 3


def make_cell_type(policy=None):
    schema = compile_tsl('''
        [CellType: NodeCell]
        cell struct Person {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Person]
            List<long> Friends;
        }
    ''')
    cell = schema.cell("Person")
    if policy is not None:
        cell.field_type("Friends").policy = policy
    return cell


class TestPolicyChooser:
    def test_short_lists_stay_raw(self):
        assert DEFAULT_LAYOUT_POLICY.choose([1, 2, 3]) == LAYOUT_RAW

    def test_long_arrival_order_list_goes_delta(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 10 ** 6, 100)
        assert DEFAULT_LAYOUT_POLICY.choose(values) == LAYOUT_DELTA_VARINT

    def test_dense_ascending_hub_goes_bitmap(self):
        values = np.arange(5000, 5400)
        assert DEFAULT_LAYOUT_POLICY.choose(values) == LAYOUT_BITMAP

    def test_negative_ids_force_raw(self):
        values = [-5, 3, 8] * 20
        assert DEFAULT_LAYOUT_POLICY.choose(values) == LAYOUT_RAW

    def test_sparse_ascending_prefers_delta_over_bitmap(self):
        # Ascending but so sparse the bitmap window dwarfs the varints.
        values = np.arange(0, 10 ** 7, 10 ** 4)
        assert DEFAULT_LAYOUT_POLICY.choose(values) == LAYOUT_DELTA_VARINT

    def test_raw_only_policy_never_picks_codecs(self):
        assert RAW_ONLY_POLICY.choose(np.arange(10000)) == LAYOUT_RAW

    def test_choice_matches_encoded_tag(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            count = int(rng.integers(0, 200))
            values = rng.integers(0, int(rng.integers(1, 10 ** 6)),
                                  count)
            if rng.integers(0, 2):
                values = np.unique(values)
            blob = encode_adjacency(values, DEFAULT_LAYOUT_POLICY)
            assert stored_tag(blob) == DEFAULT_LAYOUT_POLICY.choose(values)

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            LayoutPolicy(delta_min_degree=0)
        with pytest.raises(ValueError):
            LayoutPolicy(bitmap_min_degree=-1)

    def test_resolve_presets(self):
        assert resolve_layout_policy(None) is None
        assert resolve_layout_policy("adaptive") is DEFAULT_LAYOUT_POLICY
        assert resolve_layout_policy("raw") is RAW_ONLY_POLICY
        assert resolve_layout_policy(LOW) is LOW
        with pytest.raises(ValueError):
            resolve_layout_policy("zstd")


class TestRoundTrips:
    CASES = [
        [],
        [0],
        [7, 7, 7],
        list(range(100)),
        list(range(0, 800, 3)),
        [2 ** 63 - 1, 0, 2 ** 63 - 1],
        [-(2 ** 63), 2 ** 63 - 1],
        list(np.random.default_rng(3).integers(
            -(2 ** 40), 2 ** 40, 50)),
    ]

    @pytest.mark.parametrize("values", CASES, ids=range(len(CASES)))
    @pytest.mark.parametrize("policy", [DEFAULT_LAYOUT_POLICY, LOW,
                                        RAW_ONLY_POLICY],
                             ids=["adaptive", "low", "raw"])
    def test_scalar_round_trip(self, values, policy):
        cell = make_cell_type(policy)
        values = [int(v) for v in values]
        blob = cell.encode({"Name": "x", "Friends": values})
        decoded, end = cell.decode(blob, 0)
        assert end == len(blob)
        assert decoded["Friends"] == values

    def test_empty_list_is_one_zero_byte(self):
        adj = AdjacencyListType()
        assert adj.encode([]) == b"\x00"
        assert adj.decode(b"\x00", 0) == ([], 1)

    def test_delta_beats_raw_on_clustered_ids(self):
        # Arrival order (not ascending), so bitmap is ineligible and the
        # chooser weighs delta-varint against raw directly.
        rng = np.random.default_rng(5)
        values = (10 ** 9
                  + rng.permutation(np.arange(0, 1000, 7))).tolist()
        adaptive = encode_adjacency(np.asarray(values), DEFAULT_LAYOUT_POLICY)
        raw = encode_adjacency(np.asarray(values), RAW_ONLY_POLICY)
        assert stored_tag(adaptive) == LAYOUT_DELTA_VARINT
        assert len(adaptive) < len(raw) // 2

    def test_bitmap_beats_delta_on_dense_ids(self):
        values = np.arange(10 ** 6, 10 ** 6 + 2048).tolist()
        blob = encode_adjacency(np.asarray(values), DEFAULT_LAYOUT_POLICY)
        assert stored_tag(blob) == LAYOUT_BITMAP
        assert len(blob) < 300  # 2048 bits + framing vs 16 KiB raw


class TestForcedLayouts:
    def test_force_each_layout_round_trips(self):
        adj = AdjacencyListType()
        values = list(range(50, 60))
        for tag in (LAYOUT_RAW, LAYOUT_DELTA_VARINT, LAYOUT_BITMAP):
            blob = adj.encode_with_layout(values, tag)
            assert blob is not None
            assert stored_tag(blob) == tag
            assert adj.decode(blob, 0)[0] == values

    def test_delta_rejects_negatives(self):
        adj = AdjacencyListType()
        assert adj.encode_with_layout([-1, 2], LAYOUT_DELTA_VARINT) is None

    def test_bitmap_rejects_unsorted_duplicates_empty(self):
        adj = AdjacencyListType()
        assert adj.encode_with_layout([3, 1], LAYOUT_BITMAP) is None
        assert adj.encode_with_layout([3, 3], LAYOUT_BITMAP) is None
        assert adj.encode_with_layout([], LAYOUT_BITMAP) is None
        assert adj.encode_with_layout([-2, 5], LAYOUT_BITMAP) is None

    def test_unknown_tag_raises(self):
        adj = AdjacencyListType()
        with pytest.raises(ValueError):
            adj.encode_with_layout([1], 3)


class TestCanonicalErrors:
    def test_reserved_tag_raises(self):
        adj = AdjacencyListType()
        blob = bytes([(1 << 2) | 3]) + b"\x00" * 8
        with pytest.raises(SchemaMismatchError, match="layout tag 3"):
            adj.decode(blob, 0)

    def test_truncated_delta_payload(self):
        adj = AdjacencyListType()
        blob = adj.encode_with_layout(list(range(20)), LAYOUT_DELTA_VARINT)
        with pytest.raises(SchemaMismatchError):
            adj.decode(blob[:-3], 0)

    def test_delta_payload_trailing_bytes(self):
        adj = AdjacencyListType()
        good = adj.encode_with_layout([4, 5], LAYOUT_DELTA_VARINT)
        # Header says 2 values; payload length claims one extra byte.
        header, pos = decode_varint(good, 0)
        nbytes, payload_start = decode_varint(good, pos)
        bad = (bytes([header]) + bytes([nbytes + 1])
               + good[payload_start:] + b"\x00")
        with pytest.raises(SchemaMismatchError, match="corrupt"):
            adj.decode(bad, 0)

    def test_bitmap_popcount_mismatch(self):
        adj = AdjacencyListType()
        blob = bytearray(adj.encode_with_layout(list(range(8, 16)),
                                                LAYOUT_BITMAP))
        blob[-1] &= 0x7F  # clear one set bit; count header now lies
        with pytest.raises(SchemaMismatchError, match="popcount"):
            adj.decode(bytes(blob), 0)

    def test_bitmap_truncated(self):
        adj = AdjacencyListType()
        blob = adj.encode_with_layout(list(range(64)), LAYOUT_BITMAP)
        with pytest.raises(SchemaMismatchError, match="too short"):
            adj.decode(blob[:-2], 0)


class TestSegmentEncoder:
    def test_matches_scalar_per_segment(self):
        rng = np.random.default_rng(11)
        flat = rng.integers(0, 10 ** 5, 500)
        cuts = np.sort(rng.choice(np.arange(1, 500), 19, replace=False))
        starts = np.concatenate(([0], cuts))
        ends = np.append(cuts, 500)
        blobs = segment_blobs(flat, starts, ends, DEFAULT_LAYOUT_POLICY)
        for blob, s, e in zip(blobs, starts, ends):
            assert blob == encode_adjacency(flat[s:e], DEFAULT_LAYOUT_POLICY)

    def test_non_contiguous_subset_segments(self):
        """The parallel loader's subset groups share one flat array with
        gaps between kept segments — stats must not leak across them."""
        flat = np.concatenate([
            np.arange(100, 200),          # dense ascending (bitmap)
            np.array([-1] * 50),          # raw filler, skipped
            np.arange(0, 10 ** 6, 9973),  # sparse ascending (delta)
        ])
        starts = np.array([0, 150], dtype=np.int64)
        ends = np.array([100, len(flat)], dtype=np.int64)
        blobs = segment_blobs(flat, starts, ends, DEFAULT_LAYOUT_POLICY)
        assert stored_tag(blobs[0]) == LAYOUT_BITMAP
        assert stored_tag(blobs[1]) == LAYOUT_DELTA_VARINT
        adj = AdjacencyListType()
        assert adj.decode(blobs[0], 0)[0] == flat[0:100].tolist()
        assert adj.decode(blobs[1], 0)[0] == flat[150:].tolist()

    def test_empty_segments(self):
        flat = np.arange(10)
        starts = np.array([0, 5, 5], dtype=np.int64)
        ends = np.array([5, 5, 10], dtype=np.int64)
        blobs = segment_blobs(flat, starts, ends, LOW)
        assert blobs[1] == b"\x00"
        adj = AdjacencyListType()
        assert adj.decode(blobs[0], 0)[0] == [0, 1, 2, 3, 4]
        assert adj.decode(blobs[2], 0)[0] == [5, 6, 7, 8, 9]


class TestAccessorLayoutPreservation:
    def _graph(self, policy="adaptive", edges=None):
        cloud = MemoryCloud(ClusterConfig(
            machines=2, memory=MemoryParams(layout_policy=policy)))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        for src, dst in edges:
            builder.add_edge(src, dst)
        return builder.finalize(cross_check=True)

    def _tag_of(self, graph, node):
        blob = graph.cloud.get(node)
        node_type = graph.graph_schema.node_type
        offset = node_type.field_offset(blob, "Outlinks")
        return node_type.field_type("Outlinks").stored_layout(blob, offset)

    def test_append_preserves_delta_layout(self):
        edges = [(1, int(v)) for v in
                 np.random.default_rng(0).integers(0, 10 ** 5, 64)]
        graph = self._graph(edges=edges)
        assert self._tag_of(graph, 1) == LAYOUT_DELTA_VARINT
        graph.add_edge(1, 99999999)
        assert self._tag_of(graph, 1) == LAYOUT_DELTA_VARINT
        assert graph.outlinks(1) == [dst for _, dst in edges] + [99999999]

    def test_append_breaking_bitmap_falls_back_to_raw(self):
        edges = [(1, v) for v in range(1000, 1100)]
        graph = self._graph(edges=edges)
        assert self._tag_of(graph, 1) == LAYOUT_BITMAP
        graph.add_edge(1, 500)  # smaller than every neighbor: not ascending
        assert self._tag_of(graph, 1) == LAYOUT_RAW
        assert graph.outlinks(1) == list(range(1000, 1100)) + [500]

    def test_setitem_on_codec_cell(self):
        edges = [(1, v) for v in range(1000, 1100)]
        graph = self._graph(edges=edges)
        with graph.use_node(1) as cell:
            cell.get("Outlinks")[0] = 999
        expected = [999] + list(range(1001, 1100))
        assert graph.outlinks(1) == expected
        # Still ascending, so the bitmap tag survived the rewrite.
        assert self._tag_of(graph, 1) == LAYOUT_BITMAP

    def test_raw_policy_cloud_stores_raw_everywhere(self):
        edges = [(1, int(v)) for v in
                 np.random.default_rng(1).integers(0, 10 ** 5, 64)]
        graph = self._graph(policy="raw", edges=edges)
        assert self._tag_of(graph, 1) == LAYOUT_RAW

    def test_iteration_and_indexing_on_codec_cell(self):
        edges = [(1, int(v)) for v in
                 np.random.default_rng(2).integers(0, 10 ** 5, 64)]
        graph = self._graph(edges=edges)
        expected = [dst for _, dst in edges]
        with graph.use_node(1) as cell:
            friends = cell.get("Outlinks")
            assert len(friends) == len(expected)
            assert list(friends) == expected
            assert friends[0] == expected[0]
            assert friends[-1] == expected[-1]
            with pytest.raises(IndexError, match="out of range"):
                friends[len(expected)]


class TestConfigKnob:
    def test_invalid_knob_rejected(self):
        with pytest.raises(ConfigError, match="layout_policy"):
            MemoryParams(layout_policy="zstd")

    def test_policy_object_accepted(self):
        params = MemoryParams(layout_policy=LOW)
        assert params.resolved_layout_policy() is LOW

    def test_compiler_scopes_adjacency_to_edge_fields(self):
        schema = compile_tsl('''
            struct Msg { List<long> Ids; }
            [CellType: NodeCell]
            cell struct Node {
                List<long> Plain;
                [EdgeType: SimpleEdge]
                List<long> Out;
            }
        ''')
        node = schema.cell("Node")
        assert isinstance(node.field_type("Out"), AdjacencyListType)
        assert not isinstance(node.field_type("Plain"), AdjacencyListType)
        assert not isinstance(schema.struct("Msg").field_type("Ids"),
                              AdjacencyListType)
