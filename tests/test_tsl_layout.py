"""Unit tests for the adaptive adjacency layouts (tsl/layout.py).

Covers the policy chooser, all three codecs' round trips and canonical
errors, layouts forged through single-codec policies, segment/scalar
bit-identity, the accessor's writes choosing the layout (with a
hypothesis property over random write sequences on both storage tiers),
and the ``MemoryParams`` layout knob.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, ConfigError, MemoryParams
from repro.errors import SchemaMismatchError
from repro.graph import GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.oracle import checking
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
from repro.utils.arrays import SpanBatch, interleave
from repro.utils.varint import decode_varint

from ._layouts import encode_as

LOW = LayoutPolicy(delta_min_degree=2, bitmap_min_degree=2)


def segment_blobs(flat, counts, policy) -> list[bytes]:
    """``encode_adjacency_segments`` laid out and cut into one blob per
    list."""
    sources, pieces = encode_adjacency_segments(flat, counts, policy)
    return SpanBatch.of_sizes(interleave(sources, pieces),
                              pieces.sum(axis=1)).blobs()


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
    """A layout forged through the one encoder (``tests/_layouts.py``):
    a single-codec policy picks its codec exactly when the list is
    eligible for it."""

    def test_force_each_layout_round_trips(self):
        adj = AdjacencyListType()
        values = list(range(50, 60))
        for tag in (LAYOUT_RAW, LAYOUT_DELTA_VARINT, LAYOUT_BITMAP):
            blob = encode_as(values, tag)
            assert blob is not None
            assert stored_tag(blob) == tag
            assert adj.decode(blob, 0)[0] == values

    def test_delta_rejects_negatives(self):
        assert encode_as([-1, 2], LAYOUT_DELTA_VARINT) is None

    def test_bitmap_rejects_unsorted_duplicates_empty(self):
        assert encode_as([3, 1], LAYOUT_BITMAP) is None
        assert encode_as([3, 3], LAYOUT_BITMAP) is None
        assert encode_as([], LAYOUT_BITMAP) is None
        assert encode_as([-2, 5], LAYOUT_BITMAP) is None


class TestCanonicalErrors:
    def test_reserved_tag_raises(self):
        adj = AdjacencyListType()
        blob = bytes([(1 << 2) | 3]) + b"\x00" * 8
        with pytest.raises(SchemaMismatchError, match="layout tag 3"):
            adj.decode(blob, 0)

    def test_truncated_delta_payload(self):
        adj = AdjacencyListType()
        blob = encode_as(list(range(20)), LAYOUT_DELTA_VARINT)
        with pytest.raises(SchemaMismatchError):
            adj.decode(blob[:-3], 0)

    def test_delta_payload_trailing_bytes(self):
        adj = AdjacencyListType()
        good = encode_as([4, 5], LAYOUT_DELTA_VARINT)
        # Header says 2 values; payload length claims one extra byte.
        header, pos = decode_varint(good, 0)
        nbytes, payload_start = decode_varint(good, pos)
        bad = (bytes([header]) + bytes([nbytes + 1])
               + good[payload_start:] + b"\x00")
        with pytest.raises(SchemaMismatchError, match="corrupt"):
            adj.decode(bad, 0)

    def test_bitmap_popcount_mismatch(self):
        adj = AdjacencyListType()
        blob = bytearray(encode_as(list(range(8, 16)), LAYOUT_BITMAP))
        blob[-1] &= 0x7F  # clear one set bit; count header now lies
        with pytest.raises(SchemaMismatchError, match="popcount"):
            adj.decode(bytes(blob), 0)

    def test_bitmap_truncated(self):
        adj = AdjacencyListType()
        blob = encode_as(list(range(64)), LAYOUT_BITMAP)
        with pytest.raises(SchemaMismatchError, match="too short"):
            adj.decode(blob[:-2], 0)


class TestSegmentEncoder:
    def test_matches_scalar_per_segment(self):
        rng = np.random.default_rng(11)
        flat = rng.integers(0, 10 ** 5, 500)
        cuts = np.sort(rng.choice(np.arange(1, 500), 19, replace=False))
        bounds = np.concatenate(([0], cuts, [500]))
        blobs = segment_blobs(flat, np.diff(bounds), DEFAULT_LAYOUT_POLICY)
        for blob, s, e in zip(blobs, bounds[:-1], bounds[1:]):
            assert blob == encode_adjacency(flat[s:e], DEFAULT_LAYOUT_POLICY)

    def test_non_contiguous_subset_segments(self):
        """A subset of a shared flat array's lists, with gaps between the
        kept ones, gathered back to back — the skipped filler must not
        reach the encoder, nor stats leak across the kept lists."""
        flat = np.concatenate([
            np.arange(100, 200),          # dense ascending (bitmap)
            np.array([-1] * 50),          # raw filler, skipped
            np.arange(0, 10 ** 6, 9973),  # sparse ascending (delta)
        ])
        starts = np.array([0, 150], dtype=np.int64)
        ends = np.array([100, len(flat)], dtype=np.int64)
        kept = np.concatenate([flat[s:e] for s, e in zip(starts, ends)])
        blobs = segment_blobs(kept, ends - starts, DEFAULT_LAYOUT_POLICY)
        assert stored_tag(blobs[0]) == LAYOUT_BITMAP
        assert stored_tag(blobs[1]) == LAYOUT_DELTA_VARINT
        adj = AdjacencyListType()
        assert adj.decode(blobs[0], 0)[0] == flat[0:100].tolist()
        assert adj.decode(blobs[1], 0)[0] == flat[150:].tolist()

    def test_back_to_back_lists_keep_their_own_stats(self):
        """An ascent carried over a boundary, an ascent that restarts
        below the last list's end, a negative id beside a delta list,
        empty lists in between: no stat may leak from one list into the
        next."""
        empty = np.empty(0, dtype=np.int64)
        lists = [empty, np.arange(100, 200), empty,
                 np.arange(200, 10 ** 6, 9973), empty, empty,
                 np.array([5, -1] * 20),
                 np.random.default_rng(3).integers(0, 10 ** 5, 40), empty,
                 np.arange(0, 100)]
        flat = np.concatenate(lists)
        counts = np.array([len(values) for values in lists])
        blobs = segment_blobs(flat, counts, DEFAULT_LAYOUT_POLICY)
        assert blobs == [encode_adjacency(values, DEFAULT_LAYOUT_POLICY)
                         for values in lists]
        assert [stored_tag(blob) for blob in blobs] == [
            LAYOUT_RAW, LAYOUT_BITMAP, LAYOUT_RAW, LAYOUT_DELTA_VARINT,
            LAYOUT_RAW, LAYOUT_RAW, LAYOUT_RAW, LAYOUT_DELTA_VARINT,
            LAYOUT_RAW, LAYOUT_BITMAP]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(
               st.just([]),
               st.lists(st.integers(-5, 300), max_size=40),
               st.lists(st.integers(0, 120), max_size=60,
                        unique=True).map(sorted),      # dense: bitmaps
               st.lists(st.integers(-(2 ** 63), 2 ** 63 - 1), max_size=12)),
               max_size=12),
           st.sampled_from([DEFAULT_LAYOUT_POLICY, LOW, RAW_ONLY_POLICY]))
    def test_any_back_to_back_lists_match_per_list(self, lists, policy):
        """Any lists back to back — empty ones anywhere, ascents and
        negative ids beside each other — encode as each list alone."""
        flat = np.asarray([x for values in lists for x in values],
                          dtype=np.int64)
        counts = np.asarray([len(values) for values in lists],
                            dtype=np.int64)
        blobs = segment_blobs(flat, counts, policy)
        assert blobs == [encode_adjacency(np.asarray(values, dtype=np.int64),
                                          policy) for values in lists]
        adj = AdjacencyListType()
        assert [adj.decode(blob, 0)[0] for blob in blobs] == lists

    def test_empty_segments(self):
        flat = np.arange(10)
        blobs = segment_blobs(flat, np.array([5, 0, 5]), LOW)
        assert blobs[1] == b"\x00"
        adj = AdjacencyListType()
        assert adj.decode(blobs[0], 0)[0] == [0, 1, 2, 3, 4]
        assert adj.decode(blobs[2], 0)[0] == [5, 6, 7, 8, 9]


class TestAccessorLayoutPreservation:
    """An accessor write stores what the policy chooses for the result:
    the tag survives a write exactly when the policy still picks it."""

    def _graph(self, policy="adaptive", edges=None):
        cloud = MemoryCloud(ClusterConfig(
            machines=2, memory=MemoryParams(layout_policy=policy)))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        for src, dst in edges:
            builder.add_edge(src, dst)
        with checking():
            return builder.finalize()

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
        expected = [dst for _, dst in edges] + [99999999]
        assert DEFAULT_LAYOUT_POLICY.choose(expected) == LAYOUT_DELTA_VARINT
        assert self._tag_of(graph, 1) == LAYOUT_DELTA_VARINT
        assert graph.outlinks(1) == expected

    def test_append_breaking_bitmap_rechooses_layout(self):
        """An out-of-order append makes the bitmap ineligible; the write
        stores the policy's next choice, delta, which is smaller than
        raw."""
        edges = [(1, v) for v in range(1000, 1100)]
        graph = self._graph(edges=edges)
        assert self._tag_of(graph, 1) == LAYOUT_BITMAP
        graph.add_edge(1, 500)  # smaller than every neighbor: not ascending
        expected = list(range(1000, 1100)) + [500]
        assert DEFAULT_LAYOUT_POLICY.choose(expected) == LAYOUT_DELTA_VARINT
        assert self._tag_of(graph, 1) == LAYOUT_DELTA_VARINT
        assert graph.outlinks(1) == expected

    def test_setitem_on_codec_cell(self):
        edges = [(1, v) for v in range(1000, 1100)]
        graph = self._graph(edges=edges)
        with graph.use_node(1) as cell:
            cell.get("Outlinks")[0] = 999
        expected = [999] + list(range(1001, 1100))
        assert graph.outlinks(1) == expected
        # Still ascending and dense: the policy still picks the bitmap.
        assert DEFAULT_LAYOUT_POLICY.choose(expected) == LAYOUT_BITMAP
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


_NODES = 3
_FIELDS = ("Outlinks", "Inlinks")
_node = st.integers(0, _NODES - 1)
_field = st.sampled_from(_FIELDS)
_id = st.one_of(st.integers(0, 80), st.integers(0, 2 ** 40),
                st.integers(-3, -1))
_whole_list = st.one_of(
    st.lists(_id, max_size=40),
    st.lists(st.integers(0, 80), min_size=5, max_size=7),  # near delta's 8
    st.lists(st.integers(0, 120), max_size=60, unique=True).map(sorted),
    st.builds(lambda base, n: list(range(base, base + n)),
              st.integers(0, 100), st.integers(0, 70)))
_write = st.one_of(
    st.tuples(st.just("add_edge"), _node, _node),
    st.tuples(st.just("append"), _node, _field, _id),
    st.tuples(st.just("setitem"), _node, _field, st.integers(0, 10 ** 6),
              _id),
    st.tuples(st.just("set"), _node, _field, _whole_list))


class TestWritesChooseLayout:
    """After any sequence of adjacency writes, every stored list is its
    policy's choice for its contents, and decodes to a plain-list
    model of those writes."""

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    @pytest.mark.parametrize("policy", [DEFAULT_LAYOUT_POLICY, LOW,
                                        RAW_ONLY_POLICY],
                             ids=["adaptive", "low", "raw"])
    @settings(max_examples=60, deadline=None)
    @given(writes=st.lists(_write, min_size=1, max_size=30))
    def test_stored_layout_is_the_policys_choice(self, storage, policy,
                                                  writes):
        with checking():
            cloud = MemoryCloud(ClusterConfig(
                machines=2, trunk_bits=2, memory=MemoryParams(
                    storage=storage, layout_policy=policy, page_size=512,
                    page_budget=2)))
        try:
            builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
            for node in range(_NODES):
                builder.add_node(node)
            graph = builder.finalize()
            model = {(node, name): [] for node in range(_NODES)
                     for name in _FIELDS}
            for write in writes:
                self._apply(graph, model, write)
                self._check(graph, model, policy)
            cloud.verify_shadow()
        finally:
            cloud.release_arenas()

    @staticmethod
    def _apply(graph, model, write) -> None:
        kind, node, *args = write
        if kind == "add_edge":
            (dst,) = args
            graph.add_edge(node, dst)
            model[node, "Outlinks"].append(dst)
            model[dst, "Inlinks"].append(node)
            return
        name = args[0]
        values = model[node, name]
        with graph.use_node(node) as cell:
            if kind == "append":
                cell.get(name).append(args[1])
                values.append(args[1])
            elif kind == "setitem" and values:
                # an odd draw indexes from the end
                index = args[1] % len(values) - len(values) * (args[1] & 1)
                cell.get(name)[index] = args[2]
                values[index] = args[2]
            elif kind == "set":
                cell.set(name, args[1])
                model[node, name] = list(args[1])

    @staticmethod
    def _check(graph, model, policy) -> None:
        node_type = graph.graph_schema.node_type
        for (node, name), values in model.items():
            blob = graph.cloud.get(node)
            offset = node_type.field_offset(blob, name)
            adjacency = node_type.field_type(name)
            assert adjacency.stored_layout(blob, offset) == \
                policy.choose(values), (node, name, values)
            assert adjacency.decode(blob, offset)[0] == values


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
