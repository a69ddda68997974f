"""Property tests pinning the batch column decoders to the scalar path.

For any struct and any batch of records: encode each record with the
scalar TSL encoder, decode columns with
:class:`repro.tsl.batch.BatchStructDecoder`, and the results must equal
per-blob scalar decodes — including empty lists, varint count
boundaries (127/128 elements), and extreme element values.  The decoders
take one form, spans ``(buffer, starts, limits)`` over one buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaMismatchError
from repro.tsl import (
    BOOL,
    BYTE,
    DOUBLE,
    INT,
    LONG,
    SHORT,
    STRING,
    ListType,
    StructType,
)
from repro.tsl.batch import batch_decoder_for, pack_blobs

I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
I32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
I16 = st.integers(min_value=-(2 ** 15), max_value=2 ** 15 - 1)
I8 = st.integers(min_value=-128, max_value=127)

PERSON = StructType("Person", [
    ("Name", STRING),
    ("Age", INT),
    ("Friends", ListType(LONG)),
    ("Scores", ListType(DOUBLE)),
])

RECORDS = st.lists(
    st.fixed_dictionaries({
        "Name": st.text(max_size=12),
        "Age": I32,
        "Friends": st.lists(I64, max_size=20),
        "Scores": st.lists(
            st.floats(allow_nan=False, width=64), max_size=6),
    }),
    min_size=1, max_size=30,
)


# Blobs enter the decoders the way any edge caller's do: packed once into
# the span form (``pack_blobs``), then through the ``*_spans`` entry points.

def column_of(decoder, blobs, field_name):
    return decoder.decode_column_spans(*pack_blobs(blobs), field_name)


def csr_of(decoder, blobs, field_name):
    return decoder.decode_list_csr_spans(*pack_blobs(blobs), field_name)


def counts_of(decoder, blobs, field_name):
    return decoder.field_counts_spans(*pack_blobs(blobs), field_name)


def scalar_decode(struct_type, blob, field_name):
    field_type = struct_type.field_type(field_name)
    offset = struct_type.field_offset(blob, field_name)
    value, _ = field_type.decode(blob, offset)
    return value


class TestColumnRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(RECORDS)
    def test_all_columns_match_scalar(self, records):
        decoder = batch_decoder_for(PERSON)
        blobs = [PERSON.encode(r) for r in records]
        for field_name in PERSON.field_names():
            column = column_of(decoder, blobs, field_name)
            assert column == [scalar_decode(PERSON, b, field_name)
                              for b in blobs]

    @settings(max_examples=60, deadline=None)
    @given(RECORDS)
    def test_csr_matches_scalar(self, records):
        decoder = batch_decoder_for(PERSON)
        blobs = [PERSON.encode(r) for r in records]
        indptr, flat = csr_of(decoder, blobs, "Friends")
        assert indptr[0] == 0 and indptr[-1] == len(flat)
        for i, blob in enumerate(blobs):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == \
                scalar_decode(PERSON, blob, "Friends")

    @settings(max_examples=60, deadline=None)
    @given(RECORDS)
    def test_header_counts_match_scalar(self, records):
        decoder = batch_decoder_for(PERSON)
        blobs = [PERSON.encode(r) for r in records]
        counts = counts_of(decoder, blobs, "Friends")
        assert counts.tolist() == [len(r["Friends"]) for r in records]


class TestBoundaries:
    @pytest.mark.parametrize("count", [0, 1, 126, 127, 128, 129, 300])
    def test_varint_count_boundaries(self, count):
        """List counts around the one-byte varint limit."""
        decoder = batch_decoder_for(PERSON)
        record = {"Name": "x" * 130, "Age": 1,
                  "Friends": list(range(count)), "Scores": []}
        blobs = [PERSON.encode(record)] * 3
        indptr, flat = csr_of(decoder, blobs, "Friends")
        assert indptr.tolist() == [count * i for i in range(4)]
        assert flat[:count].tolist() == list(range(count))
        assert counts_of(decoder, blobs, "Friends").tolist() == [count] * 3

    def test_int64_extremes_survive(self):
        decoder = batch_decoder_for(PERSON)
        extremes = [-(2 ** 63), -1, 0, 1, 2 ** 63 - 1]
        blob = PERSON.encode({"Name": "", "Age": 0,
                              "Friends": extremes, "Scores": []})
        _, flat = csr_of(decoder, [blob], "Friends")
        assert flat.tolist() == extremes

    def test_empty_batch(self):
        decoder = batch_decoder_for(PERSON)
        indptr, flat = csr_of(decoder, [], "Friends")
        assert indptr.tolist() == [0]
        assert len(flat) == 0
        assert column_of(decoder, [], "Name") == []
        assert counts_of(decoder, [], "Friends").tolist() == []

    def test_narrow_element_dtypes(self):
        narrow = StructType("Narrow", [
            ("Bytes", ListType(BYTE)),
            ("Shorts", ListType(SHORT)),
            ("Flags", ListType(BOOL)),
        ])
        decoder = batch_decoder_for(narrow)
        record = {"Bytes": [0, 127, 255], "Shorts": [-(2 ** 15), 2 ** 15 - 1],
                  "Flags": [True, False, True]}
        blobs = [narrow.encode(record)] * 2
        for field_name in narrow.field_names():
            column = column_of(decoder, blobs, field_name)
            assert column == [scalar_decode(narrow, b, field_name)
                              for b in blobs]

    def test_non_list_field_has_no_counts(self):
        decoder = batch_decoder_for(PERSON)
        blob = PERSON.encode({"Name": "a", "Age": 1,
                              "Friends": [], "Scores": []})
        with pytest.raises(SchemaMismatchError):
            counts_of(decoder, [blob], "Age")

    def test_truncated_blob_raises(self):
        decoder = batch_decoder_for(PERSON)
        blob = PERSON.encode({"Name": "abc", "Age": 1,
                              "Friends": [1, 2, 3], "Scores": []})
        with pytest.raises(SchemaMismatchError):
            csr_of(decoder, [blob[:-5]], "Friends")


# ---------------------------------------------------------------------------
# Adjacency layouts: the batch decoders over mixed raw / delta-varint /
# bitmap cells must match the scalar path byte for byte.
# ---------------------------------------------------------------------------

from repro.config import ClusterConfig, MemoryParams  # noqa: E402
from repro.graph import GraphBuilder, plain_graph_schema  # noqa: E402
from repro.memcloud import MemoryCloud  # noqa: E402
from repro.obs import MetricsRegistry, get_registry  # noqa: E402
from repro.tsl import (  # noqa: E402
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    AdjacencyListType,
    LayoutPolicy,
)
from repro.utils.varint import decode_varint  # noqa: E402

# Thresholds low enough that hypothesis-sized lists actually exercise the
# codecs instead of short-circuiting to raw.
LOW_POLICY = LayoutPolicy(delta_min_degree=2, bitmap_min_degree=2)

ADJ = StructType("Node", [
    ("Name", STRING),
    ("Out", AdjacencyListType(policy=LOW_POLICY)),
])

# Three shapes that steer the chooser toward each codec: arbitrary i64
# (raw), non-negative arrival order (delta-eligible), strictly increasing
# (bitmap-eligible).  Mixed per record inside one batch.
_ARBITRARY = st.lists(I64, max_size=24)
_ARRIVAL = st.lists(st.integers(min_value=0, max_value=2 ** 40), max_size=24)
_ASCENDING = st.lists(
    st.integers(min_value=0, max_value=5000),
    max_size=24, unique=True).map(sorted)

ADJ_RECORDS = st.lists(
    st.fixed_dictionaries({
        "Name": st.text(max_size=8),
        "Out": st.one_of(_ARBITRARY, _ARRIVAL, _ASCENDING),
    }),
    min_size=1, max_size=25,
)


def stored_tags(blobs):
    tags = set()
    for blob in blobs:
        offset = ADJ.field_offset(blob, "Out")
        header, _ = decode_varint(blob, offset)
        tags.add(header & 3)
    return tags


class TestAdjacencyColumnRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(ADJ_RECORDS)
    def test_csr_matches_scalar_across_layouts(self, records):
        decoder = batch_decoder_for(ADJ)
        blobs = [ADJ.encode(r) for r in records]
        indptr, flat = csr_of(decoder, blobs, "Out")
        assert indptr[0] == 0 and indptr[-1] == len(flat)
        for i, blob in enumerate(blobs):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == \
                scalar_decode(ADJ, blob, "Out")

    @settings(max_examples=80, deadline=None)
    @given(ADJ_RECORDS)
    def test_counts_and_column_match_scalar(self, records):
        decoder = batch_decoder_for(ADJ)
        blobs = [ADJ.encode(r) for r in records]
        assert counts_of(decoder, blobs, "Out").tolist() == \
            [len(scalar_decode(ADJ, b, "Out")) for b in blobs]
        assert column_of(decoder, blobs, "Out") == \
            [scalar_decode(ADJ, b, "Out") for b in blobs]

    def test_one_batch_really_mixes_all_three_layouts(self):
        """Guard the test itself: a hand-built batch holds all 3 tags
        and still decodes identically through the columnar path."""
        records = [
            {"Name": "raw", "Out": [-5, 3]},
            {"Name": "delta", "Out": [900, 14, 900, 2 ** 40]},
            {"Name": "bitmap", "Out": list(range(64, 96))},
            {"Name": "empty", "Out": []},
        ]
        blobs = [ADJ.encode(r) for r in records]
        assert stored_tags(blobs) == {LAYOUT_RAW, LAYOUT_DELTA_VARINT,
                                      LAYOUT_BITMAP}
        decoder = batch_decoder_for(ADJ)
        indptr, flat = csr_of(decoder, blobs, "Out")
        for i, record in enumerate(records):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == record["Out"]
        assert counts_of(decoder, blobs, "Out").tolist() == \
            [len(r["Out"]) for r in records]


class TestArbitrarySpans:
    """What only the span form can express: the spans of one batch need
    not tile the buffer.  A trunk arena hands them out in routing order,
    with other cells' bytes in between and — were ids not deduplicated
    upstream — the same cell more than once."""

    @settings(max_examples=60, deadline=None)
    @given(ADJ_RECORDS, st.data())
    def test_out_of_order_gapped_repeated_spans_match_scalar(self, records,
                                                             data):
        decoder = batch_decoder_for(ADJ)
        blobs = [ADJ.encode(r) for r in records]
        gaps = data.draw(st.lists(st.binary(max_size=9), min_size=len(blobs),
                                  max_size=len(blobs)))
        picks = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(blobs) - 1),
            min_size=1, max_size=2 * len(blobs)))
        buf, starts, limits = pack_blobs(
            [part for pair in zip(gaps, blobs) for part in pair])
        starts, limits = starts[1::2][picks], limits[1::2][picks]
        picked = [blobs[i] for i in picks]
        indptr, flat = decoder.decode_list_csr_spans(buf, starts, limits,
                                                     "Out")
        assert [flat[indptr[i]:indptr[i + 1]].tolist()
                for i in range(len(picks))] == \
            [scalar_decode(ADJ, b, "Out") for b in picked]
        assert decoder.field_counts_spans(buf, starts, limits,
                                          "Out").tolist() == \
            [len(scalar_decode(ADJ, b, "Out")) for b in picked]
        for field_name in ADJ.field_names():
            assert decoder.decode_column_spans(buf, starts, limits,
                                               field_name) == \
                [scalar_decode(ADJ, b, field_name) for b in picked]
        name = scalar_decode(ADJ, picked[0], "Name")
        assert decoder.string_eq_spans(buf, starts, limits, "Name",
                                       name).tolist() == \
            [scalar_decode(ADJ, b, "Name") == name for b in picked]


class TestFallbackIsCounted:
    """A drop from the vector path to the scalar reference is a perf
    cliff; ``tsl.batch.fallback{op}`` makes it visible."""

    TAGGED = StructType("Tagged", [
        ("Tags", ListType(STRING)),     # not vectorizable in a skip chain
        ("Name", STRING),
        ("Out", AdjacencyListType(policy=LOW_POLICY)),
    ])

    @staticmethod
    def _fallbacks():
        return {op: get_registry().counter("tsl.batch.fallback", op=op).value
                for op in ("counts", "csr", "column", "string_eq")}

    def test_list_of_string_predecessor_increments_every_op(self):
        struct = self.TAGGED
        decoder = batch_decoder_for(struct)
        records = [{"Tags": ["a", "bc"], "Name": "n1", "Out": [1, 2, 3]},
                   {"Tags": [], "Name": "n2", "Out": []}]
        blobs = [struct.encode(r) for r in records]
        before = self._fallbacks()
        assert counts_of(decoder, blobs, "Out").tolist() == [3, 0]
        indptr, flat = csr_of(decoder, blobs, "Out")
        assert (indptr.tolist(), flat.tolist()) == ([0, 3, 3], [1, 2, 3])
        assert column_of(decoder, blobs, "Name") == ["n1", "n2"]
        assert decoder.string_eq_spans(*pack_blobs(blobs), "Name",
                                       "n2").tolist() == [False, True]
        assert self._fallbacks() == {op: n + 1 for op, n in before.items()}

    def test_plain_social_graph_read_does_not(self):
        from repro.graph import social_graph_schema
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=2),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, social_graph_schema())
        for node_id in range(30):
            builder.add_node(node_id, Name=f"p{node_id % 7}")
            builder.add_edge(node_id, (node_id * 7 + 1) % 30)
        graph = builder.finalize()
        ids = np.arange(30)
        before = self._fallbacks()
        graph.outlinks_batch(ids, cross_check=True)
        graph.degree_batch(ids, cross_check=True)
        graph.read_field_batch(ids, "Name", cross_check=True)
        assert graph.field_eq_batch(ids, "Name", "p3", cross_check=True).any()
        assert self._fallbacks() == before


class TestAdjacencyCanonicalErrors:
    """Corrupt codec payloads raise the same SchemaMismatchError from the
    batch path as from the scalar path — never a wrong answer."""

    def _corrupt_cases(self):
        adj = ADJ.field_type("Out")
        delta = adj.encode_with_layout(list(range(16)), LAYOUT_DELTA_VARINT)
        bitmap = adj.encode_with_layout(list(range(8, 72)), LAYOUT_BITMAP)
        cleared = bytearray(bitmap)
        cleared[-1] &= 0x7F  # popcount no longer matches the count header
        return [
            delta[:-2],                         # truncated delta stream
            bitmap[:-1],                        # truncated bitset
            bytes(cleared),                     # popcount mismatch
            bytes([(1 << 2) | 3]) + b"\x00" * 8,  # reserved tag 3
        ]

    def _blob_with_out(self, out_bytes):
        good = ADJ.encode({"Name": "x", "Out": []})
        offset = ADJ.field_offset(good, "Out")
        return good[:offset] + out_bytes

    @pytest.mark.parametrize("case", range(4))
    def test_batch_and_scalar_agree_on_corruption(self, case):
        bad = self._blob_with_out(self._corrupt_cases()[case])
        with pytest.raises(SchemaMismatchError):
            scalar_decode(ADJ, bad, "Out")
        decoder = batch_decoder_for(ADJ)
        with pytest.raises(SchemaMismatchError):
            csr_of(decoder, [bad], "Out")


class TestAdjacencyThroughStorageTiers:
    """End to end: bulk-load under an adaptive policy, then read through
    the Graph batch surface with cross_check on, per storage tier."""

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    @pytest.mark.parametrize("policy", ["adaptive", "raw"])
    def test_cross_checked_reads(self, storage, policy):
        rng = np.random.default_rng(17)
        cloud = MemoryCloud(ClusterConfig(machines=2, memory=MemoryParams(
            storage=storage, layout_policy=policy)))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        expected = {}
        for src in range(40):
            if src % 3 == 0:
                out = sorted(set(rng.integers(0, 400, 60).tolist()))
            elif src % 3 == 1:
                out = rng.integers(0, 2 ** 40, 20).tolist()
            else:
                out = rng.integers(0, 40, 3).tolist()
            expected[src] = [int(v) for v in out]
            for dst in expected[src]:
                builder.add_edge(src, dst)
        graph = builder.finalize(cross_check=True)
        node_ids = sorted(expected)
        indptr, flat = graph.read_field_csr(node_ids, "Outlinks",
                                            cross_check=True)
        for i, uid in enumerate(node_ids):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == expected[uid]
        assert graph.degree_batch(node_ids, cross_check=True).tolist() == \
            [len(expected[uid]) for uid in node_ids]

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    def test_adaptive_and_raw_clouds_agree(self, storage):
        """Same edges, both policies, both tiers: identical answers."""
        rng = np.random.default_rng(23)
        edges = [(int(s), int(d)) for s, d in
                 zip(rng.integers(0, 30, 400), rng.integers(0, 3000, 400))]
        results = []
        for policy in ("adaptive", "raw"):
            cloud = MemoryCloud(ClusterConfig(machines=2, memory=MemoryParams(
                storage=storage, layout_policy=policy)))
            builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
            for src, dst in edges:
                builder.add_edge(src, dst)
            graph = builder.finalize(cross_check=True)
            node_ids = sorted(graph.node_ids)
            indptr, flat = graph.read_field_csr(node_ids, "Outlinks",
                                                cross_check=True)
            results.append((node_ids, indptr.tolist(), flat.tolist()))
        assert results[0] == results[1]
