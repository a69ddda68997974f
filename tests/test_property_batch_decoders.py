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
from repro.oracle import checking  # noqa: E402
from repro.tsl import (  # noqa: E402
    LAYOUT_BITMAP,
    LAYOUT_DELTA_VARINT,
    LAYOUT_RAW,
    AdjacencyListType,
    LayoutPolicy,
)
from repro.utils.varint import decode_varint  # noqa: E402

from ._layouts import encode_as  # noqa: E402

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
        with checking():
            graph.outlinks_batch(ids)
            graph.degree_batch(ids)
            graph.read_field_batch(ids, "Name")
            assert graph.field_eq_batch(ids, "Name", "p3").any()
        assert self._fallbacks() == before

    @staticmethod
    def _encode_fallbacks():
        return get_registry().counter("tsl.batch.fallback", op="encode").value

    @pytest.mark.parametrize("field_type,value", [
        (ListType(LONG), [1, [2, 3]]),      # nested: the cast refuses it
        (ListType(INT), [1, 2 ** 40]),      # out of range for the dtype
        (STRING, b"bytes"),                 # a string column's non-str
    ])
    def test_irregular_column_encode_is_counted(self, field_type, value):
        from repro.tsl import batch_encoder_for
        struct = StructType("Irregular", [("Field", field_type)])
        records = [{"Field": field_type.default()}, {"Field": value}]
        before = self._encode_fallbacks()
        with pytest.raises(SchemaMismatchError):
            struct.encode(records[1])
        with pytest.raises(SchemaMismatchError):
            batch_encoder_for(struct).encode_many(records)
        assert self._encode_fallbacks() == before + 1

    def test_spine_shaped_social_load_encodes_without_fallback(self):
        from repro.generators import rmat_edges
        from repro.generators.names import sample_names
        from repro.graph import social_graph_schema
        cloud = MemoryCloud(ClusterConfig(machines=4, trunk_bits=4),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, social_graph_schema())
        for node_id, name in enumerate(sample_names(1 << 9, seed=43)):
            builder.add_node(node_id, Name=name)
        builder.add_edges(rmat_edges(9, avg_degree=8, seed=42))
        before = self._encode_fallbacks()
        with checking():
            builder.finalize()
        assert self._encode_fallbacks() == before


class TestAdjacencyCanonicalErrors:
    """Corrupt codec payloads raise the same SchemaMismatchError from the
    batch path as from the scalar path — never a wrong answer."""

    def _corrupt_cases(self):
        delta = encode_as(list(range(16)), LAYOUT_DELTA_VARINT)
        bitmap = encode_as(list(range(8, 72)), LAYOUT_BITMAP)
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
    the Graph batch surface, checked, per storage tier."""

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
        with checking():
            graph = builder.finalize()
            node_ids = sorted(expected)
            indptr, flat = graph.read_field_csr(node_ids, "Outlinks")
            degrees = graph.degree_batch(node_ids).tolist()
        for i, uid in enumerate(node_ids):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == expected[uid]
        assert degrees == [len(expected[uid]) for uid in node_ids]

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
            with checking():
                graph = builder.finalize()
                node_ids = sorted(graph.node_ids)
                indptr, flat = graph.read_field_csr(node_ids, "Outlinks")
            results.append((node_ids, indptr.tolist(), flat.tolist()))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Corrupt input: each op answers what the scalar decoder answers per blob,
# or raises the exception class it raises.
# ---------------------------------------------------------------------------

from repro.graph import Graph, social_graph_schema  # noqa: E402
from repro.memcloud import CELL_HEADER_BYTES  # noqa: E402
from repro.utils.hashing import trunk_of  # noqa: E402
from repro.utils.varint import encode_varint, zigzag_encode  # noqa: E402

MIXED = StructType("Mixed", [
    ("Age", INT),                       # the fixed prefix
    ("Name", STRING),
    ("Score", DOUBLE),                  # fixed, after a variable field
    ("Ids", ListType(SHORT)),
    ("Out", AdjacencyListType(policy=LOW_POLICY)),
    ("Title", STRING),
    ("Tags", ListType(STRING)),         # every later field: located per blob
    ("In", AdjacencyListType(policy=LOW_POLICY)),
    ("Nick", STRING),
    ("Rank", LONG),
])
_NEIGHBORS = st.one_of(_ARBITRARY, _ARRIVAL, _ASCENDING)
MIXED_RECORDS = st.lists(
    st.fixed_dictionaries({
        "Age": I32,
        "Name": st.text(max_size=6),
        "Score": st.floats(width=64),
        "Ids": st.lists(I16, max_size=5),
        "Out": _NEIGHBORS,
        "Title": st.text(max_size=6),
        "Tags": st.lists(st.text(max_size=3), max_size=3),
        "In": _NEIGHBORS,
        "Nick": st.text(max_size=6),
        "Rank": I64,
    }),
    min_size=1, max_size=6,
)
# Patches beside arbitrary bytes: varints at, just below and past 2**63.
_PATCHES = st.one_of(
    st.binary(min_size=1, max_size=10),
    st.sampled_from([b"\xff" * 9 + b"\x00", b"\xff" * 9 + b"\x01",
                     b"\x80" * 9 + b"\x04", b"\x80" * 10 + b"\x01"]),
)


@st.composite
def corrupted_batches(draw):
    """A batch of ``MIXED`` blobs with one of them truncated, overwritten
    in place or flipped in one bit."""
    records = draw(MIXED_RECORDS)
    blobs = [MIXED.encode(record) for record in records]
    victim = draw(st.integers(0, len(blobs) - 1))
    blob = bytearray(blobs[victim])
    at = draw(st.integers(0, len(blob) - 1))
    kind = draw(st.sampled_from(["truncate", "overwrite", "flip"]))
    if kind == "truncate":
        del blob[at:]
    elif kind == "overwrite":
        patch = draw(_PATCHES)[:len(blob) - at]
        blob[at:at + len(patch)] = patch
    else:
        blob[at] ^= 1 << draw(st.integers(0, 7))
    blobs[victim] = bytes(blob)
    return records, blobs


def outcome(call):
    """``("ok", repr(answer))`` or ``("raised", exception class)``; repr
    so that a NaN read back from corrupt bytes equals itself."""
    try:
        return "ok", repr(call())
    except Exception as exc:    # the class is the answer
        return "raised", type(exc)


def scalar_count(struct_type, blob, field_name):
    field_type = struct_type.field_type(field_name)
    offset = struct_type.field_offset(blob, field_name)
    return field_type.decode_count(blob, offset)[0]


class TestCorruptBlobsMatchScalar:
    """One corrupt blob in a batch: counts, CSR, column and string
    equality each give the per-blob scalar answer or raise its exception
    class, over every vectorized predecessor and past a ``List<string>``
    one (whose followers are located per blob)."""

    LISTS = ["Ids", "Out", "Tags", "In"]
    CSR = ["Ids", "Out", "In"]
    STRINGS = ["Name", "Title", "Nick"]

    @settings(max_examples=200, deadline=None)
    @given(corrupted_batches())
    def test_every_op_matches_scalar(self, case):
        records, blobs = case
        decoder = batch_decoder_for(MIXED)
        spans = pack_blobs(blobs)

        def csr(field_name):
            indptr, flat = decoder.decode_list_csr_spans(*spans, field_name)
            return [flat[indptr[i]:indptr[i + 1]].tolist()
                    for i in range(len(blobs))]

        for field_name in self.LISTS:
            assert outcome(lambda: decoder.field_counts_spans(
                *spans, field_name).tolist()) == outcome(
                lambda: [scalar_count(MIXED, b, field_name) for b in blobs])
        for field_name in self.CSR:
            assert outcome(lambda: csr(field_name)) == outcome(
                lambda: [scalar_decode(MIXED, b, field_name) for b in blobs])
        for field_name in MIXED.field_names():
            assert outcome(lambda: decoder.decode_column_spans(
                *spans, field_name)) == outcome(
                lambda: [scalar_decode(MIXED, b, field_name) for b in blobs])
        for field_name in self.STRINGS + ["Age"]:
            value = records[0][field_name]
            assert outcome(lambda: decoder.string_eq_spans(
                *spans, field_name, value).tolist()) == outcome(
                lambda: [self._scalar_eq(b, field_name, value)
                         for b in blobs])

    @staticmethod
    def _scalar_eq(blob, field_name, value):
        """Decode, then compare — except that a string that is not valid
        utf-8 equals nothing: ``string_eq_spans`` compares bytes and never
        decodes them."""
        try:
            return scalar_decode(MIXED, blob, field_name) == value
        except UnicodeDecodeError:
            return False

    def test_invalid_utf8_compares_unequal_where_decoding_raises(self):
        decoder = batch_decoder_for(MIXED)
        good = MIXED.encode({"Name": "ab", "Nick": "ab"})
        at = good.index(b"ab")
        bad = good[:at] + b"\xff\xfe" + good[at + 2:]
        for blob in (good, bad):        # Name is decoded whole in the bad one
            assert scalar_decode(MIXED, blob, "Nick") == "ab"
        with pytest.raises(UnicodeDecodeError):
            scalar_decode(MIXED, bad, "Name")
        with pytest.raises(UnicodeDecodeError):
            column_of(decoder, [good, bad], "Name")
        assert decoder.string_eq_spans(*pack_blobs([good, bad]), "Name",
                                       "ab").tolist() == [True, False]

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    @settings(max_examples=60, deadline=None)
    @given(case=corrupted_batches())
    def test_reads_cut_to_the_field_match_scalar(self, storage, case):
        """The same ops over a cloud read given each field's clip (a
        resident read copies only the field's bytes) answer or raise as
        the scalar decoder does on the whole blob."""
        records, blobs = case
        decoder = batch_decoder_for(MIXED)
        cloud = _small_cloud(storage)
        try:
            uids = list(range(len(blobs)))
            cloud.bulk_put(uids, blobs)
            for field_name in MIXED.field_names():
                assert outcome(lambda: _read_cut(
                    cloud, decoder, uids, field_name,
                    decoder.decode_column_spans)) == outcome(
                    lambda: [scalar_decode(MIXED, b, field_name)
                             for b in blobs])
            for field_name in self.LISTS:
                assert outcome(lambda: _read_cut(
                    cloud, decoder, uids, field_name,
                    decoder.field_counts_spans)) == outcome(
                    lambda: [scalar_count(MIXED, b, field_name)
                             for b in blobs])
            for field_name in self.STRINGS + ["Age"]:
                value = records[0][field_name]
                assert outcome(lambda: _read_cut(
                    cloud, decoder, uids, field_name,
                    lambda *spans: decoder.string_eq_spans(*spans, value)
                )) == outcome(lambda: [self._scalar_eq(b, field_name, value)
                                       for b in blobs])
        finally:
            cloud.release_arenas()


def _small_cloud(storage: str, trunk_size: int = 64 * 1024) -> MemoryCloud:
    """Two trunks; a paged one keeps two 64-byte pages resident."""
    memory = MemoryParams(trunk_size=trunk_size, storage=storage,
                          page_size=64, page_budget=2)
    return MemoryCloud(ClusterConfig(machines=1, trunk_bits=1,
                                     memory=memory), MetricsRegistry())


def _read_cut(cloud, decoder, uids, field_name, op) -> list:
    """``op(buffer, starts, limits, field_name)`` over one read of
    ``uids`` given the field's clip, back in input order."""
    read = cloud.bulk_get_spans(uids, clip=decoder.clip(field_name))
    values = op(read.buffer, read.starts, read.limits, field_name)
    read.assert_fresh()
    out = [None] * len(uids)
    for i, value in zip(read.positions.tolist(), list(values)):
        out[i] = value.item() if isinstance(value, np.generic) else value
    return out


#: A ``List<fixed>`` at a static offset, cut at its count's elements.
_LEADING_LIST = StructType("Leading", [("Ids", ListType(SHORT)),
                                       ("Rank", LONG)])
_RANK = LONG.encode(9)


@pytest.mark.parametrize("storage", ["resident", "paged"])
@pytest.mark.parametrize("cell", [
    encode_varint(0) + _RANK,
    encode_varint(1) + b"\x07\x00" + _RANK,
    encode_varint(200) + b"\x01\x00" * 200 + _RANK,  # a two-byte count
    encode_varint(3) + b"\x01\x00" * 3,              # ends the cell
    encode_varint(50) + b"\x01\x00" * 3 + _RANK,     # count overruns
    b"\xc8",                                         # count cut short
    b"",
])
def test_a_leading_list_reads_as_the_scalar_does(storage, cell):
    blobs = [_LEADING_LIST.encode({"Ids": [5, -6], "Rank": 9}), cell]
    decoder = batch_decoder_for(_LEADING_LIST)
    cloud = _small_cloud(storage)
    try:
        uids = list(range(len(blobs)))
        cloud.bulk_put(uids, blobs)
        for field_name in ("Ids", "Rank"):
            assert outcome(lambda: _read_cut(
                cloud, decoder, uids, field_name,
                decoder.decode_column_spans)) == outcome(
                lambda: [scalar_decode(_LEADING_LIST, b, field_name)
                         for b in blobs])
        assert outcome(lambda: _read_cut(
            cloud, decoder, uids, "Ids", decoder.field_counts_spans)) == \
            outcome(lambda: [scalar_count(_LEADING_LIST, b, "Ids")
                             for b in blobs])
    finally:
        cloud.release_arenas()


_SOCIAL = social_graph_schema()
_FRIENDS = _SOCIAL.node_type.field_type("Friends").encode([3, 1, 2])


def _person(name: str) -> bytes:
    return _SOCIAL.node_type.encode({"Name": name, "Friends": [3, 1, 2]})


#: ``Name`` fields the clip must read as the scalar path does.
_NAME_CELLS = {
    "length overruns its cell": encode_varint(40) + b"abc",
    "length cut by the cell": b"\x80",
    "two-byte length": _person("x" * 200),
    "three-byte length": _person("y" * 16400),
    "non-canonical length": b"\x83\x00abc" + _FRIENDS,
    "ten-byte length": b"\x83" + b"\x80" * 8 + b"\x00abc" + _FRIENDS,
    "ends at the span limit": STRING.encode("abc"),
    "empty name": _person(""),
    "empty cell": b"",
    "shorter than a word": b"\x02hi",
    "invalid utf-8": b"\x03\xffab" + _FRIENDS,
}


class TestClippedReadsMatchScalar:
    """A resident ``Name`` read copies the field's bytes only, cut at the
    end its length varint gives.  Cells built by hand, each stored with
    its payload starting at every offset in an 8-byte word, answer
    ``field_eq_batch`` and ``read_field_batch`` value for value and
    error for error as the scalar reads do, on both tiers."""

    VALUES = ("abc", "", "x" * 200, "hi")

    @pytest.fixture(scope="class", params=["resident", "paged"])
    def placed(self, request):
        """``(graph, good uids, {case: [uid per word offset]})``: every
        case stored eight times, behind a filler sized to start it at
        each offset."""
        cloud = _small_cloud(request.param, trunk_size=1 << 20)
        trunk = cloud.trunks[0]
        uids = iter(u for u in range(1 << 20) if trunk_of(u, 1) == 0)
        good = [next(uids) for _ in range(2)]
        for uid, name in zip(good, ("abc", "Mary")):
            cloud.put(uid, _person(name))
        placed = {}
        for case, blob in _NAME_CELLS.items():
            placed[case] = []
            for offset in range(8):
                # a cell is a 16-byte header and its payload, laid end on
                # end: size the filler to put the next payload at offset
                tail = trunk.stats().reserved_bytes + 2 * CELL_HEADER_BYTES
                cloud.put(next(uids), b"\x00" * ((offset - tail) % 8))
                uid = next(uids)
                cloud.put(uid, blob)
                placed[case].append(uid)
        _, keys, states, starts, _ = trunk.span_table()
        live = states == 1
        start_of = dict(zip(keys[live].tolist(), starts[live].tolist()))
        for victims in placed.values():
            assert [start_of[uid] % 8 for uid in victims] == list(range(8))
        node_ids = good + [uid for victims in placed.values()
                           for uid in victims]
        yield Graph(cloud, _SOCIAL, node_ids), good, placed
        cloud.release_arenas()

    @pytest.mark.parametrize("case", list(_NAME_CELLS))
    def test_name_reads_match_scalar(self, placed, case):
        graph, good, victims = placed
        for uid in victims[case]:
            ids = [good[0], uid, good[1]]
            assert outcome(lambda: graph.read_field_batch(ids, "Name")) == \
                outcome(lambda: [graph.read_field(i, "Name") for i in ids])
            for value in self.VALUES:
                assert outcome(lambda: graph.field_eq_batch(
                    ids, "Name", value).tolist()) == outcome(
                    lambda: [self._scalar_eq(graph, i, value) for i in ids])

    @staticmethod
    def _scalar_eq(graph, uid, value):
        try:
            return graph.read_field(uid, "Name") == value
        except UnicodeDecodeError:      # compared as bytes, never decoded
            return False


def _adjacency_out(tag: int, count: int, *varints: int,
                   payload: bytes = b"") -> bytes:
    """An ``Out`` field written by hand: header, varints, payload."""
    return b"".join(encode_varint(v) for v in ((count << 2) | tag,
                                               *varints)) + payload


def _blob_with_out(out_bytes: bytes) -> bytes:
    good = ADJ.encode({"Name": "x", "Out": []})
    return good[:ADJ.field_offset(good, "Out")] + out_bytes


class TestVarintsPastInt64:
    """A varint at or above 2**63 is no TSL value: every path raises
    ``SchemaMismatchError`` for it (the batch path once leaked numpy's
    ``OverflowError`` packing it into int64)."""

    BITMAP_BASE = _blob_with_out(
        _adjacency_out(LAYOUT_BITMAP, 1, 2 ** 63, 1, payload=b"\x01"))
    HEADER = _blob_with_out(encode_varint(2 ** 65))

    def test_bitmap_base(self):
        decoder = batch_decoder_for(ADJ)
        with pytest.raises(SchemaMismatchError):
            scalar_decode(ADJ, self.BITMAP_BASE, "Out")
        with pytest.raises(SchemaMismatchError):
            csr_of(decoder, [self.BITMAP_BASE], "Out")
        with pytest.raises(SchemaMismatchError):
            column_of(decoder, [self.BITMAP_BASE], "Out")

    def test_adjacency_header(self):
        decoder = batch_decoder_for(ADJ)
        with pytest.raises(SchemaMismatchError):
            scalar_count(ADJ, self.HEADER, "Out")
        with pytest.raises(SchemaMismatchError):
            counts_of(decoder, [self.HEADER], "Out")

    def test_a_field_located_past_int64(self):
        """A length just below 2**63 puts the next field past what an
        offset can hold: a short blob on both paths (the scalar decoder
        once leaked ``struct``'s ``OverflowError``)."""
        struct = StructType("Far", [("Name", STRING), ("Rank", LONG)])
        blob = b"\xff" * 8 + b"\x7f" + b"\x00" * 8
        with pytest.raises(SchemaMismatchError):
            scalar_decode(struct, blob, "Rank")
        with pytest.raises(SchemaMismatchError):
            column_of(batch_decoder_for(struct), [blob], "Rank")

    def test_bitmap_ids_past_int64(self):
        """A base below 2**63 whose set bits reach past it."""
        blob = _blob_with_out(_adjacency_out(
            LAYOUT_BITMAP, 8, 2 ** 63 - 4, 1, payload=b"\xff"))
        decoder = batch_decoder_for(ADJ)
        with pytest.raises(SchemaMismatchError, match="overflows int64"):
            scalar_decode(ADJ, blob, "Out")
        with pytest.raises(SchemaMismatchError, match="overflows int64"):
            csr_of(decoder, [blob], "Out")


def _delta_out(values) -> bytes:
    """A delta-varint ``Out`` field for ``values``, whatever their sign."""
    deltas = [values[0]] + [b - a for a, b in zip(values, values[1:])]
    payload = b"".join(encode_varint(zigzag_encode(d)) for d in deltas)
    return _adjacency_out(LAYOUT_DELTA_VARINT, len(values), len(payload),
                          payload=payload)


class TestDeltaStreams:
    """Delta payloads the encoder never writes decode exactly as the
    scalar decoder decodes them, or fail where it fails."""

    ORDINARY = _blob_with_out(_delta_out([10, 900, 14, 2 ** 40]))

    @pytest.mark.parametrize("values", [
        [-5, 3, -1000, 7],
        [-(2 ** 62), 2 ** 62 - 1, -1],
        [-(2 ** 63), -1, 2 ** 62],
        [2 ** 62, -(2 ** 62), -(2 ** 63)],
    ])
    def test_negative_ids_decode_as_the_scalar_does(self, values):
        blobs = [self.ORDINARY, _blob_with_out(_delta_out(values))]
        assert scalar_decode(ADJ, blobs[1], "Out") == values
        decoder = batch_decoder_for(ADJ)
        indptr, flat = csr_of(decoder, blobs, "Out")
        assert flat[indptr[1]:].tolist() == values
        assert column_of(decoder, blobs, "Out") == \
            [scalar_decode(ADJ, b, "Out") for b in blobs]

    @pytest.mark.parametrize("deltas", [
        [2 ** 62, 2 ** 62],                         # the second id
        [5, 2 ** 62, 2 ** 62, 1],                   # partway through
        [-(2 ** 62), -(2 ** 62), -(2 ** 62)],       # -2**63 fits; below not
    ])
    def test_int64_overflow_raises_from_both_paths(self, deltas):
        payload = b"".join(encode_varint(zigzag_encode(d)) for d in deltas)
        blob = _blob_with_out(_adjacency_out(
            LAYOUT_DELTA_VARINT, len(deltas), len(payload), payload=payload))
        with pytest.raises(SchemaMismatchError, match="overflows int64"):
            scalar_decode(ADJ, blob, "Out")
        with pytest.raises(SchemaMismatchError, match="overflows int64"):
            csr_of(batch_decoder_for(ADJ), [self.ORDINARY, blob], "Out")

    def test_a_code_past_64_bits_is_corrupt_on_both_paths(self):
        code = b"\x80" * 9 + b"\x02"                # 2**64 in ten bytes
        blob = _blob_with_out(_adjacency_out(
            LAYOUT_DELTA_VARINT, 2, len(code) + 1, payload=b"\x04" + code))
        with pytest.raises(SchemaMismatchError, match="corrupt"):
            scalar_decode(ADJ, blob, "Out")
        with pytest.raises(SchemaMismatchError, match="corrupt"):
            csr_of(batch_decoder_for(ADJ), [blob], "Out")
