"""Tests for repro.utils.varint — including the pinned cross-test.

``utils/varint.py`` is the single LEB128 implementation in the tree:
the vectorized batch forms (``read_varints``/``decode_varint_run``/
``encode_varints``) and the scalar codec must agree byte for byte.
``read_varints`` is what the batch decoders read TSL varints with, so
it raises what ``decode_int64_varint`` raises, where it raises it.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaMismatchError
from repro.utils.varint import (
    decode_int64_varint,
    decode_varint,
    decode_varint_run,
    encode_varint,
    encode_varints,
    read_varints,
    varint_lengths,
    zigzag_decode,
    zigzag_encode,
)

U64 = st.integers(min_value=0, max_value=2 ** 64 - 1)
I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)

# Known-answer vectors: value -> LEB128 bytes.  These pin the wire
# format itself, not just scalar/vector agreement.
PINNED = [
    (0, b"\x00"),
    (1, b"\x01"),
    (127, b"\x7f"),
    (128, b"\x80\x01"),
    (300, b"\xac\x02"),
    (16383, b"\xff\x7f"),
    (16384, b"\x80\x80\x01"),
    (2 ** 32 - 1, b"\xff\xff\xff\xff\x0f"),
    (2 ** 63 - 1, b"\xff\xff\xff\xff\xff\xff\xff\xff\x7f"),
    (2 ** 64 - 1, b"\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"),
]


class TestEncode:
    def test_zero_is_one_byte(self):
        assert encode_varint(0) == b"\x00"

    def test_small_values_single_byte(self):
        for value in range(128):
            assert len(encode_varint(value)) == 1

    def test_128_takes_two_bytes(self):
        assert encode_varint(128) == b"\x80\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_64_bit_max(self):
        value = 2**64 - 1
        assert len(encode_varint(value)) == 10


class TestDecode:
    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip(self, value):
        encoded = encode_varint(value)
        decoded, offset = decode_varint(encoded)
        assert decoded == value
        assert offset == len(encoded)

    @given(st.lists(st.integers(min_value=0, max_value=2**40),
                    min_size=1, max_size=20))
    def test_roundtrip_stream(self, values):
        buf = b"".join(encode_varint(v) for v in values)
        offset = 0
        out = []
        for _ in values:
            value, offset = decode_varint(buf, offset)
            out.append(value)
        assert out == values
        assert offset == len(buf)

    def test_decode_with_offset(self):
        buf = b"\xff" + encode_varint(300)
        value, offset = decode_varint(buf, 1)
        assert value == 300
        assert offset == len(buf)

    def test_truncated_raises(self):
        with pytest.raises(ValueError, match="truncated"):
            decode_varint(b"\x80")

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"")

    def test_overlong_raises(self):
        with pytest.raises(ValueError, match="64 bits"):
            decode_varint(b"\x80" * 10 + b"\x01")

    def test_works_on_bytearray_and_memoryview(self):
        encoded = bytearray(encode_varint(77))
        assert decode_varint(encoded)[0] == 77
        assert decode_varint(memoryview(encoded))[0] == 77


class TestPinnedVectors:
    @pytest.mark.parametrize("value,expected", PINNED)
    def test_scalar_encode(self, value, expected):
        assert encode_varint(value) == expected

    @pytest.mark.parametrize("value,expected", PINNED)
    def test_scalar_decode(self, value, expected):
        assert decode_varint(expected, 0) == (value, len(expected))

    def test_vector_encode_matches_pins(self):
        values = np.array([v for v, _ in PINNED], dtype=np.uint64)
        stream, lengths = encode_varints(values)
        assert stream.tobytes() == b"".join(e for _, e in PINNED)
        assert lengths.tolist() == [len(e) for _, e in PINNED]

    def test_vector_decode_matches_pins(self):
        """read_varints agrees with the pins for values below 2**63
        (int64-representable; larger ones raise, see below)."""
        small = [(v, e) for v, e in PINNED if v < 2 ** 63]
        blob = b"".join(e for _, e in small)
        buf = np.frombuffer(blob, dtype=np.uint8)
        starts = np.cumsum([0] + [len(e) for _, e in small[:-1]])
        limits = np.full(len(small), len(blob), dtype=np.int64)
        values, out = read_varints(buf, np.asarray(starts, dtype=np.int64),
                                   limits)
        assert values.tolist() == [v for v, _ in small]
        assert out.tolist() == np.cumsum(
            [len(e) for _, e in small]).tolist()


class TestScalarVectorAgreement:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(U64, min_size=1, max_size=64))
    def test_encode_agreement(self, values):
        stream, lengths = encode_varints(np.asarray(values, dtype=np.uint64))
        assert stream.tobytes() == b"".join(
            encode_varint(v) for v in values)
        assert lengths.tolist() == [len(encode_varint(v)) for v in values]

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2 ** 63 - 1),
                    min_size=1, max_size=64))
    def test_decode_agreement(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        buf = np.frombuffer(blob, dtype=np.uint8)
        starts = np.zeros(len(values), dtype=np.int64)
        sizes = [len(encode_varint(v)) for v in values]
        np.cumsum(sizes[:-1], out=starts[1:])
        limits = np.full(len(values), len(blob), dtype=np.int64)
        decoded, out = read_varints(buf, starts, limits)
        assert decoded.tolist() == values
        scalar = []
        pos = 0
        while pos < len(blob):
            value, pos = decode_varint(blob, pos)
            scalar.append(value)
        assert decoded.tolist() == scalar

    def test_lengths_match_scalar(self):
        values = np.array([0, 1, 127, 128, 2 ** 62, 2 ** 64 - 1],
                          dtype=np.uint64)
        assert varint_lengths(values).tolist() == \
            [len(encode_varint(int(v))) for v in values]


def scalar_run(buf, offset, count):
    """The reference: ``count`` chained ``decode_varint`` calls."""
    values = []
    for _ in range(count):
        value, offset = decode_varint(buf, offset)
        values.append(value)
    return values, offset


# Values drawn per encoded length, so every 1- to 10-byte code turns up.
BY_LENGTH = st.integers(min_value=1, max_value=10).flatmap(
    lambda n: st.integers(min_value=(1 << 7 * (n - 1)) if n > 1 else 0,
                          max_value=min(2 ** 64, 1 << 7 * n) - 1))


class TestRunDecoderAgreement:
    """``decode_varint_run`` is the ``decode_varint`` loop, in values,
    in end offset and in what it refuses."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(U64, BY_LENGTH), max_size=70),
           st.binary(max_size=12), st.binary(max_size=12))
    def test_run_equals_the_scalar_loop(self, values, before, after):
        blob = before + b"".join(map(encode_varint, values)) + after
        decoded, end = decode_varint_run(blob, len(before), len(values))
        assert decoded.dtype == np.uint64
        assert (decoded.tolist(), end) == scalar_run(blob, len(before),
                                                     len(values))
        assert decoded.tolist() == values
        assert end == len(blob) - len(after)

    @pytest.mark.parametrize("count", [0, 1, 63, 64, 4 * 16384])
    def test_run_lengths(self, count):
        rng = np.random.default_rng(count)
        values = rng.integers(0, 2 ** 64, size=count, dtype=np.uint64)
        values >>= rng.integers(0, 64, size=count).astype(np.uint64)
        blob = encode_varints(values)[0].tobytes() + b"\x05unrelated\xff"
        decoded, end = decode_varint_run(blob, 0, count)
        assert np.array_equal(decoded, values)
        assert end == len(blob) - 11
        assert decode_varint(blob, end) == (5, end + 1)

    def test_pins_and_buffer_kinds(self):
        blob = b"".join(e for _, e in PINNED)
        for buf in (blob, bytearray(blob), memoryview(blob),
                    np.frombuffer(blob, dtype=np.uint8)):
            decoded, end = decode_varint_run(buf, 0, len(PINNED))
            assert decoded.tolist() == [v for v, _ in PINNED]
            assert end == len(blob)

    def test_an_empty_run_reads_nothing(self):
        for offset in (0, 3, 99):       # even past the end, as the loop
            decoded, end = decode_varint_run(b"abc", offset, 0)
            assert (decoded.tolist(), end) == ([], offset)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(U64, min_size=1, max_size=40), st.data())
    def test_truncation_raises_what_the_scalar_raises(self, values, data):
        blob = b"".join(map(encode_varint, values))
        cut = blob[:data.draw(st.integers(0, len(blob) - 1))]
        with pytest.raises(ValueError) as scalar:
            scalar_run(cut, 0, len(values))
        with pytest.raises(ValueError) as run:
            decode_varint_run(cut, 0, len(values))
        assert str(run.value) == str(scalar.value) == "truncated varint"

    @pytest.mark.parametrize("prefix", [0, 1, 5])
    @pytest.mark.parametrize("tail", [b"\x01", b"\x80\x01", b""])
    def test_an_eleven_byte_code_raises_what_the_scalar_raises(self, prefix,
                                                               tail):
        blob = b"\x07" * prefix + b"\x80" * 10 + tail + b"\x07" * 30
        with pytest.raises(ValueError) as scalar:
            scalar_run(blob, 0, prefix + 2)
        with pytest.raises(ValueError) as run:
            decode_varint_run(blob, 0, prefix + 2)
        assert str(run.value) == str(scalar.value)
        # ... and it is the overlong code, not the bytes after it
        assert "64 bits" in str(run.value)

    def test_ten_continuation_bytes_at_the_end_are_truncated(self):
        blob = b"\x01" + b"\xff" * 10
        for decode in (scalar_run, decode_varint_run):
            with pytest.raises(ValueError, match="truncated"):
                decode(blob, 0, 2)

    def test_a_tenth_byte_past_bit_63_is_refused(self):
        """The scalar decodes it to an int above 2**64; no uint64 array
        can hold that, so the run raises the scalar's overflow error."""
        blob = b"\xff" * 9 + b"\x02"
        assert decode_varint(blob)[0] >= 2 ** 64
        with pytest.raises(ValueError, match="64 bits"):
            decode_varint_run(blob, 0, 1)
        assert decode_varint_run(b"\xff" * 9 + b"\x01", 0, 1)[0].tolist() \
            == [2 ** 64 - 1]


def read_one(blob: bytes, limit: int | None = None):
    """``read_varints`` at offset 0 of ``blob``, up to ``limit``."""
    return read_varints(np.frombuffer(blob, dtype=np.uint8),
                        np.zeros(1, dtype=np.int64),
                        np.array([len(blob) if limit is None else limit]))


class TestReadVarintsContract:
    """``read_varints`` raises ``decode_varint``'s error where it raises
    one, decodes what it decodes below 2**63, and refuses the rest as
    ``decode_int64_varint`` does."""

    @pytest.mark.parametrize("blob,limit", [
        (b"\x80", None),               # the buffer ends mid-varint
        (b"\x80\x01", 1),              # its span's limit does
        (b"\xff" * 10, None),          # ten continuation bytes
    ])
    def test_truncated_varint_raises_decode_varints_message(self, blob,
                                                            limit):
        with pytest.raises(ValueError) as scalar:
            decode_varint(blob[:limit])
        with pytest.raises(ValueError) as batch:
            read_one(blob, limit)
        assert str(batch.value) == str(scalar.value) == "truncated varint"

    @pytest.mark.parametrize("blob", [
        b"\xff" * 9 + b"\x00",                # 2**63 - 1 in ten bytes
        b"\x85" + b"\x80" * 8 + b"\x00",       # 5 in ten bytes
    ])
    def test_non_minimal_ten_byte_varint_decodes_as_decode_varint(self,
                                                                  blob):
        values, ends = read_one(blob + b"\x07")
        assert (values.tolist()[0], ends.tolist()[0]) == decode_varint(blob)

    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 - 1, 2 ** 70 - 1])
    def test_a_varint_past_int64_is_a_schema_mismatch(self, value):
        blob = encode_varint(value)
        assert decode_varint(blob) == (value, len(blob))
        with pytest.raises(SchemaMismatchError):
            decode_int64_varint(blob)
        with pytest.raises(SchemaMismatchError):
            read_one(blob)

    def test_an_eleven_byte_varint_raises_what_decode_varint_raises(self):
        blob = b"\x80" * 10 + b"\x01"
        with pytest.raises(ValueError, match="64 bits"):
            decode_varint(blob)
        with pytest.raises(ValueError, match="64 bits"):
            read_one(blob)


class TestZigzag:
    @settings(max_examples=80, deadline=None)
    @given(I64)
    def test_round_trip(self, value):
        assert zigzag_decode(zigzag_encode(value)) == value

    def test_small_magnitudes_stay_small(self):
        # The property the delta layout relies on: |d| <= 63 fits one byte.
        for delta in range(-63, 64):
            assert len(encode_varint(zigzag_encode(delta))) == 1

    def test_pinned_codes(self):
        assert [zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == \
            [0, 1, 2, 3, 4]
        assert zigzag_encode(-(2 ** 63)) == 2 ** 64 - 1
