"""Tests for repro.utils.varint — including the pinned cross-test.

``utils/varint.py`` is the single LEB128 implementation in the tree:
the vectorized batch forms (``read_varints``/``decode_varint_run``/
``encode_varints``) and the scalar codec must agree byte for byte, and ``tsl/batch.py``'s
``_read_varints`` must be a thin wrapper that maps
:class:`VarintBatchError` onto its scalar-fallback signal rather than a
second implementation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tsl import batch as tsl_batch
from repro.utils.varint import (
    VarintBatchError,
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
        (int64-representable; larger ones defer to the scalar path)."""
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


class TestBatchWrapperDelegates:
    """tsl/batch._read_varints is a wrapper, not a reimplementation."""

    def test_same_values_on_valid_input(self):
        blob = b"".join(encode_varint(v) for v in [5, 300, 0, 2 ** 40])
        buf = np.frombuffer(blob, dtype=np.uint8)
        starts = np.array([0, 1, 3, 4], dtype=np.int64)
        limits = np.full(4, len(blob), dtype=np.int64)
        via_utils = read_varints(buf, starts, limits)
        via_batch = tsl_batch._read_varints(buf, starts, limits)
        assert via_batch[0].tolist() == via_utils[0].tolist()
        assert via_batch[1].tolist() == via_utils[1].tolist()

    def test_truncated_maps_to_scalar_fallback(self):
        buf = np.frombuffer(b"\x80", dtype=np.uint8)  # continuation, no end
        starts = np.array([0], dtype=np.int64)
        limits = np.array([1], dtype=np.int64)
        with pytest.raises(VarintBatchError):
            read_varints(buf, starts, limits)
        with pytest.raises(tsl_batch._ScalarFallback):
            tsl_batch._read_varints(buf, starts, limits)

    def test_tenth_byte_maps_to_scalar_fallback(self):
        blob = encode_varint(2 ** 64 - 1)  # ten bytes
        buf = np.frombuffer(blob, dtype=np.uint8)
        starts = np.array([0], dtype=np.int64)
        limits = np.array([len(blob)], dtype=np.int64)
        with pytest.raises(VarintBatchError):
            read_varints(buf, starts, limits)
        with pytest.raises(tsl_batch._ScalarFallback):
            tsl_batch._read_varints(buf, starts, limits)


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
