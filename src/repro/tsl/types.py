"""TSL runtime type system: blob layouts for every TSL type.

A TSL struct is stored as a flat blob with fields laid out in declaration
order — no per-field framing, no padding, no runtime-object headers (the
paper's motivation in Section 4.3: blobs are "compact, economical, with
zero serialization and deserialization overhead").  Fixed-size fields sit
at statically computable offsets; variable-size fields (strings, lists,
nested variable structs) are located by skipping over their predecessors,
which the cell accessor memoizes.

Each type implements:

* ``fixed_size`` — byte width, or ``None`` for variable-size types,
* ``encode(value)`` — value → bytes,
* ``decode(buf, offset)`` — ``(value, next_offset)``,
* ``skip(buf, offset)`` — next_offset without materialising the value,
* ``write_fixed(buf, offset, value)`` — in-place overwrite (fixed types
  only; this is what makes zero-copy field assignment possible),
* ``default()`` — zero value used when encoding a partial record.
"""

from __future__ import annotations

import struct

from ..errors import SchemaMismatchError, TslTypeError
from ..utils.varint import decode_int64_varint, encode_varint


class TslType:
    """Base class for TSL runtime types."""

    name: str = "?"
    fixed_size: int | None = None

    def encode(self, value) -> bytes:
        raise NotImplementedError

    def decode(self, buf, offset: int):
        raise NotImplementedError

    def skip(self, buf, offset: int) -> int:
        value_size = self.fixed_size
        if value_size is None:
            raise NotImplementedError
        return offset + value_size

    def write_fixed(self, buf, offset: int, value) -> None:
        raise TslTypeError(f"{self.name} is not fixed-size")

    def default(self):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<tsl {self.name}>"


class PrimitiveType(TslType):
    """A fixed-width numeric/boolean primitive backed by ``struct``."""

    def __init__(self, name: str, fmt: str, default_value, caster):
        self.name = name
        self._struct = struct.Struct("<" + fmt)
        self.fixed_size = self._struct.size
        self._default = default_value
        self._caster = caster

    def encode(self, value) -> bytes:
        try:
            return self._struct.pack(self._caster(value))
        except (struct.error, TypeError, ValueError) as exc:
            raise SchemaMismatchError(
                f"cannot encode {value!r} as {self.name}: {exc}"
            ) from None

    def decode(self, buf, offset: int):
        try:
            (value,) = self._struct.unpack_from(buf, offset)
        except (struct.error, OverflowError) as exc:  # short, or past ssize_t
            raise SchemaMismatchError(f"blob too short for {self.name}: {exc}")
        return value, offset + self.fixed_size

    def write_fixed(self, buf, offset: int, value) -> None:
        try:
            self._struct.pack_into(buf, offset, self._caster(value))
        except (struct.error, TypeError, ValueError) as exc:
            raise SchemaMismatchError(
                f"cannot write {value!r} as {self.name}: {exc}"
            ) from None

    def default(self):
        return self._default


BYTE = PrimitiveType("byte", "B", 0, int)
BOOL = PrimitiveType("bool", "?", False, bool)
SHORT = PrimitiveType("short", "h", 0, int)
INT = PrimitiveType("int", "i", 0, int)
LONG = PrimitiveType("long", "q", 0, int)
FLOAT = PrimitiveType("float", "f", 0.0, float)
DOUBLE = PrimitiveType("double", "d", 0.0, float)


class StringType(TslType):
    """UTF-8 string with varint length prefix."""

    name = "string"
    fixed_size = None

    def encode(self, value) -> bytes:
        if not isinstance(value, str):
            raise SchemaMismatchError(f"expected str, got {type(value).__name__}")
        raw = value.encode("utf-8")
        return encode_varint(len(raw)) + raw

    def decode(self, buf, offset: int):
        length, offset = decode_int64_varint(buf, offset)
        end = offset + length
        if end > len(buf):
            raise SchemaMismatchError("blob too short for string")
        return bytes(buf[offset:end]).decode("utf-8"), end

    def skip(self, buf, offset: int) -> int:
        length, offset = decode_int64_varint(buf, offset)
        return offset + length

    def default(self) -> str:
        return ""


STRING = StringType()


class ListType(TslType):
    """``List<T>``: varint count followed by the packed elements."""

    fixed_size = None

    def __init__(self, element: TslType):
        self.element = element
        self.name = f"List<{element.name}>"

    def encode(self, value) -> bytes:
        if not isinstance(value, (list, tuple)):
            raise SchemaMismatchError(
                f"expected list for {self.name}, got {type(value).__name__}"
            )
        parts = [encode_varint(len(value))]
        parts.extend(self.element.encode(item) for item in value)
        return b"".join(parts)

    def decode(self, buf, offset: int):
        count, offset = decode_int64_varint(buf, offset)
        items = []
        for _ in range(count):
            item, offset = self.element.decode(buf, offset)
            items.append(item)
        return items, offset

    def skip(self, buf, offset: int) -> int:
        count, offset = decode_int64_varint(buf, offset)
        element_size = self.element.fixed_size
        if element_size is not None:
            return offset + count * element_size
        for _ in range(count):
            offset = self.element.skip(buf, offset)
        return offset

    def decode_count(self, buf, offset: int) -> tuple[int, int]:
        """``(element_count, payload_offset)`` from the header alone."""
        return decode_int64_varint(buf, offset)

    def default(self) -> list:
        return []


class AdjacencyListType(ListType):
    """``List<long>`` adjacency with a per-cell layout dimension.

    The wire format replaces the plain varint count header with
    ``varint((count << 2) | tag)`` — two tag bits select the payload
    codec (see :mod:`repro.tsl.layout`) and the count rides in the upper
    bits, so an empty list still costs exactly one zero byte.  The TSL
    compiler applies this type only to ``[EdgeType: ...]``-annotated
    ``List<long>`` fields; protocol messages and other plain lists keep
    the original format.

    ``policy`` is mutable on purpose: ``MemoryParams.layout_policy``
    is installed onto a schema's adjacency types when a builder or graph
    binds that schema to a cloud.
    """

    def __init__(self, element: TslType = LONG, policy=None):
        if element is not LONG:
            raise TslTypeError(
                "adjacency lists require long elements, "
                f"got {element.name}"
            )
        super().__init__(element)
        if policy is None:
            from .layout import DEFAULT_LAYOUT_POLICY
            policy = DEFAULT_LAYOUT_POLICY
        self.policy = policy

    def encode(self, value) -> bytes:
        from . import layout
        if not isinstance(value, (list, tuple)):
            raise SchemaMismatchError(
                f"expected list for {self.name}, got {type(value).__name__}"
            )
        # Validate elementwise through the scalar LONG encoder first so
        # bad values raise the canonical error; its output bytes are the
        # canonical int64 images the codecs run on.
        parts = [self.element.encode(item) for item in value]
        if not parts:
            return encode_varint(0)  # (0 << 2) | LAYOUT_RAW
        import numpy as np
        ints = np.frombuffer(b"".join(parts), dtype="<i8")
        return layout.encode_adjacency(ints, self.policy)

    def decode(self, buf, offset: int):
        from . import layout
        header, offset = decode_int64_varint(buf, offset)
        tag = header & 3
        count = header >> 2
        if tag == layout.LAYOUT_RAW:
            items = []
            for _ in range(count):
                item, offset = self.element.decode(buf, offset)
                items.append(item)
            return items, offset
        if tag == layout.LAYOUT_DELTA_VARINT:
            return layout.decode_delta_payload(buf, offset, count)
        if tag == layout.LAYOUT_BITMAP:
            return layout.decode_bitmap_payload(buf, offset, count)
        raise SchemaMismatchError(
            f"unknown adjacency layout tag {tag} in {self.name}"
        )

    def skip(self, buf, offset: int) -> int:
        header, offset = decode_int64_varint(buf, offset)
        tag = header & 3
        if tag == 0:
            return offset + (header >> 2) * 8
        if tag == 1:
            nbytes, offset = decode_int64_varint(buf, offset)
            return offset + nbytes
        if tag == 2:
            _, offset = decode_int64_varint(buf, offset)
            nbytes, offset = decode_int64_varint(buf, offset)
            return offset + nbytes
        raise SchemaMismatchError(
            f"unknown adjacency layout tag {tag} in {self.name}"
        )

    def decode_count(self, buf, offset: int) -> tuple[int, int]:
        header, offset = decode_int64_varint(buf, offset)
        return header >> 2, offset

    def stored_layout(self, buf, offset: int) -> int:
        """The layout tag a stored adjacency field currently uses."""
        header, _ = decode_int64_varint(buf, offset)
        return header & 3


class BitArrayType(TslType):
    """``BitArray``: varint bit count + packed little-endian bit bytes."""

    name = "BitArray"
    fixed_size = None

    def encode(self, value) -> bytes:
        bits = list(value)
        packed = bytearray((len(bits) + 7) // 8)
        for index, bit in enumerate(bits):
            if bit:
                packed[index // 8] |= 1 << (index % 8)
        return encode_varint(len(bits)) + bytes(packed)

    def decode(self, buf, offset: int):
        count, offset = decode_int64_varint(buf, offset)
        nbytes = (count + 7) // 8
        end = offset + nbytes
        if end > len(buf):
            raise SchemaMismatchError("blob too short for BitArray")
        bits = [
            bool(buf[offset + i // 8] & (1 << (i % 8))) for i in range(count)
        ]
        return bits, end

    def skip(self, buf, offset: int) -> int:
        count, offset = decode_int64_varint(buf, offset)
        return offset + (count + 7) // 8

    def default(self) -> list:
        return []


class StructType(TslType):
    """A user-defined struct: its fields packed in declaration order.

    A struct is itself fixed-size when every field is, which lets nested
    fixed structs live inside fixed prefixes and fixed-element lists.
    """

    def __init__(self, name: str, fields: list[tuple[str, TslType]]):
        self.name = name
        self.fields = fields
        sizes = [t.fixed_size for _, t in fields]
        self.fixed_size = sum(sizes) if all(s is not None for s in sizes) else None

    def field_type(self, field_name: str) -> TslType:
        for name, tsl_type in self.fields:
            if name == field_name:
                return tsl_type
        raise TslTypeError(f"{self.name} has no field {field_name!r}")

    def field_names(self) -> list[str]:
        return [name for name, _ in self.fields]

    def encode(self, value) -> bytes:
        if not isinstance(value, dict):
            raise SchemaMismatchError(
                f"expected dict for struct {self.name}, "
                f"got {type(value).__name__}"
            )
        unknown = set(value) - {name for name, _ in self.fields}
        if unknown:
            raise SchemaMismatchError(
                f"unknown fields for {self.name}: {sorted(unknown)}"
            )
        parts = []
        for name, tsl_type in self.fields:
            item = value.get(name, tsl_type.default())
            parts.append(tsl_type.encode(item))
        return b"".join(parts)

    def decode(self, buf, offset: int):
        out = {}
        for name, tsl_type in self.fields:
            out[name], offset = tsl_type.decode(buf, offset)
        return out, offset

    def skip(self, buf, offset: int) -> int:
        if self.fixed_size is not None:
            return offset + self.fixed_size
        for _, tsl_type in self.fields:
            offset = tsl_type.skip(buf, offset)
        return offset

    def write_fixed(self, buf, offset: int, value) -> None:
        if self.fixed_size is None:
            raise TslTypeError(f"struct {self.name} is not fixed-size")
        raw = self.encode(value)
        buf[offset:offset + len(raw)] = raw

    def default(self) -> dict:
        return {name: t.default() for name, t in self.fields}

    def field_offset(self, buf, field_name: str, base: int = 0) -> int:
        """Offset of ``field_name`` inside a blob starting at ``base``."""
        offset = base
        for name, tsl_type in self.fields:
            if name == field_name:
                return offset
            offset = tsl_type.skip(buf, offset)
        raise TslTypeError(f"{self.name} has no field {field_name!r}")


PRIMITIVES: dict[str, TslType] = {
    "byte": BYTE,
    "bool": BOOL,
    "short": SHORT,
    "int": INT,
    "long": LONG,
    "float": FLOAT,
    "double": DOUBLE,
    "string": STRING,
    # C#-style aliases accepted for convenience
    "int32": INT,
    "int64": LONG,
    "uint8": BYTE,
}
