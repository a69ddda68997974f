"""Cell accessors: object-oriented manipulation of blob cells (Section 4.3).

A cell accessor "is not a data container, but a data mapper: it maps the
fields declared in the data structure to the correct memory locations in
the blob".  This module reproduces that mechanism:

* entering the accessor takes the cell's spin lock and pins a zero-copy
  ``memoryview`` of the blob inside its memory trunk;
* **reads** decode the requested field straight out of the blob at its
  computed offset (memoized per accessor);
* **fixed-size writes** (ints, doubles, fixed structs, elements of a
  fixed-element list) are packed directly into the trunk arena — zero copy,
  exactly like the generated C# accessors;
* **size-changing writes** (string assignment, list append) rebuild the
  blob in a local buffer; the new blob is stored back to the memory cloud
  when the accessor exits.

Usage mirrors the paper's ``using(var cell = UseMyCellAccessor(cellId))``::

    with use_cell(cloud, cell_id, movie_type) as cell:
        name = cell.Name
        cell.Actors[1] = 2
"""

from __future__ import annotations

from ..errors import CellNotFoundError, TslTypeError
from ..utils.varint import decode_varint, encode_varint
from .layout import LAYOUT_RAW
from .types import AdjacencyListType, ListType, StructType, TslType

_INTERNALS = frozenset({
    "_cloud", "_cell_id", "_struct", "_lock", "_view", "_buf", "_dirty",
    "_offsets", "_entered", "_wrote_view",
})


class CellAccessor:
    """Context-managed field-level access to one cell's blob.

    Not re-entrant and not shareable across threads: it holds the cell's
    spin lock for its whole lifetime, which is what pins the blob against
    relocation by the defragmentation daemon.
    """

    def __init__(self, cloud, cell_id: int, struct_type: StructType):
        object.__setattr__(self, "_cloud", cloud)
        object.__setattr__(self, "_cell_id", cell_id)
        object.__setattr__(self, "_struct", struct_type)
        object.__setattr__(self, "_lock", None)
        object.__setattr__(self, "_view", None)
        object.__setattr__(self, "_buf", None)
        object.__setattr__(self, "_dirty", False)
        object.__setattr__(self, "_offsets", {})
        object.__setattr__(self, "_entered", False)
        object.__setattr__(self, "_wrote_view", False)

    # -- context management ------------------------------------------------

    def __enter__(self) -> "CellAccessor":
        trunk = self._cloud.trunk_for(self._cell_id)
        lock = trunk.lock_of(self._cell_id)
        lock.acquire()
        object.__setattr__(self, "_lock", lock)
        object.__setattr__(self, "_view", trunk.get_view(self._cell_id))
        object.__setattr__(self, "_entered", True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        view = self._view
        if view is not None:
            view.release()
        object.__setattr__(self, "_view", None)
        self._lock.release()
        object.__setattr__(self, "_entered", False)
        if self._dirty and exc_type is None:
            self._cloud.put(self._cell_id, bytes(self._buf))
        elif self._wrote_view:
            # Fixed-size fields were written straight into the trunk
            # arena (no put): the bytes already changed, so advance the
            # owning trunk's mutation epoch for span/cache consumers.
            self._cloud.note_cell_write(self._cell_id)

    # -- field access --------------------------------------------------------

    @property
    def cell_id(self) -> int:
        return self._cell_id

    def _buffer(self):
        if self._buf is not None:
            return self._buf
        if self._view is None:
            raise CellNotFoundError(self._cell_id)
        return self._view

    def _offset_of(self, field_name: str) -> int:
        offsets = self._offsets
        if field_name not in offsets:
            offsets[field_name] = self._struct.field_offset(
                self._buffer(), field_name
            )
        return offsets[field_name]

    def get(self, field_name: str):
        """Decode one field from the blob."""
        field_type = self._struct.field_type(field_name)
        buf = self._buffer()
        if isinstance(field_type, ListType):
            return ListAccessor(self, field_name, field_type)
        value, _ = field_type.decode(buf, self._offset_of(field_name))
        return value

    def read(self, field_name: str):
        """Like :meth:`get` but always materialises (lists come back as
        plain Python lists instead of :class:`ListAccessor`)."""
        field_type = self._struct.field_type(field_name)
        value, _ = field_type.decode(self._buffer(), self._offset_of(field_name))
        return value

    def set(self, field_name: str, value) -> None:
        """Write one field; in place when the field is fixed-size."""
        field_type = self._struct.field_type(field_name)
        if field_type.fixed_size is not None:
            field_type.write_fixed(
                self._buffer(), self._offset_of(field_name), value
            )
            if self._buf is not None:
                object.__setattr__(self, "_dirty", True)
            else:
                object.__setattr__(self, "_wrote_view", True)
            return
        self._splice_field(field_name, field_type, field_type.encode(value))

    def to_dict(self) -> dict:
        """Materialise the whole cell as a plain dict."""
        value, _ = self._struct.decode(self._buffer(), 0)
        return value

    # attribute sugar: cell.Name, cell.Actors[1] = 2  -------------------------

    def __getattr__(self, name: str):
        if name in _INTERNALS or name.startswith("__"):
            raise AttributeError(name)
        return self.get(name)

    def __setattr__(self, name: str, value) -> None:
        if name in _INTERNALS:
            object.__setattr__(self, name, value)
        else:
            self.set(name, value)

    # -- structural rewrites ---------------------------------------------

    def _splice_field(self, field_name: str, field_type: TslType,
                      encoded: bytes) -> None:
        """Replace a variable-size field's bytes, shifting its successors."""
        buf = self._buffer()
        start = self._offset_of(field_name)
        end = field_type.skip(buf, start)
        rebuilt = bytearray(bytes(buf[:start]) + encoded + bytes(buf[end:]))
        self._adopt(rebuilt, invalidate_after=field_name)

    def _adopt(self, rebuilt: bytearray, invalidate_after: str) -> None:
        """Switch to a local buffer; offsets after the edited field move."""
        object.__setattr__(self, "_buf", rebuilt)
        object.__setattr__(self, "_dirty", True)
        view = self._view
        if view is not None:
            view.release()
            object.__setattr__(self, "_view", None)
        keep = {}
        for name, _ in self._struct.fields:
            keep[name] = self._offsets.get(name)
            if name == invalidate_after:
                break
        object.__setattr__(
            self, "_offsets",
            {k: v for k, v in keep.items() if v is not None},
        )


class ListAccessor:
    """Element-level access to a ``List<T>`` field.

    Fixed-size elements support in-place ``list[i] = x``; size-changing
    operations (append, assignment of variable-size elements) go through
    the parent accessor's rebuild path.

    Adjacency fields add a layout dimension: a cell stored under
    ``LAYOUT_RAW`` keeps every in-place fast path below, while a cell
    whose list is delta- or bitmap-encoded decodes through the codec and
    rewrites the whole field on mutation — *preserving* its stored
    layout when the new contents remain eligible (falling back to raw
    otherwise), never re-running the policy.  Observed degree therefore
    drifts across policy boundaries without the bytes following; the
    layout re-encoder daemon is what migrates such cells later.
    """

    def __init__(self, parent: CellAccessor, field_name: str,
                 list_type: ListType):
        self._parent = parent
        self._field = field_name
        self._type = list_type

    def _bounds(self):
        """(buffer, count, payload_start_offset, layout_tag)."""
        buf = self._parent._buffer()
        start = self._parent._offset_of(self._field)
        header, data_start = decode_varint(buf, start)
        if isinstance(self._type, AdjacencyListType):
            return buf, header >> 2, data_start, header & 3
        return buf, header, data_start, LAYOUT_RAW

    def __len__(self) -> int:
        _, count, _, _ = self._bounds()
        return count

    @staticmethod
    def _normalize_index(index: int, count: int) -> int:
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError(
                f"index {index} out of range for List of {count}"
            )
        return index

    def _element_offset(self, buf, index: int, count: int,
                        data_start: int) -> int:
        index = self._normalize_index(index, count)
        element_size = self._type.element.fixed_size
        if element_size is not None:
            return data_start + index * element_size
        offset = data_start
        for _ in range(index):
            offset = self._type.element.skip(buf, offset)
        return offset

    def _decoded(self) -> list:
        """Whole-list decode (non-raw layouts have no element addresses)."""
        buf = self._parent._buffer()
        start = self._parent._offset_of(self._field)
        values, _ = self._type.decode(buf, start)
        return values

    def _rewrite(self, values: list, tag: int) -> None:
        """Re-encode the whole field, keeping ``tag`` while eligible."""
        encoded = self._type.encode_with_layout(values, tag)
        if encoded is None:
            encoded = self._type.encode_with_layout(values, LAYOUT_RAW)
        self._parent._splice_field(self._field, self._type, encoded)

    def __getitem__(self, index: int):
        buf, count, data_start, tag = self._bounds()
        if tag != LAYOUT_RAW:
            return self._decoded()[self._normalize_index(index, count)]
        offset = self._element_offset(buf, index, count, data_start)
        value, _ = self._type.element.decode(buf, offset)
        return value

    def __setitem__(self, index: int, value) -> None:
        buf, count, data_start, tag = self._bounds()
        if tag != LAYOUT_RAW:
            # Encode first so type errors surface exactly as they would on
            # the raw path, then round-trip to the canonical Python value.
            encoded_element = self._type.element.encode(value)
            values = self._decoded()
            values[self._normalize_index(index, count)] = (
                self._type.element.decode(encoded_element, 0)[0])
            self._rewrite(values, tag)
            return
        offset = self._element_offset(buf, index, count, data_start)
        element = self._type.element
        if element.fixed_size is not None:
            element.write_fixed(buf, offset, value)
            if self._parent._buf is not None:
                object.__setattr__(self._parent, "_dirty", True)
            else:
                object.__setattr__(self._parent, "_wrote_view", True)
            return
        # Variable-size element: splice just this element's bytes.
        end = element.skip(buf, offset)
        encoded = element.encode(value)
        rebuilt = bytearray(bytes(buf[:offset]) + encoded + bytes(buf[end:]))
        self._parent._adopt(rebuilt, invalidate_after=self._field)

    def __iter__(self):
        buf, count, offset, tag = self._bounds()
        if tag != LAYOUT_RAW:
            yield from self._decoded()
            return
        for _ in range(count):
            value, offset = self._type.element.decode(buf, offset)
            yield value

    def to_list(self) -> list:
        return list(self)

    def append(self, value) -> None:
        buf, count, data_start, tag = self._bounds()
        encoded_element = self._type.element.encode(value)
        if tag != LAYOUT_RAW:
            values = self._decoded()
            values.append(self._type.element.decode(encoded_element, 0)[0])
            self._rewrite(values, tag)
            return
        start = self._parent._offset_of(self._field)
        end = self._type.skip(buf, start)
        if isinstance(self._type, AdjacencyListType):
            header = encode_varint((count + 1) << 2)
        else:
            header = encode_varint(count + 1)
        encoded = header + bytes(buf[data_start:end]) + encoded_element
        rebuilt = bytearray(bytes(buf[:start]) + encoded + bytes(buf[end:]))
        self._parent._adopt(rebuilt, invalidate_after=self._field)

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def __repr__(self) -> str:
        return f"ListAccessor({self._field}, {self.to_list()!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, ListAccessor):
            return self.to_list() == other.to_list()
        if isinstance(other, list):
            return self.to_list() == other
        return NotImplemented


def save_cell(cloud, cell_id: int, struct_type: StructType,
              values: dict) -> None:
    """Encode ``values`` per the schema and store the blob (SaveMyCell)."""
    cloud.put(cell_id, struct_type.encode(values))


def load_cell(cloud, cell_id: int, struct_type: StructType) -> dict:
    """Load and fully decode a cell (LoadMyCell)."""
    blob = cloud.get(cell_id)
    value, end = struct_type.decode(blob, 0)
    if end != len(blob):
        raise TslTypeError(
            f"{struct_type.name}: blob has {len(blob) - end} trailing bytes"
        )
    return value


def use_cell(cloud, cell_id: int, struct_type: StructType) -> CellAccessor:
    """Open a cell accessor (UseMyCellAccessor); use as a context manager."""
    return CellAccessor(cloud, cell_id, struct_type)
