"""Bulk graph loading into the memory cloud.

The builder buffers edges in their arrival order, then encodes each node
once at :meth:`GraphBuilder.finalize` — the same pattern as Trinity's
bulk importer, which writes cells once instead of reallocating blobs
edge by edge (reallocation churn is exactly what Section 6.1's
reservation mechanism exists to absorb; the ablation benchmark exercises
that path separately via incremental edge insertion).

Edges are only *buffered* at ingest (:meth:`~GraphBuilder.add_edges`
takes a numpy ``(m, 2)`` array, :meth:`~GraphBuilder.add_edge` appends
to the same stream); ``finalize()`` groups them per endpoint with one
stable sort per direction — neighbor order is arrival order — encodes
every adjacency list as a slice of one contiguous ``int64`` byte blob
and stores all nodes with ``cloud.bulk_put``.  The reference is the
scalar TSL encoder, one record and one ``node_type.encode`` per node
(what ``finalize(bulk=False)`` stores, so tests can build a whole
reference cloud); ``finalize(cross_check=True)`` runs both through
:func:`repro.oracle.shadow`.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..memcloud import MemoryCloud
from ..oracle import shadow
from ..tsl.batch import batch_encoder_for, encode_varint_small
from ..tsl.layout import encode_adjacency_segments, install_layout_policy
from ..tsl.types import AdjacencyListType, LONG, ListType
from ..utils.sorting import stable_argsort
from .api import Graph
from .model import GraphSchema

_INT64 = np.dtype("<i8")
_MISSING = object()

class GraphBuilder:
    """Accumulates nodes/edges, then materialises a :class:`Graph`.

    Examples
    --------
    >>> from repro.config import ClusterConfig
    >>> from repro.graph import GraphBuilder, plain_graph_schema
    >>> from repro.memcloud import MemoryCloud
    >>> builder = GraphBuilder(MemoryCloud(ClusterConfig(machines=2)),
    ...                        plain_graph_schema(directed=True))
    >>> builder.add_edge(1, 2)
    >>> graph = builder.finalize()
    >>> graph.outlinks(1)
    [2]
    """

    def __init__(self, cloud: MemoryCloud, graph_schema: GraphSchema):
        self.cloud = cloud
        self.graph_schema = graph_schema
        install_layout_policy(
            graph_schema.node_type,
            cloud.config.memory.resolved_layout_policy())
        self._chunks: list[np.ndarray] = []   # (m, 2) int64, arrival order
        self._loose: list[tuple[int, int]] = []  # add_edge buffer
        self._attributes: dict[int, dict] = {}
        self._attribute_names = frozenset(graph_schema.attribute_fields)
        self._explicit_nodes: set[int] = set()
        self._edge_total = 0
        self._finalized = False

    def add_node(self, node_id: int, **attributes) -> None:
        """Declare a node, optionally with attribute values."""
        self._check_open()
        self._explicit_nodes.add(node_id)
        if attributes:
            if not self._attribute_names.issuperset(attributes):
                unknown = set(attributes) - self._attribute_names
                raise QueryError(
                    f"unknown attributes for "
                    f"{self.graph_schema.cell_name}: {sorted(unknown)}"
                )
            # ``attributes`` is this call's own dict: keep it, merging
            # only when the node was declared before.
            known = self._attributes.get(node_id)
            if known is None:
                self._attributes[node_id] = attributes
            else:
                known.update(attributes)

    def add_edge(self, src: int, dst: int) -> None:
        """Add one edge; endpoints are auto-created.

        For undirected schemas the edge is mirrored into both endpoints'
        neighbor lists (at finalize, like everything else).
        """
        self._check_open()
        self._loose.append((src, dst))
        self._edge_total += 1

    def add_edges(self, edges) -> None:
        """Add edges from an iterable of (src, dst) pairs or a numpy array.

        An ``(m, 2)`` integer array (or anything cleanly convertible to
        one) is buffered as-is — the vectorized grouping at finalize
        produces neighbor lists in exactly the order a scalar
        :meth:`add_edge` loop would have appended, including the
        interleaved mirror entries of undirected schemas, so the
        finalized blobs are bit-identical.
        """
        self._check_open()
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            if not edges:
                return
            try:
                array = np.asarray(edges, dtype=np.int64)
            except (ValueError, TypeError, OverflowError):
                array = None
            if array is None or array.ndim != 2 or array.shape[1] != 2:
                for src, dst in edges:
                    self.add_edge(src, dst)
                return
            edges = array
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise QueryError(
                f"edge array must have shape (m, 2), got {edges.shape}"
            )
        if not len(edges):
            return
        self._flush_loose()
        self._chunks.append(edges.astype(np.int64, copy=False))
        self._edge_total += len(edges)

    def _flush_loose(self) -> None:
        if self._loose:
            chunk = np.asarray(self._loose, dtype=np.int64).reshape(-1, 2)
            self._chunks.append(chunk)
            self._loose = []

    def _all_edges(self) -> np.ndarray | None:
        """Every buffered edge, arrival order, as one (m, 2) array."""
        self._flush_loose()
        if not self._chunks:
            return None
        if len(self._chunks) > 1:
            self._chunks = [np.concatenate(self._chunks)]
        return self._chunks[0]

    @staticmethod
    def _group(keys: np.ndarray, values: np.ndarray):
        """Stable grouping: (keys, starts, ends, sorted values).

        The stable sort keeps each key's values in arrival order —
        exactly the per-key append order of a scalar edge loop.
        """
        order = stable_argsort(keys)
        sorted_keys = keys[order]
        sorted_values = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.append(boundaries, len(sorted_keys))
        return (sorted_keys[starts].tolist(), starts.tolist(),
                ends.tolist(), sorted_values)

    def _grouped_directions(self, edges: np.ndarray | None):
        """(out_group, in_group_or_None) for the buffered edges."""
        if edges is None:
            empty = ([], [], [], np.empty(0, dtype=np.int64))
            return empty, (empty if self.graph_schema.directed else None)
        if self.graph_schema.directed:
            return (self._group(edges[:, 0], edges[:, 1]),
                    self._group(edges[:, 1], edges[:, 0]))
        # Interleave (src, dst) with its mirror (dst, src) so grouping
        # reproduces the scalar loop's append order exactly.
        mirrored = np.empty((2 * len(edges), 2), dtype=np.int64)
        mirrored[0::2] = edges
        mirrored[1::2] = edges[:, ::-1]
        return self._group(mirrored[:, 0], mirrored[:, 1]), None

    @property
    def node_count(self) -> int:
        return len(self._node_set())

    def _node_set(self) -> set[int]:
        nodes = set(self._explicit_nodes)
        edges = self._all_edges()
        if edges is not None:
            nodes.update(np.unique(edges).tolist())
        return nodes

    @property
    def edge_count(self) -> int:
        """Edges added so far (a running counter, not a recount)."""
        return self._edge_total

    def finalize(self, bulk: bool = True, cross_check: bool = False) -> Graph:
        """Encode every node into its blob and store it in the cloud.

        ``bulk=True`` (default) encodes adjacency lists directly from the
        grouped edge arrays — one contiguous byte blob per direction,
        sliced per node — and stores everything with ``cloud.bulk_put``.
        ``cross_check=True`` additionally re-encodes every node through
        the scalar TSL encoder and asserts the blobs are bit-identical
        before anything is stored (mirroring ``BspEngine``'s paranoia
        mode).
        """
        self._check_open()
        self._finalized = True
        schema = self.graph_schema
        out_group, in_group = self._grouped_directions(self._all_edges())
        nodes = set(self._explicit_nodes)
        nodes.update(out_group[0])
        if in_group is not None:
            nodes.update(in_group[0])
        node_ids = sorted(nodes)
        if bulk and self._adjacency_is_long():
            blobs = self._bulk_blobs(node_ids, out_group, in_group)
            if cross_check:
                self._shadow_encoding(node_ids, out_group, in_group, blobs)
            self.cloud.bulk_put(node_ids, blobs)
        else:
            node_type = schema.node_type
            records = self._records(node_ids, out_group, in_group)
            if bulk:
                # Adjacency type without an int64 twin: still batch the
                # store, encoding through the compiled column encoder.
                blobs = batch_encoder_for(node_type).encode_many(records)
                self.cloud.bulk_put(node_ids, blobs)
            else:
                for node_id, record in zip(node_ids, records):
                    self.cloud.put(node_id, node_type.encode(record))
        return Graph(self.cloud, schema, node_ids)

    def _adjacency_is_long(self) -> bool:
        schema = self.graph_schema
        fields = dict(schema.node_type.fields)
        for name in filter(None, (schema.out_field, schema.in_field)):
            tsl_type = fields.get(name)
            if not (isinstance(tsl_type, ListType)
                    and tsl_type.element is LONG):
                return False
        return True

    @staticmethod
    def _adjacency_column(group, ids_arr: np.ndarray, empty: bytes,
                          tsl_type: ListType) -> list[bytes]:
        """Encoded ``List<long>`` blobs, one per node in ``ids_arr`` order.

        Adjacency-typed fields route through the vectorized segment
        encoder — the same chooser and payload generator the scalar TSL
        encoder delegates to, so bulk and scalar blobs are bit-identical
        across every layout mix by construction.  Plain ``List<long>``
        fields keep the original one-``tobytes`` slicing.  Nodes with no
        neighbors in this direction get the empty-list encoding either
        way (``b"\\x00"`` is both formats' empty header).
        """
        keys, starts, ends, sorted_values = group
        column = [empty] * len(ids_arr)
        if not keys:
            return column
        positions = np.searchsorted(
            ids_arr, np.asarray(keys, dtype=np.int64)).tolist()
        if isinstance(tsl_type, AdjacencyListType):
            encoded = encode_adjacency_segments(
                sorted_values.astype(_INT64, copy=False),
                np.asarray(starts, dtype=np.int64),
                np.asarray(ends, dtype=np.int64),
                tsl_type.policy,
            )
            for position, blob in zip(positions, encoded):
                column[position] = blob
            return column
        blob = sorted_values.astype(_INT64, copy=False).tobytes()
        for position, start, end in zip(positions, starts, ends):
            column[position] = (encode_varint_small(end - start)
                                + blob[8 * start:8 * end])
        return column

    def _bulk_blobs(self, node_ids, out_group, in_group) -> list[bytes]:
        """Assemble every node's cell blob in schema field order."""
        schema = self.graph_schema
        empty = encode_varint_small(0)
        ids_arr = np.fromiter(node_ids, dtype=np.int64, count=len(node_ids))
        attributes = self._attributes
        missing = _MISSING
        columns: list[list[bytes]] = []
        for name, tsl_type in schema.node_type.fields:
            if name == schema.out_field:
                columns.append(
                    self._adjacency_column(out_group, ids_arr, empty,
                                           tsl_type))
            elif name == schema.in_field:
                columns.append(
                    self._adjacency_column(in_group, ids_arr, empty,
                                           tsl_type))
            else:
                encode = tsl_type.encode
                default_blob = encode(tsl_type.default())
                column = []
                for node_id in node_ids:
                    attrs = attributes.get(node_id)
                    value = attrs.get(name, missing) if attrs else missing
                    column.append(default_blob if value is missing
                                  else encode(value))
                columns.append(column)
        if len(columns) == 1:
            return columns[0]
        if len(columns) == 2:
            return [a + b for a, b in zip(columns[0], columns[1])]
        return [b"".join(parts) for parts in zip(*columns)]

    def _shadow_encoding(self, node_ids, out_group, in_group,
                         blobs) -> None:
        """``cross_check``: every bulk blob is the scalar TSL encoding
        of its node's record."""
        encode = self.graph_schema.node_type.encode
        records = self._records(node_ids, out_group, in_group)
        shadow("graph.builder.finalize", list(zip(node_ids, blobs)),
               [(node_id, encode(record))
                for node_id, record in zip(node_ids, records)])

    def _records(self, node_ids, out_group, in_group) -> list[dict]:
        """Python-dict records per node (scalar path and cross-check)."""
        schema = self.graph_schema

        def as_lists(group):
            keys, starts, ends, sorted_values = group
            values = sorted_values.tolist()
            return {key: values[start:end]
                    for key, start, end in zip(keys, starts, ends)}

        out_lists = as_lists(out_group)
        in_lists = as_lists(in_group) if in_group is not None else None
        records = []
        for node_id in node_ids:
            record = dict(self._attributes.get(node_id, ()))
            record[schema.out_field] = out_lists.get(node_id, [])
            if schema.in_field is not None:
                record[schema.in_field] = (in_lists or {}).get(node_id, [])
            records.append(record)
        return records

    def _check_open(self) -> None:
        if self._finalized:
            raise QueryError("GraphBuilder already finalized")
