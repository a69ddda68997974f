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
the cells a field at a time straight into one packed batch (every
adjacency list a segment of the grouped edge array; no ``bytes`` per
cell) and stores it with one ``cloud.bulk_put``.  The reference is the
scalar TSL encoder, one record and one ``node_type.encode`` per node
(what ``finalize(bulk=False)`` stores, so tests can build a whole
reference cloud); ``finalize(cross_check=True)`` runs both through
:func:`repro.oracle.shadow`.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from ..errors import QueryError
from ..memcloud import MemoryCloud
from ..oracle import shadow
from ..tsl.batch import batch_encoder_for
from ..tsl.layout import install_layout_policy
from ..utils.arrays import SpanBatch, first_occurrences
from ..utils.sorting import stable_argsort
from .api import Graph
from .model import GraphSchema


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
        """Declare a node, optionally with attribute values.  The id is
        checked at :meth:`finalize`, with every other id, in one pass."""
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

        An ``(m, 2)`` array (or anything numpy reads as one) is buffered
        as-is — the vectorized grouping at finalize produces neighbor
        lists in exactly the order a scalar :meth:`add_edge` loop would
        have appended, including the interleaved mirror entries of
        undirected schemas, so the finalized blobs are bit-identical.
        Ids are checked at :meth:`finalize`.
        """
        self._check_open()
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
            if not edges:
                return
            try:
                array = np.asarray(edges)
            except (ValueError, TypeError):
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
        self._chunks.append(edges)
        self._edge_total += len(edges)

    def _flush_loose(self) -> None:
        if self._loose:
            self._chunks.append(np.asarray(self._loose).reshape(-1, 2))
            self._loose = []

    def _all_edges(self) -> np.ndarray | None:
        """Every buffered edge, arrival order, as one (m, 2) int64 array;
        :exc:`QueryError` if an id is not one a cell can have."""
        self._flush_loose()
        if not self._chunks:
            return None
        checked = [_node_ids(chunk, "edge") for chunk in self._chunks]
        self._chunks = [checked[0] if len(checked) == 1
                        else np.concatenate(checked)]
        return self._chunks[0]

    @staticmethod
    def _group(keys: np.ndarray, values: np.ndarray):
        """Stable grouping: (keys, starts, ends, sorted values).

        The stable sort keeps each key's values in arrival order —
        exactly the per-key append order of a scalar edge loop.
        """
        order = stable_argsort(keys)
        sorted_keys = keys[order]
        boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.append(boundaries, len(sorted_keys))
        return sorted_keys[starts], starts, ends, values[order]

    def _grouped_directions(self, edges: np.ndarray | None):
        """(out_group, in_group_or_None) for the buffered edges."""
        if edges is None:
            empty = np.empty(0, dtype=np.int64)
            empty = (empty, empty, empty, empty)
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
        return len(self._nodes(*self._grouped_directions(self._all_edges())))

    def _nodes(self, out_group, in_group) -> np.ndarray:
        """Every node id, ascending: the declared ones and the edges'."""
        keys = [_node_ids(np.asarray(list(self._explicit_nodes)), "node"),
                out_group[0]]
        if in_group is not None:
            keys.append(in_group[0])
        return first_occurrences(np.concatenate(keys))

    @property
    def edge_count(self) -> int:
        """Edges added so far (a running counter, not a recount)."""
        return self._edge_total

    def finalize(self, bulk: bool = True, cross_check: bool = False) -> Graph:
        """Encode every node into its blob and store it in the cloud.

        ``bulk=True`` (default) encodes the cells a field at a time —
        adjacency lists straight from the grouped edge arrays — into one
        packed batch and stores it with ``cloud.bulk_put``.
        ``cross_check=True`` additionally re-encodes every node through
        the scalar TSL encoder and asserts the blobs are bit-identical
        before anything is stored (mirroring ``BspEngine``'s paranoia
        mode).  An id no cell can have — not an integer, or outside
        ``[0, 2**63)`` — is a :exc:`QueryError` before anything is
        encoded, and the builder stays open.
        """
        self._check_open()
        out_group, in_group = self._grouped_directions(self._all_edges())
        node_ids = self._nodes(out_group, in_group)
        self._finalized = True
        schema = self.graph_schema
        if bulk:
            # Cells in the order the cloud routes them, trunk by trunk
            # (ids ascending within one), so every trunk's run of the
            # batch is one slice of its buffer.
            route = stable_argsort(self.cloud.trunks_of_array(node_ids))
            ids = node_ids[route]
            cells = self._encode(node_ids, route, out_group, in_group)
            if cross_check:
                self._shadow_encoding(ids, out_group, in_group, cells)
            self.cloud.bulk_put(ids, cells)
        else:
            node_type = schema.node_type
            records = self._records(node_ids, out_group, in_group)
            for node_id, record in zip(node_ids.tolist(), records):
                self.cloud.put(node_id, node_type.encode(record))
        return Graph(self.cloud, schema, node_ids.tolist())

    def _encode(self, node_ids: np.ndarray, route: np.ndarray, out_group,
                in_group) -> SpanBatch:
        """Every node's cell, in ``node_ids[route]`` order, as one packed
        batch: the adjacency fields as segments of the grouped edge
        arrays, the attributes as value lists, encoded a field at a
        time."""
        schema = self.graph_schema
        rows = None
        order = route.tolist()
        columns = []
        for name, tsl_type in schema.node_type.fields:
            if name in (schema.out_field, schema.in_field):
                group = out_group if name == schema.out_field else in_group
                columns.append(_segments(group, node_ids, route))
                continue
            if rows is None:
                # Read in id order, the order the dicts were filled in,
                # then permuted: a routed walk of them misses cache.
                rows = list(map(self._attributes.get, node_ids.tolist(),
                                repeat(_NONE)))
            default = tsl_type.default()
            values = [row.get(name, default) for row in rows]
            columns.append([values[i] for i in order])
        return batch_encoder_for(schema.node_type).encode_columns(
            columns, len(order))

    def _shadow_encoding(self, ids, out_group, in_group, cells) -> None:
        """``cross_check``: every bulk blob is the scalar TSL encoding
        of its node's record."""
        encode = self.graph_schema.node_type.encode
        records = self._records(ids, out_group, in_group)
        id_list = ids.tolist()
        shadow("graph.builder.finalize", list(zip(id_list, cells.blobs())),
               [(node_id, encode(record))
                for node_id, record in zip(id_list, records)])

    def _records(self, ids, out_group, in_group) -> list[dict]:
        """Python-dict records per node (scalar path and cross-check)."""
        schema = self.graph_schema

        def as_lists(group):
            keys, starts, ends, sorted_values = group
            values = sorted_values.tolist()
            return {key: values[start:end] for key, start, end
                    in zip(keys.tolist(), starts.tolist(), ends.tolist())}

        out_lists = as_lists(out_group)
        in_lists = as_lists(in_group) if in_group is not None else None
        records = []
        for node_id in ids.tolist():
            record = dict(self._attributes.get(node_id, ()))
            record[schema.out_field] = out_lists.get(node_id, [])
            if schema.in_field is not None:
                record[schema.in_field] = (in_lists or {}).get(node_id, [])
            records.append(record)
        return records

    def _check_open(self) -> None:
        if self._finalized:
            raise QueryError("GraphBuilder already finalized")


_NONE: dict = {}


def _node_ids(ids: np.ndarray, what: str) -> np.ndarray:
    """``ids`` as int64 if each is an id a node can have — an integer in
    ``[0, 2**63)``, a cell key a ``List<long>`` holds — else
    :exc:`QueryError`: one vectorized pass, no work per id."""
    if ids.size and (ids.dtype.kind not in "iu" or ids.min() < 0
                     or ids.max() > np.iinfo(np.int64).max):
        raise QueryError(f"{what} ids must be integers in [0, 2**63)")
    return ids.astype(np.int64, copy=False)


def _segments(group, node_ids: np.ndarray, route: np.ndarray) -> SpanBatch:
    """One direction's grouped lists as segments in ``node_ids[route]``
    order (``node_ids`` ascending; a node with no list in that direction
    gets an empty segment)."""
    keys, starts, ends, values = group
    at = np.searchsorted(node_ids, keys)
    first = np.zeros(len(node_ids), dtype=np.int64)
    last = np.zeros(len(node_ids), dtype=np.int64)
    first[at] = starts
    last[at] = ends
    return SpanBatch(values, first[route], last[route])
