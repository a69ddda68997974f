"""The Graph API: adjacency and attribute access over cloud-resident cells.

Reads decode straight from the node's blob in its memory trunk — the graph
is never shadow-copied into Python objects (the paper's Section 4.3
argument against runtime objects).  For tight analytic loops the compute
engines build a :class:`~repro.graph.csr.CsrTopology` snapshot once and
reuse it across supersteps, matching Trinity's memory-resident topology.

Online queries get a middle road: the ``*_batch`` methods take a whole
frontier of node ids at once, locate it through the memory cloud's
``bulk_get_spans`` (two vectorized hashes, one probe pass and one copy
into the read's one buffer, however many trunks it touches) and decode
adjacency columns CSR-style, once per read, via the compiled decoders
in :mod:`repro.tsl.batch` — k frontier nodes cost one batched read
instead of k hash probes plus k whole-cell decodes.  The
scalar reads are that path's reference: inside a
:func:`repro.oracle.checking` scope every batch entry point replays them
per node and hands both answers to :func:`repro.oracle.shadow`.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..memcloud import MemoryCloud
from ..oracle import is_checking, shadow
from ..tsl.accessor import use_cell
from ..tsl.batch import batch_decoder_for
from ..tsl.layout import install_layout_policy
from ..tsl.types import ListType
from ..utils.arrays import gather_ranges
from .model import GraphSchema

class Graph:
    """A graph whose nodes live as cells in a memory cloud.

    Construct via :class:`~repro.graph.builder.GraphBuilder` rather than
    directly; the builder guarantees every node's cell exists.
    """

    def __init__(self, cloud: MemoryCloud, graph_schema: GraphSchema,
                 node_ids: list[int]):
        self.cloud = cloud
        self.graph_schema = graph_schema
        install_layout_policy(graph_schema.node_type,
                              cloud.config.memory.resolved_layout_policy())
        self.node_ids = list(node_ids)
        self._node_type = graph_schema.node_type
        self._decoder = batch_decoder_for(self._node_type)
        obs = cloud.obs
        self._m_batch_calls = obs.counter("query.batch.calls")
        self._m_batch_cells = obs.counter("query.batch.cells")
        self._m_batch_dedup = obs.counter("query.batch.cells_deduped")
        self._m_batch_headers = obs.counter("query.batch.degree_headers")

    # -- basic shape --------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def directed(self) -> bool:
        return self.graph_schema.directed

    def __contains__(self, node_id: int) -> bool:
        return self.cloud.contains(node_id)

    def num_edges(self) -> int:
        if not self.node_ids:
            return 0
        degrees = self.degree_batch(np.asarray(self.node_ids,
                                               dtype=np.int64))
        total = int(degrees.sum())
        return total if self.directed else total // 2

    # -- adjacency ---------------------------------------------------------

    def _read_field(self, node_id: int, field_name: str):
        blob = self.cloud.get(node_id)
        field_type = self._node_type.field_type(field_name)
        offset = self._node_type.field_offset(blob, field_name)
        value, _ = field_type.decode(blob, offset)
        return value

    def outlinks(self, node_id: int) -> list[int]:
        """Outgoing neighbor ids (all neighbors when undirected)."""
        return self._read_field(node_id, self.graph_schema.out_field)

    def inlinks(self, node_id: int) -> list[int]:
        """Incoming neighbor ids; equals :meth:`outlinks` when undirected."""
        if self.graph_schema.in_field is None:
            return self._read_field(node_id, self.graph_schema.out_field)
        return self._read_field(node_id, self.graph_schema.in_field)

    def degree(self, node_id: int) -> int:
        """Out-degree, decoded from the adjacency list's count header
        only — the elements are never touched."""
        field_name = self.graph_schema.out_field
        field_type = self._node_type.field_type(field_name)
        if not isinstance(field_type, ListType):
            return len(self.outlinks(node_id))
        blob = self.cloud.get(node_id)
        offset = self._node_type.field_offset(blob, field_name)
        return field_type.decode_count(blob, offset)[0]

    # -- batched adjacency (the online traversal fast path) ----------------

    def _read_batch(self, node_ids, field_name: str, decode, scalar,
                    dtype=None, csr: bool = False):
        """The one batched read behind every ``*_batch`` method.

        Fetches the frontier as one span read — every span in the read's
        one private buffer, on either storage, and on a resident cloud
        cut to the field where the decoder knows where it ends — runs
        ``decode(buffer, starts, limits, field_name)`` once over all of
        them, and scatters the results to input order:
        an ndarray of ``dtype``, a plain list when ``dtype`` is None, or
        ``(indptr, flat)`` with ``flat`` of ``dtype`` when ``csr``.

        Repeated node ids are deduplicated *before* hashing and routing:
        fused multi-query frontiers overlap heavily, and a duplicate
        would otherwise pay the full addressing + trunk lookup + decode
        cost twice; results are expanded back afterwards (duplicate-free
        input, the common single-query case, keeps its routing order).

        The freshness check runs *after* decoding: if any touched trunk
        structurally changed since the span fetch (a put that triggered
        a defrag, a remove, a resize) the cells may have moved under the
        copy, so the answer is
        :class:`~repro.errors.StaleSpanError`, never silent garbage.

        Checked, it replays ``scalar(node_id)`` per input id and raises
        :class:`~repro.errors.DivergenceError` on any difference.
        """
        self._require_field(field_name)
        ids = np.asarray(node_ids, dtype=np.int64)
        if ids.ndim != 1:
            raise QueryError(
                f"batch reads take a 1-D id array, got shape {ids.shape}"
            )
        self._m_batch_calls.inc()
        self._m_batch_cells.inc(len(ids))
        unique, inverse = ids, None
        # Strictly increasing ids (a fused window's misses, a sorted
        # frontier) are duplicate-free by an O(n) look: no sort.
        if len(ids) > 1 and not (ids[1:] > ids[:-1]).all():
            unique, inverse = np.unique(ids, return_inverse=True)
            if len(unique) == len(ids):
                unique, inverse = ids, None
            else:
                self._m_batch_dedup.inc(len(ids) - len(unique))
        read = self.cloud.bulk_get_spans(
            unique, clip=self._decoder.clip(field_name))
        part = decode(read.buffer, read.starts, read.limits, field_name)
        read.assert_fresh()
        idx = read.positions
        m = len(unique)
        if csr:
            sub_indptr, sub_flat = part
            sizes = np.diff(sub_indptr)
            counts = np.zeros(m, dtype=np.int64)
            counts[idx] = sizes
            indptr = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            # Scatter the read's contiguous lists to their input-order
            # positions in one fancy index.
            flat = np.empty(int(indptr[-1]), dtype=dtype)
            flat[np.repeat(indptr[idx] - sub_indptr[:-1], sizes)
                 + np.arange(len(sub_flat))] = sub_flat
            if inverse is not None:
                # Each duplicate position gathers its unique id's list.
                flat = gather_ranges(flat, indptr[inverse], counts[inverse])
                indptr = np.zeros(len(ids) + 1, dtype=np.int64)
                np.cumsum(counts[inverse], out=indptr[1:])
            result = indptr, flat
        elif dtype is None:
            result = [None] * m
            for i, value in zip(idx.tolist(), part):
                result[i] = value
            if inverse is not None:
                result = [result[j] for j in inverse.tolist()]
        else:
            result = np.zeros(m, dtype=dtype)
            result[idx] = part
            if inverse is not None:
                result = result[inverse]
        if is_checking():
            if csr:
                values, cuts = flat.tolist(), indptr.tolist()
                rows = [values[cuts[i]:cuts[i + 1]] for i in range(len(ids))]
            else:
                rows = result if dtype is None else result.tolist()
            nodes = ids.tolist()
            shadow("graph.api.read_batch", list(zip(nodes, rows)),
                   [(node_id, scalar(node_id)) for node_id in nodes])
        return result

    def outlinks_batch(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency for a whole frontier: ``(indptr, flat)``.

        ``flat[indptr[i]:indptr[i + 1]]`` are the out-neighbors of
        ``node_ids[i]`` — one span fetch and one columnar decode for the
        whole batch."""
        return self.read_field_csr(node_ids, self.graph_schema.out_field)

    def inlinks_batch(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """CSR in-neighbors per node (== :meth:`outlinks_batch` when
        undirected)."""
        field = self.graph_schema.in_field or self.graph_schema.out_field
        return self.read_field_csr(node_ids, field)

    def read_field_csr(self, node_ids, field_name: str
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Batched CSR decode of one ``List<primitive>`` field."""
        self._require_field(field_name)
        dtype = self._decoder.csr_dtype(field_name)
        if dtype is None:
            raise QueryError(
                f"field {field_name!r} has no CSR batch decoding"
            )
        return self._read_batch(
            node_ids, field_name, self._decoder.decode_list_csr_spans,
            lambda node_id: self._read_field(node_id, field_name),
            dtype=dtype, csr=True)

    def read_field_batch(self, node_ids, field_name: str) -> list:
        """One value per node for any declared field (attribute or edge
        list), through one span fetch — the batched twin of
        :meth:`read_field`."""
        return self._read_batch(
            node_ids, field_name, self._decoder.decode_column_spans,
            lambda node_id: self._read_field(node_id, field_name))

    def field_eq_batch(self, node_ids, field_name: str, value) -> np.ndarray:
        """``field == value`` per node, as one bool array.

        The frontier name-check of people search: for string fields the
        comparison runs on the raw utf-8 bytes in the trunk arenas —
        length headers reject most nodes, and no Python string is ever
        built for the rest.
        """
        decoder = self._decoder
        return self._read_batch(
            node_ids, field_name,
            lambda *args: decoder.string_eq_spans(*args, value),
            lambda node_id: self._read_field(node_id, field_name) == value,
            dtype=bool)

    def degree_batch(self, node_ids) -> np.ndarray:
        """Out-degrees for a batch of nodes, reading only the adjacency
        count headers (no element decode at all)."""
        field_name = self.graph_schema.out_field
        decoder = self._decoder
        if isinstance(self._node_type.field_type(field_name), ListType):
            decode = decoder.field_counts_spans
        else:
            def decode(*args):
                return [len(v) for v in decoder.decode_column_spans(*args)]
        counts = self._read_batch(
            node_ids, field_name, decode,
            lambda node_id: len(self.outlinks(node_id)),
            dtype=np.int64)
        self._m_batch_headers.inc(len(counts))
        return counts

    def machine_of_batch(self, node_ids) -> np.ndarray:
        """Owning machine per node — one vectorized ``trunk_of_array``
        pass through the addressing table."""
        return self.cloud.machines_of_array(node_ids)

    def _require_field(self, field_name: str) -> None:
        if field_name not in self._node_type.field_names():
            raise QueryError(
                f"{self.graph_schema.cell_name} has no field "
                f"{field_name!r}"
            )

    # -- attributes ---------------------------------------------------------

    def attribute(self, node_id: int, field_name: str):
        """Read one attribute field of a node."""
        if field_name not in self.graph_schema.attribute_fields:
            raise QueryError(
                f"{field_name!r} is not an attribute of "
                f"{self.graph_schema.cell_name}"
            )
        return self._read_field(node_id, field_name)

    def read_field(self, node_id: int, field_name: str):
        """Read any declared field of a node's cell (attribute or edge
        list) — the raw access surface TQL queries are compiled onto."""
        self._require_field(field_name)
        return self._read_field(node_id, field_name)

    def node(self, node_id: int) -> dict:
        """Materialise a node's full cell as a dict."""
        blob = self.cloud.get(node_id)
        value, _ = self._node_type.decode(blob, 0)
        return value

    def use_node(self, node_id: int):
        """Open a cell accessor on a node (for in-place mutation)."""
        return use_cell(self.cloud, node_id, self._node_type)

    # -- online mutation ---------------------------------------------------

    def add_node(self, node_id: int, **attributes) -> None:
        """Insert one node into the live graph (online update path).

        Writes go through the buffered log when the cloud belongs to a
        cluster with logging enabled, so online inserts survive crashes
        exactly like client writes (Section 6.2).
        """
        if self.cloud.contains(node_id):
            raise QueryError(f"node {node_id} already exists")
        schema = self.graph_schema
        unknown = set(attributes) - set(schema.attribute_fields)
        if unknown:
            raise QueryError(f"unknown attributes: {sorted(unknown)}")
        record = dict(attributes)
        record[schema.out_field] = []
        if schema.in_field is not None:
            record[schema.in_field] = []
        self.cloud.put(node_id, self._node_type.encode(record))
        self.node_ids.append(node_id)

    def add_edge(self, src: int, dst: int) -> None:
        """Insert one edge into the live graph via cell accessors.

        Grows the endpoint cells in place (exercising the short-lived
        reservation path of Section 6.1 when blobs outgrow their slots).
        """
        for endpoint in (src, dst):
            if not self.cloud.contains(endpoint):
                self.add_node(endpoint)
        schema = self.graph_schema
        with self.use_node(src) as cell:
            cell.get(schema.out_field).append(dst)
        if schema.in_field is not None:
            with self.use_node(dst) as cell:
                cell.get(schema.in_field).append(src)
        else:
            with self.use_node(dst) as cell:
                cell.get(schema.out_field).append(src)

    # -- placement ---------------------------------------------------------

    def machine_of(self, node_id: int) -> int:
        """The machine hosting this node's cell."""
        return self.cloud.machine_of(node_id)

    def nodes_on(self, machine_id: int) -> list[int]:
        """Node ids hosted by one machine (ascending); empty for a
        machine the addressing table no longer names."""
        return sorted(self.partition().get(machine_id, []))

    def partition(self) -> dict[int, list[int]]:
        """machine id → node ids, for the whole graph, keyed by the
        machines the addressing table names now: one
        :meth:`machine_of_batch` pass, so it follows recovery and
        joins."""
        machines: dict[int, list[int]] = {
            m: [] for m in self.cloud.addressing.machines()
        }
        if self.node_ids:
            owners = self.machine_of_batch(
                np.asarray(self.node_ids, dtype=np.int64)).tolist()
            for node_id, machine in zip(self.node_ids, owners):
                machines[machine].append(node_id)
        return machines
