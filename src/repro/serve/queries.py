"""Resumable server-side queries: cooperative plans over batch reads.

A served query is a *plan*: a generator that yields :class:`BatchOp`
read requests and receives their results back via ``send``.  The
scheduler steps every in-flight plan once per fusion window, so the
frontiers of all concurrent queries meet in one place and can share a
single bulk read against the memory cloud (see
:mod:`repro.serve.fusion`).

Each query class also knows how to run itself through the existing
one-at-a-time library path (:meth:`ServeQuery.run_sequential`) — the
serving layer's correctness oracle: ``cross_check=True`` replays every
completion through it and hands both answers to
:func:`repro.oracle.shadow` before the served one is published.

Plans return *canonical* results — plain sorted lists/dicts that are
order-invariant over scheduling, so a fused execution, a cached answer
and a sequential replay of the same query are directly comparable with
``==``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..algorithms.people_search import _VisitedTracker, people_search
from ..algorithms.subgraph import match_subgraph
from ..errors import QueryError
from ..net.simnet import SimNetwork
from ..tql.engine import _OPS, execute_tql
from ..tql.parser import TqlQuery, parse_tql
from ..utils.arrays import first_occurrences

#: Batch-read kinds a plan may yield.  ``outlinks``/``inlinks`` answer
#: with a CSR ``(indptr, flat)`` pair over the op's ids; ``field_eq``
#: with a bool array; ``field_read`` with a list of decoded values.
OP_KINDS = ("outlinks", "inlinks", "field_eq", "field_read")


@dataclass
class BatchOp:
    """One batched read request yielded by a query plan."""

    kind: str
    ids: np.ndarray
    field: str | None = None
    value: object | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise QueryError(f"unknown batch op kind {self.kind!r}")
        self.ids = np.asarray(self.ids, dtype=np.int64)

    def group_key(self) -> tuple:
        """Ops with equal keys fuse into one bulk read per window."""
        return (self.kind, self.field, self.value)


class ServeQuery:
    """Base class: a cache key, a cooperative plan, a sequential oracle."""

    cls_name = "query"

    def key(self) -> tuple:
        """Hashable identity for the result cache (same key == same
        answer at the same mutation epoch)."""
        raise NotImplementedError

    def plan(self, ctx):
        """Generator yielding :class:`BatchOp`; returns the canonical
        result.  ``ctx`` is the serving server (graph + snapshots)."""
        raise NotImplementedError

    def run_sequential(self, ctx):
        """The existing one-at-a-time library execution of this query,
        in canonical form — the correctness oracle."""
        raise NotImplementedError


class PeopleSearchQuery(ServeQuery):
    """The paper's "David problem" as a fusible BFS plan.

    Canonical result: ``{"matches": sorted ids, "visited": count}`` —
    both are set-determined, so any interleaving of the frontier
    expansion (fused across queries or not) produces the same value as
    :func:`repro.algorithms.people_search.people_search`.
    """

    cls_name = "people_search"

    def __init__(self, start: int, name: str, hops: int = 3):
        if hops < 1:
            raise QueryError("hops must be >= 1")
        self.start = int(start)
        self.name = name
        self.hops = int(hops)

    def key(self) -> tuple:
        return (self.cls_name, self.start, self.name, self.hops)

    def plan(self, ctx):
        graph = ctx.graph
        visited = _VisitedTracker(self.start)
        frontier = np.asarray([self.start], dtype=np.int64)
        matches: list[int] = []
        for _hop in range(self.hops):
            if not len(frontier):
                break
            indptr, flat = yield BatchOp("outlinks", frontier)
            del indptr
            new = first_occurrences(flat[visited.unseen(flat)])
            if not len(new):
                break
            visited.add(new)
            hits = yield BatchOp("field_eq", new, field="Name",
                                 value=self.name)
            matches.extend(new[hits].tolist())
            frontier = new
        return {"matches": sorted(matches), "visited": visited.count - 1}

    def run_sequential(self, ctx):
        result = people_search(ctx.graph, self.start, self.name,
                               hops=self.hops, network=SimNetwork())
        return {"matches": sorted(result.matches),
                "visited": result.visited}


class LandmarkBfsQuery(ServeQuery):
    """Level-synchronous BFS from one source through the live cells.

    The exploration primitive under landmark selection and the distance
    oracle (Section 5.5) — served online here.  Canonical result:
    ``{"levels": [frontier sizes], "reached": count}``.
    """

    cls_name = "landmark_bfs"

    def __init__(self, source: int, max_hops: int = 6):
        if max_hops < 1:
            raise QueryError("max_hops must be >= 1")
        self.source = int(source)
        self.max_hops = int(max_hops)

    def key(self) -> tuple:
        return (self.cls_name, self.source, self.max_hops)

    def plan(self, ctx):
        visited = _VisitedTracker(self.source)
        frontier = np.asarray([self.source], dtype=np.int64)
        levels: list[int] = []
        for _hop in range(self.max_hops):
            if not len(frontier):
                break
            _indptr, flat = yield BatchOp("outlinks", frontier)
            new = first_occurrences(flat[visited.unseen(flat)])
            if not len(new):
                break
            visited.add(new)
            levels.append(len(new))
            frontier = new
        return {"levels": levels, "reached": visited.count - 1}

    def run_sequential(self, ctx):
        graph = ctx.graph
        visited = {self.source}
        frontier = [self.source]
        levels: list[int] = []
        for _hop in range(self.max_hops):
            if not frontier:
                break
            next_frontier: list[int] = []
            for node in frontier:
                for neighbor in graph.outlinks(node):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            if not next_frontier:
                break
            levels.append(len(next_frontier))
            frontier = next_frontier
        return {"levels": levels, "reached": len(visited) - 1}


class TqlServeQuery(ServeQuery):
    """A TQL query; fuses when it is an anchored single-chain reach.

    ``MATCH (a = X) -[Field*m..n]-> (b {attr: 'v', ...}) WHERE <residual
    on b> RETURN b`` is the bounded-BFS-plus-filter shape the fusion
    window speaks natively: the chain expands through ``outlinks`` ops
    (or ``inlinks`` ops for reverse edges — ``<-[Field]-`` — and for
    forward traversal of the schema's in-field), node filters ride
    ``field_eq`` ops, and WHERE conditions whose variable operands all
    name the *target* node are applied post-expansion from ``field_read``
    columns with the inline engine's operator semantics.  Anything else —
    conditions on the anchor, longer chains, LIMIT, projections through
    fields, unanchored scans — executes inline through
    :func:`repro.tql.engine.execute_tql` when the plan is first stepped.
    Canonical result: sorted distinct rows.
    """

    cls_name = "tql"

    def __init__(self, text: str):
        self.text = text
        self.query: TqlQuery = parse_tql(text)

    def key(self) -> tuple:
        # Whitespace-normalized so trivially-reformatted identical
        # queries share one result-cache entry.
        return (self.cls_name, " ".join(self.text.split()))

    # -- fusibility --------------------------------------------------------

    def _fusion_shape(self, graph) -> str | None:
        """The fused adjacency op kind (``outlinks``/``inlinks``) that
        executes this query's chain, or None when it must run inline."""
        q = self.query
        if len(q.nodes) != 2 or len(q.edges) != 1 or q.limit is not None:
            return None
        anchor_node, target = q.nodes
        if anchor_node.var == target.var:
            # Re-mentioning a variable joins back to it (engine
            # semantics), not a fresh BFS target.
            return None
        if anchor_node.anchor is None or anchor_node.filters:
            return None
        if target.anchor is not None:
            return None
        edge = q.edges[0]
        if edge.min_hops < 1:
            return None
        if len(q.returns) != 1:
            return None
        ret = q.returns[0]
        if ret.is_literal or ret.var != target.var or ret.field is not None:
            return None
        declared = set(graph.graph_schema.node_type.field_names())
        if any(field not in declared for field, _v in target.filters):
            return None
        # field_eq fusion compares raw utf-8 bytes — strings only.
        if not all(isinstance(value, str) for _f, value in target.filters):
            return None
        for condition in q.conditions:
            for operand in (condition.left, condition.right):
                if operand.var is not None and operand.var != target.var:
                    # Anchor-side (or unrelated) conditions prune before
                    # expansion in the engine; keep those inline.
                    return None
                if (operand.field is not None
                        and operand.field not in declared):
                    return None
            if condition.left.is_literal and condition.right.is_literal:
                return None
        # Map the edge direction onto a batched adjacency read with the
        # exact semantics of the engine's single_expand.
        schema = graph.graph_schema
        if not edge.reverse:
            if edge.field == schema.out_field:
                return "outlinks"
            if schema.in_field is not None and edge.field == schema.in_field:
                return "inlinks"
            return None
        if edge.field == schema.out_field:
            # <-[out]- walks the in-lists on a directed schema; on an
            # undirected one the single list is symmetric already.
            return "inlinks" if schema.in_field is not None else "outlinks"
        if schema.in_field is not None and edge.field == schema.in_field:
            return "outlinks"
        return None

    def fusible(self, graph) -> bool:
        return self._fusion_shape(graph) is not None

    def _operand_column(self, operand, alive: np.ndarray):
        """Per-candidate values of one WHERE operand (a sub-plan:
        ``yield from`` it inside :meth:`plan`)."""
        if operand.is_literal:
            return [operand.literal] * len(alive)
        if operand.field is None:
            return [int(node) for node in alive.tolist()]
        values = yield BatchOp("field_read", alive, field=operand.field)
        return list(values)

    def plan(self, ctx):
        graph = ctx.graph
        op_kind = self._fusion_shape(graph)
        if op_kind is None:
            result = execute_tql(graph, self.query, network=SimNetwork())
            return sorted(result.rows)
        anchor = self.query.nodes[0].anchor
        if anchor not in graph:
            return []
        edge = self.query.edges[0]
        # Bounded BFS, Cypher ``*m..n`` semantics: nodes whose *first*
        # reach depth along the field lies in [min_hops, max_hops].
        visited = _VisitedTracker(anchor)
        frontier = np.asarray([anchor], dtype=np.int64)
        candidates: list[np.ndarray] = []
        for depth in range(1, edge.max_hops + 1):
            if not len(frontier):
                break
            _indptr, flat = yield BatchOp(op_kind, frontier)
            new = first_occurrences(flat[visited.unseen(flat)])
            if not len(new):
                break
            visited.add(new)
            if depth >= edge.min_hops:
                candidates.append(new)
            frontier = new
        if not candidates:
            return []
        found = np.concatenate(candidates)
        keep = np.ones(len(found), dtype=bool)
        for field_name, value in self.query.nodes[1].filters:
            hits = yield BatchOp("field_eq", found[keep], field=field_name,
                                 value=value)
            keep[np.flatnonzero(keep)] = hits
        # WHERE residuals: filters over the target variable, applied
        # post-expansion with the inline engine's operators (including
        # its canonical error on uncomparable operands).
        for condition in self.query.conditions:
            alive = found[keep]
            if not len(alive):
                break
            left = yield from self._operand_column(condition.left, alive)
            right = yield from self._operand_column(condition.right, alive)
            apply = _OPS[condition.op]
            verdicts = np.empty(len(alive), dtype=bool)
            for i, (lhs, rhs) in enumerate(zip(left, right)):
                try:
                    verdicts[i] = bool(apply(lhs, rhs))
                except TypeError as exc:
                    raise QueryError(
                        f"cannot compare {lhs!r} {condition.op} "
                        f"{rhs!r}: {exc}"
                    ) from None
            keep[np.flatnonzero(keep)] = verdicts
        return sorted((int(node),) for node in found[keep])

    def run_sequential(self, ctx):
        result = execute_tql(ctx.graph, self.query, network=SimNetwork())
        return sorted(result.rows)


class SubgraphServeQuery(ServeQuery):
    """Subgraph match over the server's topology/label snapshot.

    Runs inline (no fusion — the matcher explores a memory-resident CSR
    snapshot, not the live cells), but still rides the admission queue,
    SLO accounting and result cache.  The server rebuilds its snapshot
    whenever the cloud's mutation epoch moves, so a cached embedding
    list can never outlive the graph it was found in.  Canonical result:
    sorted embeddings.
    """

    cls_name = "subgraph"

    def __init__(self, query, max_embeddings: int = 256):
        self.query = query
        self.max_embeddings = int(max_embeddings)

    def key(self) -> tuple:
        return (self.cls_name, repr(self.query), self.max_embeddings)

    def _match(self, ctx):
        topology, labels, index = ctx.snapshot()
        result = match_subgraph(topology, labels, self.query,
                                network=SimNetwork(), index=index,
                                max_embeddings=self.max_embeddings)
        return sorted(result.embeddings)

    def plan(self, ctx):
        return self._match(ctx)
        yield  # pragma: no cover — makes plan() a generator

    def run_sequential(self, ctx):
        return self._match(ctx)


@dataclass
class QueryTicket:
    """Admission-to-completion record for one submitted query."""

    query: ServeQuery
    deadline: float | None = None
    priority: str = ""              # WFQ class (defaults to cls_name)
    status: str = "queued"          # queued | running | done | rejected
    reject_reason: str | None = None
    result: object = None
    cached: bool = False
    submitted_at: float = 0.0
    finished_at: float = 0.0
    windows: int = 0
    trunks: set | None = None       # trunk footprint of the plan's reads
    extras: dict = dataclass_field(default_factory=dict)

    @property
    def latency(self) -> float:
        """Submit-to-completion wall seconds (0 until finished)."""
        if self.status not in ("done", "rejected"):
            return 0.0
        return max(0.0, self.finished_at - self.submitted_at)
