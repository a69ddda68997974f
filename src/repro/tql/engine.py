"""TQL execution: exploration-based pattern matching over a Graph.

Follows the Section 5.2 philosophy — no structure index, just fast cell
access and traversal.  The pattern chain is matched left to right by
backtracking: anchored or filtered node patterns seed the search, edge
patterns expand through the named adjacency field (reverse edges scan
the in-field when the schema has one), and WHERE conditions prune as
soon as their operands are bound.

Costs are charged like the other online queries: one cell access per
candidate touched, adjacency scans per edge expansion, and traffic when
the expansion crosses machines — all folded into one
:class:`~repro.net.simnet.ParallelRound` under the spread-work model.

Candidate sets and BFS waves are *prefetched* through
``Graph.read_field_batch`` — one span fetch plus one column decode per
wave — into a staging dict that ``read_field`` consumes.  Costs are
charged on first *consumption*, never at prefetch time, so
``cells_touched``/``elapsed`` stay bit-identical to the same engine with
the prefetch off (its private reference: one scalar read per value) even
when a LIMIT stops the search before prefetched values are used.
Inside a :func:`repro.oracle.checking` scope both run — per batched
read and for the whole query — through :func:`repro.oracle.shadow`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from ..config import CELL_ACCESS_COST, EDGE_SCAN_COST, THREADS_PER_MACHINE
from ..errors import QueryError
from ..net.simnet import ParallelRound, SimNetwork
from ..oracle import is_checking, shadow
from .parser import Operand, TqlQuery, parse_tql

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@dataclass
class TqlResult:
    """Projected rows plus execution accounting."""

    query: TqlQuery
    rows: list[tuple] = field(default_factory=list)
    cells_touched: int = 0
    messages: int = 0
    elapsed: float = 0.0
    truncated: bool = False


def execute_tql(graph, query: TqlQuery | str,
                network: SimNetwork | None = None,
                max_rows: int = 10_000) -> TqlResult:
    """Run a TQL query against a :class:`~repro.graph.api.Graph`.

    Checked, it also re-executes the query with the batched prefetch
    off and raises
    :class:`~repro.errors.DivergenceError` if rows, cost
    accounting or simulated time diverge.
    """
    if isinstance(query, str):
        query = parse_tql(query)
    network = network or SimNetwork()
    result = _execute(graph, query, network, max_rows, True)
    if is_checking():
        reference = _execute(graph, query, SimNetwork(network.params),
                             max_rows, False)
        shadow("tql.engine.execute", result, reference,
               fields=("rows", "cells_touched", "messages", "elapsed",
                       "truncated"))
    return result


def _execute(graph, query: TqlQuery, network: SimNetwork, max_rows: int,
             batch: bool) -> TqlResult:
    result = TqlResult(query=query)
    limit = query.limit if query.limit is not None else max_rows

    compute = [0.0]
    remote = [0, 0]  # messages, bytes
    field_cache: dict[tuple[int, str], object] = {}
    # Values staged by the batched prefetch.  Consuming one through
    # read_field charges the same cell-access cost as a scalar read, so
    # prefetching more than the scalar path ends up touching (e.g. under
    # a LIMIT early exit) never skews the accounting.
    prefetched: dict[tuple[int, str], object] = {}
    seen_rows: set[tuple] = set()

    def read_field(node_id: int, field_name: str):
        key = (node_id, field_name)
        if key not in field_cache:
            if key in prefetched:
                field_cache[key] = prefetched.pop(key)
            else:
                field_cache[key] = graph.read_field(node_id, field_name)
            compute[0] += CELL_ACCESS_COST
            result.cells_touched += 1
        return field_cache[key]

    def prefetch(node_ids, field_name: str) -> None:
        """Stage a column for later read_field consumption (batch only)."""
        if not batch:
            return
        wanted: list[int] = []
        staged = set()
        for node_id in node_ids:
            node_id = int(node_id)
            key = (node_id, field_name)
            if (key in field_cache or key in prefetched
                    or node_id in staged):
                continue
            staged.add(node_id)
            wanted.append(node_id)
        if len(wanted) < 2:
            return
        values = graph.read_field_batch(
            np.asarray(wanted, dtype=np.int64), field_name)
        for node_id, value in zip(wanted, values):
            prefetched[(node_id, field_name)] = value

    def node_matches(pattern, node_id: int) -> bool:
        if pattern.anchor is not None and node_id != pattern.anchor:
            return False
        for field_name, expected in pattern.filters:
            if read_field(node_id, field_name) != expected:
                return False
        return True

    def operand_value(op: Operand, binding: dict):
        if op.is_literal:
            return op.literal
        value = binding[op.var]
        if op.field is not None:
            return read_field(value, op.field)
        return value

    def check_conditions(binding: dict) -> bool:
        for condition in query.conditions:
            for op in (condition.left, condition.right):
                if op.var is not None and op.var not in binding:
                    break
            else:
                left = operand_value(condition.left, binding)
                right = operand_value(condition.right, binding)
                try:
                    if not _OPS[condition.op](left, right):
                        return False
                except TypeError as exc:
                    raise QueryError(
                        f"cannot compare {left!r} {condition.op} "
                        f"{right!r}: {exc}"
                    ) from None
        return True

    def seed_candidates(pattern):
        if pattern.anchor is not None:
            if pattern.anchor in graph:
                return [pattern.anchor]
            return []
        # No anchor: scan the node population (the no-index trade-off;
        # filters prune during the scan).
        return graph.node_ids

    def scans_adjacency_field(edge) -> bool:
        """True when single_expand reads ``edge.field`` via read_field."""
        if not edge.reverse:
            return True
        schema = graph.graph_schema
        if edge.field == schema.out_field and schema.in_field:
            return False
        if schema.in_field and edge.field == schema.in_field:
            return False
        return True

    def expand(node_id: int, edge):
        if edge.variable_length:
            return variable_expand(node_id, edge)
        return single_expand(node_id, edge)

    def variable_expand(node_id: int, edge):
        """Bounded BFS: nodes whose hop distance along the field lies in
        [min_hops, max_hops] (Cypher-style ``*min..max`` semantics)."""
        single = type(edge)(edge.field, edge.reverse)
        prefetchable = scans_adjacency_field(single)
        distance = {node_id: 0}
        frontier = [node_id]
        found: list[int] = []
        for depth in range(1, edge.max_hops + 1):
            if prefetchable:
                # One column decode covers the whole BFS wave.
                prefetch(frontier, edge.field)
            next_frontier: list[int] = []
            for current in frontier:
                for neighbor in single_expand(current, single):
                    neighbor = int(neighbor)
                    if neighbor not in distance:
                        distance[neighbor] = depth
                        next_frontier.append(neighbor)
                        if depth >= edge.min_hops:
                            found.append(neighbor)
            frontier = next_frontier
        if edge.min_hops == 0:
            found.insert(0, node_id)
        return found

    def single_expand(node_id: int, edge):
        if not edge.reverse:
            targets = read_field(node_id, edge.field)
        else:
            schema = graph.graph_schema
            if edge.field == schema.out_field and schema.in_field:
                targets = graph.inlinks(node_id)
                compute[0] += CELL_ACCESS_COST
            elif schema.in_field and edge.field == schema.in_field:
                targets = graph.outlinks(node_id)
                compute[0] += CELL_ACCESS_COST
            else:
                # Undirected field: the list is symmetric already.
                targets = read_field(node_id, edge.field)
        if not isinstance(targets, list):
            raise QueryError(
                f"field {edge.field!r} is not an adjacency list"
            )
        compute[0] += len(targets) * EDGE_SCAN_COST
        return targets

    def backtrack(index: int, binding: dict) -> bool:
        """False when the row limit stops the search."""
        if len(result.rows) >= limit:
            result.truncated = query.limit is None
            return False
        if index == len(query.nodes):
            row = tuple(
                operand_value(item, binding) for item in query.returns
            )
            if row not in seen_rows:  # projection semantics: distinct
                seen_rows.add(row)
                result.rows.append(row)
            return True
        pattern = query.nodes[index]
        if index == 0:
            candidates = seed_candidates(pattern)
            source = None
        else:
            edge = query.edges[index - 1]
            source = binding[query.nodes[index - 1].var]
            candidates = expand(source, edge)
        if pattern.filters and pattern.anchor is None:
            # Every surviving candidate will read the first filter field;
            # stage the whole column in one batched pass.
            prefetch(candidates, pattern.filters[0][0])
        rebound = pattern.var in binding
        for candidate in candidates:
            candidate = int(candidate)
            if rebound:
                if binding[pattern.var] != candidate:
                    continue
            if not node_matches(pattern, candidate):
                continue
            if source is not None:
                target_machine = graph.machine_of(candidate)
                if graph.machine_of(source) != target_machine:
                    remote[0] += 1
                    remote[1] += 8 * (len(binding) + 1)
                    result.messages += 1
            binding[pattern.var] = candidate
            if check_conditions(binding):
                alive = backtrack(index + 1, binding)
            else:
                alive = True
            if rebound:
                pass  # leave the earlier binding in place
            else:
                del binding[pattern.var]
            if not alive:
                return False
        return True

    backtrack(0, {})

    machines = graph.cloud.config.machines
    round_ = ParallelRound(network)
    for machine in range(machines):
        round_.add_compute(machine, compute[0] / machines)
    if remote[0]:
        pairs = max(1, machines * (machines - 1))
        for src in range(machines):
            for dst in range(machines):
                if src != dst:
                    round_.add_message(src, dst, remote[1] // pairs,
                                       max(1, remote[0] // pairs))
    result.elapsed = round_.finish(parallelism=THREADS_PER_MACHINE)
    result.rows.sort()
    return result
