"""People search executed through real cluster protocols (Section 5.1).

:func:`repro.algorithms.people_search.people_search` computes the answer
directly with cost accounting; this module runs the *same query through
the actual machinery*: a TSL-declared protocol, per-slave message
handlers, and the one-sided asynchronous runtime with message packing.
"The algorithm simply sends asynchronous requests recursively to remote
machines" — each hop, every slave expands its share of the frontier
locally and sends the next-hop candidates to their owning slaves.

There is one path: the handler expands its whole frontier share with one
``outlinks_batch`` CSR decode and name-checks its owned candidates with
one ``read_field_batch``; the client routes the frontier with one
vectorized ``machine_of_batch`` pass (one packed ExpandRequest per
destination slave, in scalar first-appearance order) and dedups replies
with array operations.  The per-node loops are private references:
``cross_check=True`` runs ``scalar_expand`` beside every reply and the
scalar dedup beside every hop (:func:`repro.oracle.shadow`);
``_client_scalar``, the whole per-node client, is what tests compare with.

Used by the integration tests to prove the fast-path implementation and
the protocol implementation agree, and by the examples to show the TSL
protocol workflow end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import QueryError
from ..oracle import shadow
from ..tsl import compile_tsl
from ..utils.arrays import first_occurrences
from .people_search import _VisitedTracker

SEARCH_TSL = """
struct ExpandRequest {
    string Target;
    List<long> Frontier;
}
struct ExpandReply {
    List<long> Matches;
    List<long> Next;
}
protocol ExpandFrontier {
    Type: Syn;
    Request: ExpandRequest;
    Response: ExpandReply;
}
"""


@dataclass
class DistributedSearchResult:
    """Matches plus protocol-level accounting."""

    matches: list[int] = field(default_factory=list)
    visited: int = 0
    protocol_calls: int = 0
    elapsed: float = 0.0


def install_search_handlers(cluster, graph,
                            cross_check: bool = False) -> None:
    """Register the ExpandFrontier handler on every slave.

    The handler is pure local work: expand the frontier nodes this slave
    owns, name-check the discovered neighbors it owns, and return both
    the matches and the candidates belonging to other machines.  The
    expansion is one CSR decode and the name check one column read;
    ``cross_check=True`` also replays the scalar handler and raises
    :class:`~repro.errors.DivergenceError` if the replies differ.
    """
    if "Name" not in graph.graph_schema.attribute_fields:
        raise QueryError("distributed search needs a Name attribute")
    schema = compile_tsl(SEARCH_TSL)
    cluster.runtime.schema = _merged_schema(cluster.runtime.schema, schema)

    def scalar_expand(machine_id: int, request) -> dict:
        matches = []
        next_frontier = []
        for node in request["Frontier"]:
            for neighbor in graph.outlinks(node):
                next_frontier.append(neighbor)
        # Name-check locally-owned candidates here; foreign ones are
        # returned for their owners to check next hop.
        for node in list(next_frontier):
            if (graph.machine_of(node) == machine_id
                    and graph.attribute(node, "Name")
                    == request["Target"]):
                matches.append(node)
        return {"Matches": matches, "Next": next_frontier}

    def batch_expand(machine_id: int, request) -> dict:
        frontier = np.asarray(request["Frontier"], dtype=np.int64)
        if not len(frontier):
            return {"Matches": [], "Next": []}
        _, flat = graph.outlinks_batch(frontier, cross_check=cross_check)
        matches: list[int] = []
        if len(flat):
            local = flat[graph.machine_of_batch(flat) == machine_id]
            if len(local):
                names = graph.read_field_batch(local, "Name",
                                               cross_check=cross_check)
                target = request["Target"]
                matches = [int(node) for node, node_name
                           in zip(local.tolist(), names)
                           if node_name == target]
        return {"Matches": matches, "Next": flat.tolist()}

    def make_handler(machine_id: int):
        def handler(message, request):
            reply = batch_expand(machine_id, request)
            if cross_check:
                shadow("algorithms.people_search_distributed.handler",
                       reply, scalar_expand(machine_id, request))
            return reply
        return handler

    for machine_id, slave in cluster.slaves.items():
        slave.register_protocol("ExpandFrontier", make_handler(machine_id))


def _merged_schema(existing, extra):
    """Runtime schemas are additive; merge protocol tables."""
    if existing is None:
        return extra
    existing.protocols.update(extra.protocols)
    existing.structs.update(extra.structs)
    return existing


def distributed_people_search(cluster, graph, start: int, name: str,
                              hops: int = 3, cross_check: bool = False
                              ) -> DistributedSearchResult:
    """Run the k-hop name search via ExpandFrontier protocol calls.

    A client drives the wave: per hop it groups the frontier by owning
    slave, issues one ExpandFrontier call per slave, merges the replies,
    dedups against the visited set, and name-checks candidates whose
    owner differs from their discoverer (mirroring the handler's local
    check).  Results are identical to the fast-path implementation.

    The client-side routing, dedup and name check are vectorized (the
    call order and replies are those of the scalar client, so the
    simulated clock advances identically); ``cross_check=True`` also
    replays the scalar dedup per hop and raises on divergence.
    """
    if hops < 1:
        raise QueryError("hops must be >= 1")
    client = cluster.new_client()
    result = DistributedSearchResult()
    visited = _VisitedTracker(start)
    reached = [start]
    frontier = np.asarray([start], dtype=np.int64)
    matched: set[int] = set()
    before = cluster.network.clock.now
    for _ in range(hops):
        if not len(frontier):
            break
        owners = graph.machine_of_batch(frontier)
        _, first_positions = np.unique(owners, return_index=True)
        group_machines = owners[np.sort(first_positions)]
        candidates: list[int] = []
        for machine_id in group_machines.tolist():
            nodes = frontier[owners == machine_id].tolist()
            reply = client.call(machine_id, "ExpandFrontier",
                                {"Target": name, "Frontier": nodes})
            result.protocol_calls += 1
            matched.update(reply["Matches"])
            candidates.extend(reply["Next"])
        cand = np.asarray(candidates, dtype=np.int64)
        new = first_occurrences(cand[visited.unseen(cand)], ordered=True,
                                stamp=visited.stamp)
        if cross_check:
            seen = set(reached)
            shadow("algorithms.people_search_distributed.dedup",
                   new.tolist(), [n for n in candidates
                                  if n not in seen and not seen.add(n)])
        visited.add(new)
        reached += new.tolist()
        if len(new):
            names = graph.read_field_batch(new, "Name",
                                           cross_check=cross_check)
            matched.update(int(node) for node, node_name
                           in zip(new.tolist(), names)
                           if node_name == name)
        frontier = new
    matched.discard(start)
    visited_set = set(reached)
    result.matches = sorted(m for m in matched if m in visited_set)
    result.visited = len(visited_set) - 1
    result.elapsed = cluster.network.clock.now - before
    return result


def _client_scalar(cluster, graph, start: int, name: str,
                   hops: int) -> DistributedSearchResult:
    client = cluster.new_client()
    result = DistributedSearchResult()
    visited = {start}
    frontier = [start]
    matched: set[int] = set()
    before = cluster.network.clock.now
    for _ in range(hops):
        if not frontier:
            break
        by_machine: dict[int, list[int]] = {}
        for node in frontier:
            by_machine.setdefault(graph.machine_of(node), []).append(node)
        next_frontier: list[int] = []
        candidates: list[int] = []
        for machine_id, nodes in by_machine.items():
            reply = client.call(machine_id, "ExpandFrontier",
                                {"Target": name, "Frontier": nodes})
            result.protocol_calls += 1
            matched.update(reply["Matches"])
            candidates.extend(reply["Next"])
        for node in candidates:
            if node in visited:
                continue
            visited.add(node)
            next_frontier.append(node)
            if graph.attribute(node, "Name") == name:
                matched.add(node)
        frontier = next_frontier
    matched.discard(start)
    # Matches reported by handlers may include already-visited nodes
    # (the handler cannot see the global visited set); restrict to the
    # explored neighborhood.
    result.matches = sorted(m for m in matched if m in visited)
    result.visited = len(visited) - 1
    result.elapsed = cluster.network.clock.now - before
    return result
