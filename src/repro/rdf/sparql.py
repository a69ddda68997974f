"""A SPARQL basic-graph-pattern subset with distributed execution.

Supports ``SELECT ?v1 ?v2 WHERE { s p o . s p o . ... }`` where each
position is either a variable (``?x``) or a constant IRI/name.  That
covers the LUBM benchmark queries of Figure 14(b), which are
conjunctive patterns.

Execution is a binding join, ordered by estimated selectivity: each
pattern extends the binding table through the store's predicate-grouped
adjacency (a cell access on the machine owning the bound endpoint).  As
in the subgraph matcher, bindings shipped between machines are charged as
messages; more machines means smaller per-machine candidate sets but more
cross-machine binding traffic — the trade-off behind the Figure 14
speedup curves.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..config import CELL_ACCESS_COST, EDGE_SCAN_COST, THREADS_PER_MACHINE
from ..errors import QueryError
from ..net.simnet import ParallelRound, SimNetwork
from .store import RdfStore


@dataclass(frozen=True)
class TriplePattern:
    subject: str
    predicate: str
    obj: str

    def variables(self) -> set[str]:
        return {t for t in (self.subject, self.obj) if t.startswith("?")}


@dataclass(frozen=True)
class SparqlQuery:
    select: tuple[str, ...]
    patterns: tuple[TriplePattern, ...]


@dataclass
class SparqlResult:
    query: SparqlQuery
    rows: list[tuple[str, ...]] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)
    messages: int = 0
    bindings_examined: int = 0

    @property
    def elapsed(self) -> float:
        return sum(self.round_times)


def parse_sparql(text: str) -> SparqlQuery:
    """Parse the supported SELECT/WHERE subset.

    Raises :class:`QueryError` with a position hint on malformed input.
    """
    stripped = " ".join(text.split())
    upper = stripped.upper()
    if not upper.startswith("SELECT "):
        raise QueryError("query must start with SELECT")
    where_at = upper.find(" WHERE ")
    if where_at < 0:
        raise QueryError("query must contain WHERE")
    select_part = stripped[len("SELECT "):where_at].split()
    if not select_part:
        raise QueryError("SELECT list is empty")
    for var in select_part:
        if not var.startswith("?"):
            raise QueryError(f"SELECT term {var!r} is not a variable")
    body = stripped[where_at + len(" WHERE "):].strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise QueryError("WHERE clause must be braced")
    body = body[1:-1].strip()
    patterns = []
    for clause in filter(None, (c.strip() for c in body.split("."))):
        terms = clause.split()
        if len(terms) != 3:
            raise QueryError(f"pattern {clause!r} must have 3 terms")
        patterns.append(TriplePattern(*(t.strip("<>") for t in terms)))
    if not patterns:
        raise QueryError("WHERE clause has no patterns")
    query = SparqlQuery(tuple(select_part), tuple(patterns))
    pattern_vars = set()
    for pattern in query.patterns:
        pattern_vars |= pattern.variables()
    unknown = set(query.select) - pattern_vars
    if unknown:
        raise QueryError(f"SELECT variables not bound: {sorted(unknown)}")
    return query


def _selectivity(store: RdfStore, pattern: TriplePattern,
                 bound: set[str]) -> float:
    """Lower is more selective; used to order the binding join."""
    score = 0.0
    for term in (pattern.subject, pattern.obj):
        if term.startswith("?"):
            score += 0.0 if term in bound else 1.0
    if not pattern.subject.startswith("?"):
        score -= 0.5
    if not pattern.obj.startswith("?"):
        score -= 0.5
    return score


def execute_sparql(store: RdfStore, query: SparqlQuery | str,
                   network: SimNetwork | None = None,
                   max_rows: int = 100_000) -> SparqlResult:
    """Run a BGP query against the store with cost accounting."""
    if isinstance(query, str):
        query = parse_sparql(query)
    network = network or SimNetwork()
    result = SparqlResult(query=query)

    remaining = list(query.patterns)
    bindings: list[dict[str, int]] = [{}]
    bound: set[str] = set()
    while remaining:
        remaining.sort(key=lambda p: _selectivity(store, p, bound))
        pattern = remaining.pop(0)
        bindings = _apply_pattern(
            store, pattern, bindings, bound, result, network, max_rows,
        )
        bound |= pattern.variables()
        if not bindings:
            break

    seen = set()
    for binding in bindings:
        row = tuple(store.iri_of(binding[v]) for v in query.select)
        if row not in seen:
            seen.add(row)
            result.rows.append(row)
    result.rows.sort()
    return result


def _resolve(store: RdfStore, term: str, binding: dict) -> int | None:
    """Constant or bound-variable term → resource id (None if unbound)."""
    if term.startswith("?"):
        return binding.get(term)
    return store.resource_id(term)


def _apply_pattern(store, pattern, bindings, bound, result, network,
                   max_rows):
    round_ = ParallelRound(network)
    compute: dict[int, float] = defaultdict(float)
    remote_traffic = [0, 0]  # messages, bytes crossing machines
    out: list[dict[str, int]] = []

    for binding in bindings:
        subject = _resolve(store, pattern.subject, binding)
        obj = _resolve(store, pattern.obj, binding)
        result.bindings_examined += 1
        row_bytes = 8 * (len(binding) + 1)
        if subject is not None:
            machine = store.machine_of(subject)
            candidates = store.out(subject, pattern.predicate)
            compute[machine] += (CELL_ACCESS_COST
                                 + len(candidates) * EDGE_SCAN_COST)
            for candidate in candidates:
                if obj is not None:
                    if candidate == obj:
                        out.append(dict(binding))
                elif pattern.obj.startswith("?"):
                    extended = dict(binding)
                    extended[pattern.obj] = candidate
                    target = store.machine_of(candidate)
                    if target != machine:
                        remote_traffic[0] += 1
                        remote_traffic[1] += row_bytes
                        result.messages += 1
                    out.append(extended)
        elif obj is not None:
            machine = store.machine_of(obj)
            candidates = store.incoming(obj, pattern.predicate)
            compute[machine] += (CELL_ACCESS_COST
                                 + len(candidates) * EDGE_SCAN_COST)
            for candidate in candidates:
                extended = dict(binding)
                extended[pattern.subject] = candidate
                target = store.machine_of(candidate)
                if target != machine:
                    remote_traffic[0] += 1
                    remote_traffic[1] += row_bytes
                    result.messages += 1
                out.append(extended)
        else:
            # Fully unbound pattern: scan every resource's outgoing group
            # for the predicate.  Expensive (one cell access per
            # resource) and priced accordingly; selective queries never
            # reach this path because of the join ordering.
            for subject_id in range(store.resource_count):
                machine = store.machine_of(subject_id)
                targets = store.out(subject_id, pattern.predicate)
                compute[machine] += (CELL_ACCESS_COST
                                     + len(targets) * EDGE_SCAN_COST)
                for candidate in targets:
                    extended = dict(binding)
                    extended[pattern.subject] = subject_id
                    extended[pattern.obj] = candidate
                    out.append(extended)
                if len(out) > max_rows:
                    break
        if len(out) > max_rows:
            raise QueryError(
                f"binding table exceeded {max_rows} rows; query too "
                "unselective"
            )

    # Binding rows are independent join tasks: the per-row compute
    # spreads across the cluster (remote candidate fetches are already
    # charged as messages), like the subgraph matcher's exploration.
    machines = store.cloud.config.machines
    total_compute = sum(compute.values())
    pairs = max(1, machines * (machines - 1))
    for machine in range(machines):
        round_.add_compute(machine, total_compute / machines)
    if remote_traffic[0]:
        for src in range(machines):
            for dst in range(machines):
                if src != dst:
                    round_.add_message(
                        src, dst,
                        remote_traffic[1] // pairs,
                        max(1, remote_traffic[0] // pairs),
                    )
    result.round_times.append(
        round_.finish(parallelism=THREADS_PER_MACHINE)
    )
    return out
