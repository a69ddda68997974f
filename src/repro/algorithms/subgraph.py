"""Subgraph matching without structure indexes (Section 5.2).

The paper argues that index-based subgraph matching (e.g. R-Join over
2-hop labels) cannot reach web scale — index construction is super-linear
— and that Trinity's fast random access plus parallelism make *online
exploration* viable instead, citing the STwig approach of Sun et al.
(VLDB'12) which this module follows:

1. the labeled query graph is decomposed into **STwigs** (star twigs: a
   root plus its leaves);
2. STwigs are matched one at a time against the data graph — root
   candidates come from a per-machine label index or from the bindings of
   already-matched rows, leaves from live adjacency exploration;
3. partial embeddings are joined across STwigs (shipping rows between the
   machines that own the candidate roots), and query edges not covered by
   any STwig are verified at the end.

Only a label index is required — linear space, trivially maintainable —
which is the paper's point.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from ..config import CELL_ACCESS_COST, EDGE_SCAN_COST, THREADS_PER_MACHINE
from ..errors import QueryError
from ..net.simnet import ParallelRound, SimNetwork
from ..oracle import is_checking, shadow


# ---------------------------------------------------------------------------
# Query representation and generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    """A small labeled query graph (nodes are 0..q-1)."""

    labels: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.size)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def validate(self) -> None:
        if not self.labels:
            raise QueryError("empty query")
        for u, v in self.edges:
            if not (0 <= u < self.size and 0 <= v < self.size):
                raise QueryError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise QueryError("self-loops are not allowed in queries")


def assign_labels(n: int, num_labels: int = 20, seed: int = 0) -> np.ndarray:
    """Uniform node labels for the data graph (Sun et al.'s setting)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, num_labels, size=n, dtype=np.int64)


def _extract_query(topology, labels, picked: list[int],
                   rng: random.Random) -> Query:
    """Build the induced labeled query over ``picked`` data nodes."""
    index = {v: i for i, v in enumerate(picked)}
    picked_set = set(picked)
    edges: set[tuple[int, int]] = set()
    for v in picked:
        for u in topology.out_neighbors(v):
            u = int(u)
            if u in picked_set and u != v:
                a, b = index[v], index[u]
                edges.add((min(a, b), max(a, b)))
    query = Query(
        labels=tuple(int(labels[v]) for v in picked),
        edges=tuple(sorted(edges)),
    )
    query.validate()
    return query


def generate_query_dfs(topology, labels, size: int = 10,
                       seed: int = 0) -> Query:
    """Extract a query by DFS walk from a random node (Sun et al.'s DFS
    query generator): path-shaped, guaranteed at least one embedding."""
    rng = random.Random(seed)
    for _ in range(64):
        start = rng.randrange(topology.n)
        stack = [start]
        picked: list[int] = []
        seen = {start}
        while stack and len(picked) < size:
            v = stack.pop()
            picked.append(v)
            neighbors = [int(u) for u in topology.out_neighbors(v)
                         if int(u) not in seen]
            rng.shuffle(neighbors)
            for u in neighbors:
                seen.add(u)
                stack.append(u)
        if len(picked) == size:
            return _extract_query(topology, labels, picked, rng)
    raise QueryError(f"could not find a connected {size}-node region")


def generate_query_random(topology, labels, size: int = 10,
                          seed: int = 0) -> Query:
    """Extract a query by random connected expansion (the RANDOM
    generator): bushier than DFS queries."""
    rng = random.Random(seed)
    for _ in range(64):
        start = rng.randrange(topology.n)
        picked = [start]
        picked_set = {start}
        stalled = 0
        while len(picked) < size and stalled < 200:
            anchor = picked[rng.randrange(len(picked))]
            neighbors = topology.out_neighbors(anchor)
            if not len(neighbors):
                stalled += 1
                continue
            candidate = int(neighbors[rng.randrange(len(neighbors))])
            if candidate in picked_set:
                stalled += 1
                continue
            picked.append(candidate)
            picked_set.add(candidate)
            stalled = 0
        if len(picked) == size:
            return _extract_query(topology, labels, picked, rng)
    raise QueryError(f"could not find a connected {size}-node region")


# ---------------------------------------------------------------------------
# STwig decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class STwig:
    """One star twig of the query: a root and its leaf set."""

    root: int
    leaves: tuple[int, ...]


def decompose_stwigs(query: Query,
                     label_frequency: dict[int, int] | None = None) -> list[STwig]:
    """Greedy STwig decomposition (Sun et al., Section 4.1 heuristic):
    repeatedly pick the node with the highest degree-to-label-frequency
    score among uncovered edges, take it as a root with all its
    still-uncovered neighbors as leaves."""
    query.validate()
    adj = query.adjacency()
    uncovered = {frozenset(e) for e in query.edges}
    covered_nodes: set[int] = set()
    stwigs: list[STwig] = []

    def score(v: int) -> tuple[int, float, int]:
        degree = sum(1 for u in adj[v] if frozenset((v, u)) in uncovered)
        if degree == 0:
            return (-1, 0.0, -v)  # ineligible as a root
        freq = (label_frequency or {}).get(query.labels[v], 1) or 1
        # Prefer roots already bound by earlier STwigs so each join stage
        # extends connected partial embeddings instead of doing a
        # cartesian restart; among those, prefer selective roots.
        connected = 1 if (v in covered_nodes or not covered_nodes) else 0
        return (connected, degree / freq, -v)

    while uncovered:
        root = max(range(query.size), key=score)
        leaves = tuple(sorted(
            u for u in adj[root] if frozenset((root, u)) in uncovered
        ))
        assert leaves, "uncovered edges imply an eligible root"
        for u in leaves:
            uncovered.discard(frozenset((root, u)))
        covered_nodes.add(root)
        covered_nodes.update(leaves)
        stwigs.append(STwig(root, leaves))
    isolated = set(range(query.size)) - covered_nodes
    for v in sorted(isolated):
        stwigs.append(STwig(v, ()))
    return stwigs


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------


@dataclass
class SubgraphMatchResult:
    """Embeddings plus distributed-execution accounting."""

    query: Query
    embeddings: list[tuple[int, ...]] = field(default_factory=list)
    round_times: list[float] = field(default_factory=list)
    messages: int = 0
    candidates_examined: int = 0
    truncated: bool = False

    @property
    def elapsed(self) -> float:
        return sum(self.round_times)

    @property
    def match_count(self) -> int:
        return len(self.embeddings)


class LabelIndex:
    """Per-machine label → node index (the only index Trinity needs)."""

    def __init__(self, topology, labels: np.ndarray):
        if len(labels) != topology.n:
            raise QueryError("labels must align with the topology")
        self.labels = np.asarray(labels)
        self.by_label: dict[int, np.ndarray] = {}
        order = np.argsort(self.labels, kind="stable")
        sorted_labels = self.labels[order]
        boundaries = np.nonzero(np.diff(sorted_labels))[0] + 1
        chunks = np.split(order, boundaries)
        for chunk in chunks:
            if len(chunk):
                self.by_label[int(self.labels[chunk[0]])] = chunk

    def candidates(self, label: int) -> np.ndarray:
        return self.by_label.get(label, np.empty(0, dtype=np.int64))

    def frequency(self) -> dict[int, int]:
        return {label: len(nodes) for label, nodes in self.by_label.items()}


def matching_order(query: Query, stwigs: list[STwig]) -> list[int]:
    """Flatten the STwig decomposition into a backtracking order.

    Roots come before their leaves; later STwigs (whose roots are bound
    by earlier ones) extend connected partial embeddings, which is what
    keeps candidate sets adjacency-bounded.
    """
    order: list[int] = []
    seen: set[int] = set()
    for stwig in stwigs:
        if stwig.root not in seen:
            seen.add(stwig.root)
            order.append(stwig.root)
        for leaf in stwig.leaves:
            if leaf not in seen:
                seen.add(leaf)
                order.append(leaf)
    return order


def match_subgraph(topology, labels, query: Query,
                   network: SimNetwork | None = None,
                   index: LabelIndex | None = None,
                   max_embeddings: int = 1024,
                   max_expansions: int = 2_000_000) -> SubgraphMatchResult:
    """Find embeddings of ``query`` in the labeled data graph.

    Embeddings are injective label-preserving mappings with every query
    edge present (subgraph isomorphism).  The search backtracks
    depth-first along the STwig order — candidates for each query node
    come from the adjacency list of an already-bound neighbor (one cell
    access, like Trinity's live exploration), or from the label index for
    the first root.

    The per-level candidate prefilter — label check plus adjacency to
    every bound anchor — runs as one vectorized mask over the whole
    candidate array instead of a Python test per candidate.  The filter
    is loop-invariant at each level (anchor bindings and the injectivity
    set only change at *other* depths), so the surviving candidates and
    their order are those of a per-candidate test; checked, it replays
    that scalar filter at every level and raises
    :class:`~repro.errors.DivergenceError` on any difference.

    Stops once ``max_embeddings`` are found or ``max_expansions``
    candidates were examined (``truncated`` set in either case); online
    queries want the first page of answers, not an exhaustive census.
    """
    network = network or SimNetwork()
    index = index or LabelIndex(topology, labels)
    labels = index.labels
    result = SubgraphMatchResult(query=query)
    stwigs = decompose_stwigs(query, index.frequency())
    order = matching_order(query, stwigs)
    query_adj = query.adjacency()
    # Earlier-in-order query neighbors of each node: the anchors whose
    # bindings constrain its candidates.
    position = {v: i for i, v in enumerate(order)}
    anchors = [
        sorted(u for u in query_adj[v] if position[u] < position[v])
        for v in order
    ]

    neighbor_arrays: dict[int, np.ndarray] = {}
    neighbor_sets: dict[int, set] = {}

    def neighbors_of(v: int) -> np.ndarray:
        cached = neighbor_arrays.get(v)
        if cached is None:
            cached = topology.out_neighbors(v)
            neighbor_arrays[v] = cached
        return cached

    def neighbor_set_of(v: int) -> set:
        cached = neighbor_sets.get(v)
        if cached is None:
            cached = set(int(u) for u in neighbors_of(v))
            neighbor_sets[v] = cached
        return cached

    compute_total = [0.0]
    remote_traffic = [0, 0]  # messages, bytes (crossing machines)
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def _prefilter(candidates, wanted_label: int,
                   anchor_nodes) -> np.ndarray:
        """Vectorized label + injectivity + anchor-adjacency mask."""
        cand = np.asarray(candidates, dtype=np.int64)
        mask = labels[cand] == wanted_label
        if used:
            mask &= ~np.isin(cand, np.fromiter(used, dtype=np.int64,
                                               count=len(used)))
        for a in anchor_nodes:
            mask &= np.isin(cand, neighbors_of(mapping[a]))
        survivors = cand[mask]
        if is_checking():
            shadow("algorithms.subgraph.prefilter", survivors.tolist(), [
                int(c) for c in candidates
                if int(labels[int(c)]) == wanted_label
                and int(c) not in used
                and all(int(c) in neighbor_set_of(mapping[a])
                        for a in anchor_nodes)
            ])
        return survivors

    def backtrack(depth: int) -> bool:
        """Returns False when a budget stops the search."""
        if len(result.embeddings) >= max_embeddings:
            result.truncated = True
            return False
        if depth == len(order):
            result.embeddings.append(
                tuple(mapping[v] for v in range(query.size))
            )
            return True
        qv = order[depth]
        anchor_nodes = anchors[depth]
        if anchor_nodes:
            # Candidates: adjacency of the smallest-degree bound anchor.
            pivot = min(
                anchor_nodes, key=lambda a: len(neighbors_of(mapping[a]))
            )
            candidates = neighbors_of(mapping[pivot])
            pivot_machine = int(topology.machine[mapping[pivot]])
        else:
            candidates = index.candidates(query.labels[qv])
            pivot_machine = None
        wanted_label = query.labels[qv]
        row_bytes = 8 * (depth + 1)
        candidates = _prefilter(candidates, wanted_label, anchor_nodes)
        for candidate in candidates:
            candidate = int(candidate)
            result.candidates_examined += 1
            machine = int(topology.machine[candidate])
            compute_total[0] += (
                CELL_ACCESS_COST
                + len(neighbors_of(candidate)) * EDGE_SCAN_COST
            )
            if pivot_machine is not None and machine != pivot_machine:
                remote_traffic[0] += 1
                remote_traffic[1] += row_bytes
                result.messages += 1
            if result.candidates_examined >= max_expansions:
                result.truncated = True
                return False
            mapping[qv] = candidate
            used.add(candidate)
            alive = backtrack(depth + 1)
            used.discard(candidate)
            del mapping[qv]
            if not alive:
                return False
        return True

    backtrack(0)
    round_ = ParallelRound(network)
    # Exploration subtrees are independent tasks; Trinity spreads them
    # over the cluster with asynchronous one-sided requests, so both the
    # search compute and the cross-machine row traffic divide across all
    # machines (remote cell reads were counted as they happened).
    machines = topology.machine_count
    pairs = max(1, machines * (machines - 1))
    for machine in range(machines):
        round_.add_compute(machine, compute_total[0] / machines)
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
    result.embeddings.sort()
    return result
