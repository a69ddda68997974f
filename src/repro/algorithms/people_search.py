"""People search — the paper's "David problem" (Section 5.1, Fig 12a).

"On a social network, for a given user, find anyone whose first name is
David among his/her friends, friends' friends, and friends' friends'
friends."  No index can serve this on a web-scale graph; Trinity answers
it by raw memory-speed exploration: each hop sends asynchronous requests
to the machines owning the frontier, which expand their local cells in
parallel and forward the next frontier.

The implementation runs over the *cloud-resident* cells (real blob
decodes, not a topology snapshot — this is the online path), and each hop
is one :class:`~repro.net.simnet.ParallelRound`: per-machine cell/edge
costs plus the packed cross-machine frontier messages.

There is one path: per hop, one vectorized ``machine_of_batch``
ownership pass groups the frontier, each machine group expands with one
``outlinks_batch`` CSR decode, and the name-check compares the whole
next frontier's raw utf-8 bytes with one ``field_eq_batch`` (no Python
string is ever built).  Its private reference, ``_people_search_scalar``
— one whole-cell decode per frontier node — visits nodes in the same
order and charges identical simulated costs; ``cross_check=True`` runs
both, per batched read *and* end-to-end (:func:`repro.oracle.shadow`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..config import ComputeParams
from ..errors import QueryError
from ..net.simnet import ParallelRound, SimNetwork
from ..oracle import shadow
from ..utils.arrays import first_occurrences

_FRONTIER_ID_BYTES = 9   # 8-byte cell id + 1-byte hop tag


class _VisitedTracker:
    """Visited-id set over int64 arrays.

    A dense ``stamp`` array, nonzero where visited (O(1) membership, no
    sorting — and the scratch :func:`~repro.utils.arrays.
    first_occurrences` dedupes a frontier over, which is why it holds
    int32 ranks rather than bools) while ids stay under ``_MASK_CAP``;
    permanently switches to the sorted-array ``np.isin``/``np.union1d``
    representation (``stamp`` is None from then on) the first time an id
    is negative or too large.  Both representations answer ``unseen``
    identically, so the switch is invisible to the search.
    """

    _MASK_CAP = 1 << 26  # 256 MiB of stamps at most, committed lazily

    def __init__(self, start: int) -> None:
        self.count = 1
        self._sorted: np.ndarray | None = None
        if 0 <= start < self._MASK_CAP:
            self.stamp = np.zeros(max(1024, start + 1), dtype=np.int32)
            self.stamp[start] = 1
        else:
            self.stamp = None
            self._sorted = np.asarray([start], dtype=np.int64)

    def unseen(self, ids: np.ndarray) -> np.ndarray:
        """Not-yet-visited flag per id (duplicates all flagged)."""
        if self.stamp is not None and len(ids):
            lo, hi = int(ids.min()), int(ids.max())
            if lo < 0 or hi >= self._MASK_CAP:
                self._sorted = np.flatnonzero(self.stamp)
                self.stamp = None
            elif hi >= len(self.stamp):
                grown = np.zeros(max(hi + 1, 2 * len(self.stamp)),
                                 dtype=np.int32)
                grown[:len(self.stamp)] = self.stamp
                self.stamp = grown
        if self.stamp is not None:
            return self.stamp[ids] == 0
        return ~np.isin(ids, self._sorted)

    def add(self, new: np.ndarray) -> None:
        """Record ids (must be duplicate-free and all unseen)."""
        self.count += len(new)
        if self.stamp is not None:
            self.stamp[new] = 1
        else:
            self._sorted = np.union1d(self._sorted, new)


@dataclass
class PeopleSearchResult:
    """Matches and per-hop accounting for one query."""

    start: int
    name: str
    hops: int
    matches: list[int] = field(default_factory=list)
    visited: int = 0
    hop_times: list[float] = field(default_factory=list)
    messages: int = 0

    @property
    def elapsed(self) -> float:
        """Simulated response time of the query."""
        return sum(self.hop_times)


def people_search(graph, start: int, name: str, hops: int = 3,
                  network: SimNetwork | None = None,
                  params: ComputeParams | None = None,
                  cross_check: bool = False) -> PeopleSearchResult:
    """Find all nodes named ``name`` within ``hops`` of ``start``.

    The graph must use a schema with a ``Name`` attribute (see
    :func:`repro.graph.model.social_graph_schema`).
    ``cross_check=True`` additionally replays the scalar reference and
    raises :class:`~repro.errors.DivergenceError` if the two ever
    disagree (matches, visited set, messages or simulated hop times).
    """
    if hops < 1:
        raise QueryError("hops must be >= 1")
    if "Name" not in graph.graph_schema.attribute_fields:
        raise QueryError("people_search needs a graph with a Name attribute")
    network = network or SimNetwork()
    params = params or ComputeParams()
    result = _people_search_batch(graph, start, name, hops, network,
                                  params, cross_check)
    if cross_check:
        reference = _people_search_scalar(
            graph, start, name, hops, SimNetwork(network.params), params,
        )
        shadow("algorithms.people_search", result, reference,
               fields=("matches", "visited", "messages", "hop_times"))
    return result


def _people_search_scalar(graph, start: int, name: str, hops: int,
                          network: SimNetwork,
                          params: ComputeParams) -> PeopleSearchResult:
    result = PeopleSearchResult(start=start, name=name, hops=hops)
    visited = {start}
    frontier = [start]
    for hop in range(1, hops + 1):
        if not frontier:
            break
        round_ = ParallelRound(network)
        # Group the frontier by owning machine; each machine expands its
        # share in parallel.
        by_machine: dict[int, list[int]] = defaultdict(list)
        for node in frontier:
            by_machine[graph.machine_of(node)].append(node)

        next_frontier: list[int] = []
        delivery: dict[tuple[int, int], int] = defaultdict(int)
        for machine, nodes in by_machine.items():
            edges_scanned = 0
            for node in nodes:
                neighbors = graph.outlinks(node)
                edges_scanned += len(neighbors)
                for neighbor in neighbors:
                    if neighbor in visited:
                        continue
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
                    delivery[(machine, graph.machine_of(neighbor))] += 1
            # Expansion: one cell access per frontier node + its edges.
            round_.add_compute(
                machine,
                len(nodes) * params.cell_access_cost
                + edges_scanned * params.edge_scan_cost,
            )

        # Each delivered node is name-checked on its own machine (a cell
        # access to read the Name attribute).
        checks_by_machine: dict[int, int] = defaultdict(int)
        for node in next_frontier:
            checks_by_machine[graph.machine_of(node)] += 1
            if graph.attribute(node, "Name") == name:
                result.matches.append(node)
        for machine, checks in checks_by_machine.items():
            round_.add_compute(machine, checks * params.cell_access_cost)

        for (src, dst), count in delivery.items():
            round_.add_message(src, dst, count * _FRONTIER_ID_BYTES, count)
            result.messages += count

        result.hop_times.append(
            round_.finish(parallelism=params.threads_per_machine)
        )
        frontier = next_frontier
    result.visited = len(visited) - 1
    result.matches.sort()
    return result


def _people_search_batch(graph, start: int, name: str, hops: int,
                         network: SimNetwork, params: ComputeParams,
                         cross_check: bool) -> PeopleSearchResult:
    """Vectorized frontier expansion; bit-identical accounting.

    Per hop: one ``machine_of_batch`` pass routes the frontier, machine
    groups are processed in scalar first-appearance order, each group
    expands with one CSR ``outlinks_batch`` decode, newly discovered
    nodes are deduplicated in first-occurrence order (the scalar
    visited-set semantics), and the whole next frontier is
    name-checked through one ``field_eq_batch`` byte compare.
    """
    result = PeopleSearchResult(start=start, name=name, hops=hops)
    visited = _VisitedTracker(start)
    frontier = np.asarray([start], dtype=np.int64)
    for hop in range(1, hops + 1):
        if not len(frontier):
            break
        round_ = ParallelRound(network)
        owners = graph.machine_of_batch(frontier)
        # Machine groups in first-appearance order — the scalar loop's
        # dict-insertion order, which decides who "discovers" a node
        # reachable from two machines in the same hop.
        _, first_positions = np.unique(owners, return_index=True)
        group_machines = owners[np.sort(first_positions)]

        new_groups: list[np.ndarray] = []
        delivery: dict[tuple[int, int], int] = defaultdict(int)
        for machine in group_machines.tolist():
            nodes = frontier[owners == machine]
            indptr, flat = graph.outlinks_batch(nodes,
                                                cross_check=cross_check)
            edges_scanned = int(indptr[-1])
            # First-occurrence dedup of this group's discoveries against
            # everything visited so far (including earlier groups of the
            # same hop — ``visited`` is updated between groups).
            new = first_occurrences(flat[visited.unseen(flat)], ordered=True,
                                    stamp=visited.stamp)
            if len(new):
                destinations = graph.machine_of_batch(new)
                counts = np.bincount(destinations)
                # Destination keys in first-appearance order — the
                # scalar loop's dict-insertion order.  finish() sums
                # each sender's outgoing entries in that order, and
                # float addition is not associative.
                _, first_dst = np.unique(destinations, return_index=True)
                for dst in destinations[np.sort(first_dst)].tolist():
                    delivery[(machine, dst)] += int(counts[dst])
                visited.add(new)
                new_groups.append(new)
            round_.add_compute(
                machine,
                len(nodes) * params.cell_access_cost
                + edges_scanned * params.edge_scan_cost,
            )

        next_frontier = (np.concatenate(new_groups) if new_groups
                         else np.empty(0, dtype=np.int64))
        if len(next_frontier):
            check_machines = graph.machine_of_batch(next_frontier)
            checks = np.bincount(check_machines)
            for machine in np.flatnonzero(checks).tolist():
                round_.add_compute(
                    machine, int(checks[machine]) * params.cell_access_cost)
            hits = graph.field_eq_batch(next_frontier, "Name", name,
                                        cross_check=cross_check)
            result.matches.extend(next_frontier[hits].tolist())

        for (src, dst), count in delivery.items():
            round_.add_message(src, dst, count * _FRONTIER_ID_BYTES, count)
            result.messages += count

        result.hop_times.append(
            round_.finish(parallelism=params.threads_per_machine)
        )
        frontier = next_frontier
    result.visited = visited.count - 1
    result.matches.sort()
    return result
