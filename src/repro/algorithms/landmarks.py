"""Landmark-based distance oracle (Section 5.5, Figure 8b).

The distance oracle estimates d(u, v) as min over landmarks L of
d(u, L) + d(L, v) — an upper bound that is exact when some landmark lies
on a shortest u-v path.  The experiment compares three landmark-selection
strategies:

* **largest degree** — cheap, worst accuracy;
* **global betweenness** — best accuracy, but computing betweenness over
  the whole distributed graph is expensive;
* **local betweenness** — the paper's new paradigm (Section 5.5): each
  machine computes betweenness *on its local partition only* (a random
  sample of the graph, since partitioning is hash-random) and nominates
  its top nodes.  Accuracy lands close to global at a fraction of the
  cost, "overcom[ing] the network communication bottleneck".

Betweenness is estimated with Brandes' algorithm over sampled sources,
implemented here directly (no networkx dependency in library code).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import ComputeParams
from ..errors import QueryError
from ..oracle import shadow


@dataclass
class SelectionCost:
    """Work accounting for one landmark-selection run.

    ``traversal_units`` counts node+edge touches by the Brandes passes;
    ``elapsed`` prices them with the standard compute model, taking the
    max over machines for the parallel local strategy (each machine
    scores its own sample concurrently) and the whole sum for the global
    strategy (one logical computation over the full graph) — the cost
    asymmetry behind Section 5.5's "significantly more costly".
    """

    strategy: str
    traversal_units: int = 0
    per_machine_units: dict[int, int] = field(default_factory=dict)

    def charge(self, machine: int, units: int) -> None:
        self.traversal_units += units
        self.per_machine_units[machine] = (
            self.per_machine_units.get(machine, 0) + units
        )

    def elapsed(self, params: ComputeParams | None = None) -> float:
        params = params or ComputeParams()
        unit_cost = params.cell_access_cost + params.edge_scan_cost
        if self.strategy == "local-betweenness" and self.per_machine_units:
            units = max(self.per_machine_units.values())
        else:
            units = self.traversal_units
        return units * unit_cost / params.threads_per_machine


def brandes_betweenness(indptr: np.ndarray, indices: np.ndarray,
                        nodes: np.ndarray | None = None,
                        samples: int = 64, seed: int = 0,
                        work_out: list | None = None) -> np.ndarray:
    """Approximate betweenness centrality via sampled Brandes BFS.

    ``indptr``/``indices`` describe a CSR adjacency over n nodes; sources
    are sampled from ``nodes`` (default: all).  Returns a length-n score
    vector (unnormalised; only the ranking matters here).  When
    ``work_out`` is given, the total node+edge touches are appended to it
    (the traversal-work unit the selection-cost model prices).
    """
    n = len(indptr) - 1
    scores = np.zeros(n)
    rng = np.random.default_rng(seed)
    pool = np.arange(n) if nodes is None else np.asarray(nodes)
    if not len(pool):
        return scores
    sources = rng.choice(pool, size=min(samples, len(pool)), replace=False)
    if work_out is not None:
        # Each Brandes pass touches every reachable node and scans every
        # reachable edge twice (BFS + accumulation); charge n + 2m per
        # sampled source as the standard estimate.
        work_out.append(int(len(sources)) * (n + 2 * len(indices)))

    for source in sources:
        # Brandes' single-source accumulation.
        stack: list[int] = []
        predecessors: list[list[int]] = [[] for _ in range(n)]
        sigma = np.zeros(n)
        sigma[source] = 1.0
        distance = np.full(n, -1, dtype=np.int64)
        distance[source] = 0
        queue = deque([int(source)])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in indices[indptr[v]:indptr[v + 1]]:
                w = int(w)
                if distance[w] < 0:
                    distance[w] = distance[v] + 1
                    queue.append(w)
                if distance[w] == distance[v] + 1:
                    sigma[w] += sigma[v]
                    predecessors[w].append(v)
        delta = np.zeros(n)
        while stack:
            w = stack.pop()
            for v in predecessors[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != source:
                scores[w] += delta[w]
    return scores


def _pick_spaced(topology, order: np.ndarray, count: int) -> list[int]:
    """Take candidates in score order, skipping neighbors of those already
    picked (the standard anti-redundancy constraint of Potamias et al.;
    two endpoints of the same bridge would otherwise both be selected).
    Falls back to unconstrained picks if the graph is too small."""
    picked: list[int] = []
    excluded: set[int] = set()
    for v in order:
        v = int(v)
        if v in excluded:
            continue
        picked.append(v)
        if len(picked) == count:
            return picked
        excluded.add(v)
        excluded.update(int(u) for u in topology.out_neighbors(v))
    for v in order:  # relax the constraint if we ran out of candidates
        v = int(v)
        if v not in picked:
            picked.append(v)
            if len(picked) == count:
                break
    return picked


def select_landmarks(topology, count: int, strategy: str = "local-betweenness",
                     samples: int = 48, seed: int = 0) -> list[int]:
    """Pick ``count`` landmark vertices by one of the paper's strategies.

    ``strategy`` is one of ``"degree"``, ``"local-betweenness"``,
    ``"global-betweenness"``.  All strategies apply the same
    neighbor-exclusion spacing, so they differ only in the score.
    """
    landmarks, _ = select_landmarks_with_cost(
        topology, count, strategy, samples=samples, seed=seed,
    )
    return landmarks


def select_landmarks_with_cost(topology, count: int,
                               strategy: str = "local-betweenness",
                               samples: int = 48, seed: int = 0
                               ) -> tuple[list[int], SelectionCost]:
    """Like :func:`select_landmarks` but also returns the
    :class:`SelectionCost` — the accounting behind Section 5.5's claim
    that local betweenness costs a fraction of global."""
    if count < 1:
        raise QueryError("landmark count must be >= 1")
    cost = SelectionCost(strategy)
    if strategy == "degree":
        # Degrees are free metadata (maintained by the store).
        degrees = topology.out_degrees()
        order = np.argsort(-degrees, kind="stable")
        return _pick_spaced(topology, order, count), cost
    if strategy == "global-betweenness":
        work: list[int] = []
        scores = brandes_betweenness(
            topology.out_indptr, topology.out_indices,
            samples=samples, seed=seed, work_out=work,
        )
        cost.charge(0, sum(work))
        order = np.argsort(-scores, kind="stable")
        return _pick_spaced(topology, order, count), cost
    if strategy == "local-betweenness":
        # Each machine scores paths through its *sample*: its local
        # vertices plus the boundary — the paper notes a random partition
        # leaves each machine with full adjacency lists whose "edges link
        # to a large amount of the remaining ... vertices", so boundary
        # endpoints participate as path relays even though only local
        # vertices are ranked.
        machine_scores = np.zeros(topology.n)
        for machine in range(topology.machine_count):
            local = topology.nodes_of_machine(machine)
            if len(local) < 3:
                continue
            sub_indptr, sub_indices, mapping, local_count = _sample_subgraph(
                topology, local
            )
            # Each machine runs its Brandes pass independently and in
            # parallel on an n/m-node sample, so it affords the full
            # sample budget — the whole point of the local strategy is
            # that this is still far cheaper than one global pass.
            work: list[int] = []
            local_scores = brandes_betweenness(
                sub_indptr, sub_indices,
                nodes=np.arange(local_count),
                samples=samples,
                seed=seed + machine,
                work_out=work,
            )
            cost.charge(machine, sum(work))
            machine_scores[mapping[:local_count]] = local_scores[:local_count]
        order = np.argsort(-machine_scores, kind="stable")
        return _pick_spaced(topology, order, count), cost
    raise QueryError(
        f"unknown strategy {strategy!r}; expected degree, "
        "local-betweenness or global-betweenness"
    )


def _sample_subgraph(topology, local: np.ndarray):
    """One machine's sample: local vertices with full adjacency, boundary
    endpoints included as relay-only nodes.

    Returns (indptr, indices, node mapping, local_count): sub-ids
    ``0..local_count-1`` are the machine's own vertices; higher sub-ids
    are boundary endpoints, reachable through local vertices only (their
    own adjacency lives on other machines and is not available).  Edges
    are symmetrised so boundary nodes can relay local-boundary-local
    2-hop paths.
    """
    sub_id = {int(v): i for i, v in enumerate(local)}
    local_count = len(local)
    adjacency: list[list[int]] = [[] for _ in range(local_count)]
    boundary_back: dict[int, list[int]] = {}
    for i, v in enumerate(local):
        for u in topology.out_neighbors(int(v)):
            u = int(u)
            if u in sub_id:
                adjacency[i].append(sub_id[u])
            else:
                boundary_back.setdefault(u, []).append(i)
    mapping = list(int(v) for v in local)
    for u, backlinks in boundary_back.items():
        sub = len(mapping)
        mapping.append(u)
        adjacency.append(list(backlinks))
        for i in backlinks:
            adjacency[i].append(sub)
    indptr = np.zeros(len(adjacency) + 1, dtype=np.int64)
    chunks = []
    for i, neighbors in enumerate(adjacency):
        indptr[i + 1] = indptr[i] + len(neighbors)
        if neighbors:
            chunks.append(np.asarray(neighbors, dtype=np.int64))
    indices = (np.concatenate(chunks) if chunks
               else np.empty(0, dtype=np.int64))
    return indptr, indices, np.asarray(mapping), local_count


@dataclass
class OracleEvaluation:
    """Accuracy of a landmark set over sampled node pairs."""

    strategy: str
    landmarks: list[int]
    accuracy: float                  # mean(d_true / d_estimate), in (0, 1]
    exact_fraction: float            # pairs answered exactly
    pairs_evaluated: int
    per_pair: list[tuple[int, int, int, int]] = field(default_factory=list)


def evaluate_oracle(topology, landmarks: list[int], pairs: int = 200,
                    seed: int = 0,
                    cross_check: bool = False) -> OracleEvaluation:
    """Measure estimation accuracy of a landmark set.

    Estimates are upper bounds, so accuracy is the mean of
    true/estimated distance over random connected pairs (1.0 = always
    exact) — a monotone stand-in for the paper's "estimation accuracy %".

    The underlying BFS passes run as vectorized frontier waves over
    the CSR arrays (wave levels don't depend on intra-level order, so
    the distances are those of a node-at-a-time walk);
    ``cross_check=True`` also runs that scalar BFS and raises
    :class:`~repro.errors.DivergenceError` on any mismatch.
    """
    n = topology.n
    rng = np.random.default_rng(seed)
    landmark_distances = np.stack([
        _bfs_distances_batch(topology, lm) for lm in landmarks
    ])
    if cross_check:
        shadow("algorithms.landmarks.bfs", landmark_distances, np.stack([
            _bfs_distances_scalar(topology, lm) for lm in landmarks
        ]), equal=np.array_equal)
    evaluation = OracleEvaluation(
        strategy="", landmarks=list(landmarks),
        accuracy=0.0, exact_fraction=0.0, pairs_evaluated=0,
    )
    ratios = []
    exact = 0
    attempts = 0
    while evaluation.pairs_evaluated < pairs and attempts < pairs * 20:
        attempts += 1
        u = int(rng.integers(n))
        v = int(rng.integers(n))
        if u == v:
            continue
        true = _pair_distance_batch(topology, u, v)
        if cross_check:
            shadow("algorithms.landmarks.pair_distance", true,
                   _pair_distance_scalar(topology, u, v))
        if true <= 0:
            continue
        through = landmark_distances[:, u] + landmark_distances[:, v]
        feasible = through[np.isfinite(through)]
        if not len(feasible):
            continue
        estimate = int(feasible.min())
        ratios.append(true / estimate)
        if estimate == true:
            exact += 1
        evaluation.pairs_evaluated += 1
        evaluation.per_pair.append((u, v, true, estimate))
    if ratios:
        evaluation.accuracy = float(np.mean(ratios))
        evaluation.exact_fraction = exact / len(ratios)
    return evaluation


def _gather_wave(indptr: np.ndarray, indices: np.ndarray,
                 frontier: np.ndarray) -> np.ndarray:
    """All out-neighbors of a frontier in one vectorized CSR gather."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=indices.dtype)
    shifts = np.concatenate((np.zeros(1, dtype=np.int64),
                             np.cumsum(counts)[:-1]))
    positions = np.repeat(indptr[frontier] - shifts, counts)
    return indices[positions + np.arange(total)]


def _bfs_distances_scalar(topology, source: int) -> np.ndarray:
    n = topology.n
    dist = np.full(n, np.inf)
    dist[source] = 0
    frontier = [source]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for v in frontier:
            for u in topology.out_neighbors(v):
                u = int(u)
                if not np.isfinite(dist[u]):
                    dist[u] = level
                    next_frontier.append(u)
        frontier = next_frontier
    return dist


def _bfs_distances_batch(topology, source: int) -> np.ndarray:
    """Wave-at-a-time BFS: one CSR gather per level.

    Distances are level numbers, so intra-wave visit order is
    irrelevant — the result is identical to the scalar walk.
    """
    dist = np.full(topology.n, np.inf)
    dist[source] = 0
    indptr, indices = topology.out_indptr, topology.out_indices
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        flat = _gather_wave(indptr, indices, frontier)
        fresh = flat[~np.isfinite(dist[flat])] if len(flat) else flat
        frontier = np.unique(fresh)
        dist[frontier] = level
    return dist


def _pair_distance_scalar(topology, u: int, v: int) -> int:
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    level = 0
    while frontier:
        level += 1
        next_frontier = []
        for x in frontier:
            for y in topology.out_neighbors(x):
                y = int(y)
                if y == v:
                    return level
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
        frontier = next_frontier
    return -1


def _pair_distance_batch(topology, u: int, v: int) -> int:
    """Vectorized early-exit BFS; wave levels match the scalar walk."""
    if u == v:
        return 0
    seen = np.zeros(topology.n, dtype=bool)
    seen[u] = True
    indptr, indices = topology.out_indptr, topology.out_indices
    frontier = np.asarray([u], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        flat = _gather_wave(indptr, indices, frontier)
        if len(flat) and np.any(flat == v):
            return level
        fresh = flat[~seen[flat]] if len(flat) else flat
        frontier = np.unique(fresh)
        seen[frontier] = True
    return -1
