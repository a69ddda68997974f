"""The Section 5.2 index argument, as a checkable cost model.

"Most [graph indices] require super-linear space and/or super-linear
construction time.  For example, the R-Join approach for subgraph
matching is based on the 2-hop index.  The complexity to build such an
index is O(n^4).  It is obvious that in large graphs where the value of
n is on the scale of 1 billion, any super-linear approach will become
unrealistic."

This module prices the alternatives so the claim can be asserted:

* :func:`two_hop_index_cost` — the 2-hop cover (Cohen et al.): O(n^4)
  construction, O(n * m^{1/2}) labels of space;
* :func:`neighborhood_index_cost` — the per-user k-hop materialisation
  the paper also dismisses for people search: O(sum of k-hop
  neighborhood sizes) space and update cost proportional to degree^k;
* :func:`trinity_label_index_cost` — the only index Trinity's matcher
  needs: one label entry per vertex, built in one scan;
* :func:`exploration_query_cost` — what Trinity pays per query instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CELL_ACCESS_COST, EDGE_SCAN_COST, THREADS_PER_MACHINE

_OPS_PER_SECOND = 1e9       # a generous single-core rate for index builds
_BYTES_PER_LABEL_ENTRY = 16


@dataclass(frozen=True)
class IndexCost:
    """Construction time (seconds) and space (bytes) for one approach."""

    name: str
    build_seconds: float
    space_bytes: float

    @property
    def build_years(self) -> float:
        return self.build_seconds / (365.25 * 24 * 3600)


def two_hop_index_cost(vertices: int, edges: int,
                       machines: int = 1) -> IndexCost:
    """The R-Join prerequisite: a 2-hop reachability cover.

    Construction is O(n^4) (the paper's figure, from the set-cover
    rounds); space is O(n * sqrt(m)) label entries.
    """
    build = float(vertices) ** 4 / (_OPS_PER_SECOND * machines)
    space = vertices * (edges ** 0.5) * _BYTES_PER_LABEL_ENTRY
    return IndexCost("2-hop index (R-Join)", build, space)


def neighborhood_index_cost(vertices: int, avg_degree: float,
                            hops: int = 3) -> IndexCost:
    """Materialising every user's k-hop neighborhood (the people-search
    index the paper rejects: "the size and the update cost of such an
    index are prohibitive")."""
    neighborhood = min(float(vertices), avg_degree ** hops)
    space = vertices * neighborhood * 8
    build = vertices * neighborhood / _OPS_PER_SECOND
    return IndexCost(f"{hops}-hop neighborhood index", build, space)


def trinity_label_index_cost(vertices: int) -> IndexCost:
    """The label index the STwig matcher uses: strictly linear."""
    return IndexCost(
        "label index (Trinity)",
        vertices / _OPS_PER_SECOND,
        vertices * _BYTES_PER_LABEL_ENTRY,
    )


def exploration_query_cost(candidates: int, avg_degree: float,
                           machines: int = 8) -> float:
    """Per-query cost of index-free exploration (seconds, simulated).

    ``candidates`` root candidates each expand one adjacency list; the
    work spreads over the cluster (Section 5.2's "fast random access and
    parallel computing").
    """
    per_candidate = CELL_ACCESS_COST + avg_degree * EDGE_SCAN_COST
    return candidates * per_candidate / (machines * THREADS_PER_MACHINE)
