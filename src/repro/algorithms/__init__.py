"""Graph algorithms: online queries and offline analytics (Section 5).

Online (latency-bound, exploration-based):

* :mod:`~repro.algorithms.people_search` — the k-hop "David problem".
* :mod:`~repro.algorithms.subgraph` — STwig-style subgraph matching
  without structure indexes (Section 5.2, Figure 8a, Figure 14a).
* :mod:`~repro.algorithms.landmarks` — the landmark distance oracle and
  its three selection strategies (Section 5.5, Figure 8b).

Offline (throughput-bound, vertex-centric):

* :mod:`~repro.algorithms.pagerank`, :mod:`~repro.algorithms.bfs`,
  :mod:`~repro.algorithms.sssp`, :mod:`~repro.algorithms.wcc`,
  :mod:`~repro.algorithms.triangles` — each one
  :class:`~repro.compute.vertex.VertexProgram`, and an entry point
  (``pagerank``, ``bfs``, ``sssp``, ``wcc``, ``count_triangles``) that
  runs it on the :class:`~repro.compute.bsp.BspEngine` and reports the
  answer with each superstep's simulated time (Figure 12).
"""

from .pagerank import PageRankProgram, PageRankRun, pagerank, pagerank_async
from .bfs import BfsProgram, BfsRun, bfs
from .sssp import SsspProgram, sssp
from .wcc import WccProgram, wcc
from .triangles import TriangleProgram, TriangleRun, count_triangles
from .people_search import PeopleSearchResult, people_search
from .subgraph import (
    Query,
    SubgraphMatchResult,
    generate_query_dfs,
    generate_query_random,
    match_subgraph,
)
from .landmarks import (
    OracleEvaluation,
    evaluate_oracle,
    select_landmarks,
)

__all__ = [
    "PageRankProgram",
    "PageRankRun",
    "pagerank",
    "pagerank_async",
    "BfsProgram",
    "BfsRun",
    "bfs",
    "SsspProgram",
    "sssp",
    "WccProgram",
    "wcc",
    "TriangleProgram",
    "TriangleRun",
    "count_triangles",
    "PeopleSearchResult",
    "people_search",
    "Query",
    "SubgraphMatchResult",
    "generate_query_dfs",
    "generate_query_random",
    "match_subgraph",
    "OracleEvaluation",
    "select_landmarks",
    "evaluate_oracle",
]
