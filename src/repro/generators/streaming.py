"""Streaming (external-memory) social-graph generation.

The paper's Facebook-like deployment is 8e8 nodes and 1.4e10 edges —
two orders of magnitude more edge bytes than any single machine's RAM.
Generating such a graph with :func:`repro.generators.powerlaw_edges`
is impossible by construction: the configuration model shuffles one
global stub array, so the whole edge list exists in memory before the
first byte reaches the cloud.

``stream_social_edges`` is the external-memory counterpart: a chunked
Chung-Lu emitter.  It keeps only O(n) per-node state (the expected
degree sequence, sampled from the same P(k) ~ k^-gamma law with the
same multiplicative rescaling toward ``avg_degree``) and yields edge
*batches* of bounded size — the full edge list never materialises.
Hubs emerge exactly as in the offline generator: destinations are
drawn proportionally to degree weight, so high-degree nodes attract
edges from every chunk.

``stream_build_social_graph`` drives a :class:`GraphBuilder` from the
batch stream, which is how a paged cloud (``MemoryParams.storage=
"paged"``) loads a graph bigger than its page budget: each batch is
ingested and released before the next is drawn, and the bulk finalize
writes each trunk's run of cells through its storage in bounded chunks
(``MemoryTrunk._write_run``), page by page.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..graph import Graph, GraphBuilder, social_graph_schema
from ..memcloud import MemoryCloud
from .names import sample_names
from .powerlaw import powerlaw_degree_sequence


def _expected_degrees(n: int, avg_degree: float, gamma: float,
                      seed: int) -> np.ndarray:
    """Power-law degree expectations, rescaled like the offline model."""
    degrees = powerlaw_degree_sequence(n, gamma, seed=seed)
    current = degrees.mean()
    if current < avg_degree:
        factor = avg_degree / current
        degrees = np.maximum(1, np.round(degrees * factor)).astype(np.int64)
    return degrees


def stream_social_edges(n: int, avg_degree: float = 13.0,
                        gamma: float = 2.16, seed: int = 0,
                        batch_edges: int = 1 << 14
                        ) -> Iterator[np.ndarray]:
    """Yield ``(k, 2)`` int64 edge batches; never the whole edge list.

    Chung-Lu sampling over a power-law weight sequence: source nodes
    are swept in chunks, each emitting ``degree/2`` stubs (undirected
    edges are emitted once, like the offline generator's canonical
    form), with destinations drawn from the global degree-weighted
    distribution.  Self-loops are dropped; duplicates are kept — raw
    generator output is real traversal work, exactly as with R-MAT.

    Peak memory is O(n + batch_edges), independent of the edge count.
    """
    if n < 2:
        raise ValueError("a streamed graph needs at least 2 nodes")
    if batch_edges < 1:
        raise ValueError("batch_edges must be >= 1")
    degrees = _expected_degrees(n, avg_degree, gamma, seed)
    weights = degrees.astype(np.float64)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed + 1)
    # Each undirected edge is emitted once, so each node sources half
    # its expected degree; destination draws supply the other half.
    out_degrees = np.maximum(1, degrees // 2)
    chunk_nodes = max(1, int(batch_edges // max(1.0, avg_degree / 2)))
    for lo in range(0, n, chunk_nodes):
        hi = min(n, lo + chunk_nodes)
        src = np.repeat(np.arange(lo, hi, dtype=np.int64),
                        out_degrees[lo:hi])
        for cut in range(0, len(src), batch_edges):
            part = src[cut:cut + batch_edges]
            dst = np.searchsorted(
                cdf, rng.random(len(part))).astype(np.int64)
            keep = part != dst
            if keep.any():
                yield np.stack([part[keep], dst[keep]], axis=1)


def stream_build_social_graph(cloud: MemoryCloud, n: int,
                              avg_degree: float = 13.0,
                              gamma: float = 2.16, seed: int = 0,
                              batch_edges: int = 1 << 14,
                              name_batch: int = 1 << 12) -> tuple[Graph, int]:
    """Load a named social graph batch-by-batch; returns (graph, edges).

    The builder sees the same incremental surface a loader reading
    edge files from disk would use: node batches with names, then edge
    batches, then one bulk finalize.  With a paged cloud the finalize
    streams blob bytes sequentially through the page file, so the
    resident working set stays at the page budget even when the graph
    does not fit.
    """
    builder = GraphBuilder(cloud, social_graph_schema())
    names = sample_names(n, seed=seed + 17)
    for lo in range(0, n, name_batch):
        for node_id in range(lo, min(n, lo + name_batch)):
            builder.add_node(node_id, Name=names[node_id])
    total = 0
    for batch in stream_social_edges(n, avg_degree=avg_degree, gamma=gamma,
                                     seed=seed, batch_edges=batch_edges):
        builder.add_edges(batch)
        total += int(len(batch))
    return builder.finalize(), total
