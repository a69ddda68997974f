"""Graph data model on top of the memory cloud (Section 4.1).

Nodes are cells: a cell holds the node's attributes plus one or two lists
of 64-bit cell ids — ``Outlinks``/``Inlinks`` for directed graphs, a single
``Neighbors`` list for undirected ones.  Edges are *SimpleEdge*s: just the
target's cell id.

Public pieces:

* :func:`~repro.graph.model.plain_graph_schema` /
  :func:`~repro.graph.model.social_graph_schema` — canned TSL schemas.
* :class:`~repro.graph.builder.GraphBuilder` — bulk loader that encodes
  nodes into blobs and stores them in a :class:`~repro.memcloud.MemoryCloud`.
* :class:`~repro.graph.api.Graph` — the query surface: adjacency,
  attributes, node→machine placement.
* :class:`~repro.graph.csr.CsrTopology` — a compact, memory-resident
  adjacency snapshot used by the offline analytics engines (Trinity keeps
  "the graph topology ... memory-resident", Section 1 footnote).
"""

from .model import (
    GraphSchema,
    plain_graph_schema,
    social_graph_schema,
)
from .builder import GraphBuilder
from .api import Graph
from .csr import CsrTopology

__all__ = [
    "GraphSchema",
    "plain_graph_schema",
    "social_graph_schema",
    "GraphBuilder",
    "Graph",
    "CsrTopology",
]
