"""Canned graph schemas and the GraphSchema descriptor.

TSL deliberately has no fixed graph schema (Section 4: "instead of using
fixed graph schema ... Trinity lets users define graph schema ... through
TSL").  The helpers here generate common schemas so examples and
benchmarks do not have to write TSL by hand, while anything bespoke can
still be compiled from user TSL and wrapped in :class:`GraphSchema`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import TslTypeError
from ..tsl import CompiledSchema, compile_tsl


@dataclass(frozen=True)
class GraphSchema:
    """Binds a compiled TSL schema to graph-structural conventions.

    ``out_field`` names the adjacency list used for forward traversal.
    ``in_field`` is ``None`` for undirected graphs, in which case
    ``out_field`` holds the symmetric neighbor list.
    """

    schema: CompiledSchema
    cell_name: str
    out_field: str
    in_field: str | None
    attribute_fields: tuple[str, ...] = ()

    @property
    def directed(self) -> bool:
        return self.in_field is not None

    @property
    def node_type(self):
        return self.schema.cell(self.cell_name)

    @classmethod
    def from_compiled(cls, schema: CompiledSchema,
                      cell_name: str) -> "GraphSchema":
        """Infer structural conventions from ``[EdgeType: ...]`` attributes.

        The first edge-bearing field is treated as outgoing, the second (if
        any) as incoming; remaining fields are attributes.
        """
        edges = schema.edge_fields(cell_name)
        if not edges:
            raise TslTypeError(
                f"cell {cell_name!r} declares no [EdgeType] fields"
            )
        out_field = edges[0].field_name
        in_field = edges[1].field_name if len(edges) > 1 else None
        edge_names = {e.field_name for e in edges}
        attributes = tuple(
            name for name in schema.cell(cell_name).field_names()
            if name not in edge_names
        )
        return cls(schema, cell_name, out_field, in_field, attributes)


def plain_graph_schema(directed: bool = True) -> GraphSchema:
    """Topology-only nodes: the workhorse for analytics benchmarks."""
    if directed:
        source = """
        [CellType: NodeCell]
        cell struct Node {
            [EdgeType: SimpleEdge, ReferencedCell: Node]
            List<long> Outlinks;
            [EdgeType: SimpleEdge, ReferencedCell: Node]
            List<long> Inlinks;
        }
        """
        return GraphSchema(compile_tsl(source), "Node", "Outlinks", "Inlinks")
    source = """
    [CellType: NodeCell]
    cell struct Node {
        [EdgeType: SimpleEdge, ReferencedCell: Node]
        List<long> Neighbors;
    }
    """
    return GraphSchema(compile_tsl(source), "Node", "Neighbors", None)


def social_graph_schema(directed: bool = False) -> GraphSchema:
    """Friendship graph with a Name attribute — the schema for the
    paper's people-search ("David problem") workload (Section 5.1).

    Undirected by default; ``directed=True`` splits the neighbor list
    into ``Friends`` (outgoing) and ``FriendOf`` (incoming), which is
    what reverse-edge TQL chains traverse through the fused inlinks
    path.
    """
    if directed:
        source = """
        [CellType: NodeCell]
        cell struct Person {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Person]
            List<long> Friends;
            [EdgeType: SimpleEdge, ReferencedCell: Person]
            List<long> FriendOf;
        }
        """
        return GraphSchema(
            compile_tsl(source), "Person", "Friends", "FriendOf",
            attribute_fields=("Name",),
        )
    source = """
    [CellType: NodeCell]
    cell struct Person {
        string Name;
        [EdgeType: SimpleEdge, ReferencedCell: Person]
        List<long> Friends;
    }
    """
    return GraphSchema(
        compile_tsl(source), "Person", "Friends", None,
        attribute_fields=("Name",),
    )
