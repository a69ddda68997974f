"""Shared helpers for the reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's Section 7
at simulation scale, prints the series it produces, and writes the same
text into ``benchmarks/results/<name>.txt`` so the numbers survive pytest's
output capture.  ``EXPERIMENTS.md`` quotes these files.
"""

from __future__ import annotations

import pathlib

from repro.config import ClusterConfig, MemoryParams, NetworkParams
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.obs import JsonFileSink, get_registry

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# The paper's evaluation fabric: each machine has a 40 Gbps IPoIB adapter
# (~5 GB/s payload) next to the gigabit one; analytics traffic rides the
# fast fabric.
IPOIB = NetworkParams(latency=30e-6, bandwidth=5e9)


def report(name: str, lines: list[str], registry=None) -> str:
    """Print a result table and persist it under benchmarks/results/.

    Alongside the text table, the metrics registry that accumulated
    during the run is snapshotted to ``<name>.metrics.json`` — the trunk
    allocator, network-round and superstep series behind the numbers.
    """
    text = "\n".join(lines) + "\n"
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)
    registry = registry if registry is not None else get_registry()
    sink = JsonFileSink(RESULTS_DIR / f"{name}.metrics.json")
    sink.export(registry.snapshot())
    print(f"\n=== {name} ===")
    print(text)
    return text


def build_topology(edges, machines: int, directed: bool = True,
                   trunk_bits: int | None = None,
                   include_inlinks: bool = False,
                   trunk_size: int = 8 * 1024 * 1024) -> CsrTopology:
    """Load an edge array into a fresh cloud and snapshot its topology."""
    if trunk_bits is None:
        trunk_bits = max(6, machines.bit_length() + 2)
    cloud = MemoryCloud(ClusterConfig(
        machines=machines, trunk_bits=trunk_bits,
        memory=MemoryParams(trunk_size=trunk_size),
    ))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=directed))
    builder.add_edges(edges.tolist())
    graph = builder.finalize()
    return CsrTopology(graph, include_inlinks=include_inlinks)


def format_row(cells, widths) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)).rstrip()


def format_table(header, rows) -> list[str]:
    """Fixed-width text table (same style the paper's tables use)."""
    data = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in data) for i in range(len(header))]
    lines = [format_row(data[0], widths),
             format_row(["-" * w for w in widths], widths)]
    lines.extend(format_row(row, widths) for row in data[1:])
    return lines


def ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def gb(byte_count: float) -> str:
    return f"{byte_count / 1e9:.1f}"
