"""Where a load / save / restore cycle goes: ``perf_counter`` around the seams.

    python benchmarks/load_seams.py [--src DIR] [--scale 14] [--cycles 8]

One cycle is what the spine's ``load_restore`` workload times (R-MAT,
degree 8, seed 42, 16 trunks of 1 MiB, real TFS files in a temporary
directory): ``GraphBuilder`` bulk load, ``CheckpointManager.save_cloud``,
``load_cloud``.  Inside them the script wraps ``finalize`` and its parts
— the grouping, the cell encode (its field columns, the adjacency
columns among them, and the interleave of the columns into cells),
``MemoryTrunk._bulk_insert_fresh`` (the trunk half of ``bulk_put``) and
its run write — ``MemoryTrunk._index_fresh`` (charged to whichever phase
called it), ``trunk_to_bytes`` / ``freeze_image_state`` / ``tfs.write``,
the TFS commit split into its block files (``DataNode.store``, as
``save.tfs_blocks``) and its namenode manifest (``_save_manifest``, as
``save.tfs_manifest``: once per save since the group commit, once per
trunk image before it, where it ran inside ``tfs.write``), and
``_parse_image`` / ``adopt_image_state`` — no profiler.  ``--src``
points at another checkout's ``src`` so a parent commit can be timed by
the same script; a seam that checkout lacks is left out, and a seam
whose owner was renamed is looked up under both names.  Means over
``--cycles`` cycles after one warm-up cycle; this is the source of the
table in DESIGN.md §10, not part of the spine benchmark.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import tempfile
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(
        pathlib.Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--scale", type=int, default=14)
    parser.add_argument("--cycles", type=int, default=8)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.compute.checkpoint import CheckpointManager
    from repro.config import ClusterConfig, MemoryParams
    from repro.generators import rmat_edges
    from repro.generators.names import sample_names
    from repro.graph import GraphBuilder, builder as graph_builder
    from repro.graph.model import social_graph_schema
    from repro.memcloud import MemoryCloud, persistence
    from repro.memcloud.trunk import MemoryTrunk
    from repro.obs import MetricsRegistry
    from repro.tfs import DataNode, TrinityFileSystem
    from repro.tsl import batch

    totals: dict[str, float] = {}

    def clocked(key: str, function, *call_args, **call_kwargs):
        start = time.perf_counter()
        try:
            return function(*call_args, **call_kwargs)
        finally:
            totals[key] = totals.get(key, 0.0) + time.perf_counter() - start

    def timed(owner, name: str, key: str) -> None:
        inner = getattr(owner, name, None)
        if inner is not None:
            setattr(owner, name, lambda *call_args, **call_kwargs: clocked(
                key, inner, *call_args, **call_kwargs))

    timed(GraphBuilder, "finalize", "load.finalize")
    timed(GraphBuilder, "_grouped_directions", "load.finalize.group")
    # The cells: one bytes per cell per field, joined (before), or the
    # field columns and their interleave into one packed batch.
    timed(GraphBuilder, "_bulk_blobs", "load.finalize.cells")
    timed(GraphBuilder, "_encode", "load.finalize.cells")
    timed(batch._FieldPlan, "encode_column", "load.finalize.cells.columns")
    timed(graph_builder, "encode_adjacency_segments",
          "load.finalize.cells.columns.adjacency")
    timed(batch, "encode_adjacency_segments",
          "load.finalize.cells.columns.adjacency")
    timed(batch, "assemble_cells", "load.finalize.cells.interleave")
    timed(MemoryCloud, "bulk_put", "load.finalize.bulk_put")
    timed(MemoryTrunk, "_bulk_insert_fresh", "load.finalize.bulk_put.fresh")
    timed(MemoryTrunk, "_write_run", "load.finalize.bulk_put.fresh.run")
    timed(MemoryTrunk, "_index_fresh", "index_fresh")
    timed(persistence, "trunk_to_bytes", "save.trunk_to_bytes")
    timed(MemoryTrunk, "freeze_image_state", "save.trunk_to_bytes.freeze")
    timed(TrinityFileSystem, "write", "save.tfs_write")
    timed(TrinityFileSystem, "_save_manifest", "save.tfs_manifest")
    timed(DataNode, "store", "save.tfs_blocks")
    timed(persistence, "_parse_image", "restore.parse_image")
    timed(MemoryTrunk, "adopt_image_state", "restore.adopt_image_state")

    nodes = 1 << args.scale
    edges = rmat_edges(args.scale, avg_degree=8, seed=42)
    names = sample_names(nodes, seed=43)
    config = ClusterConfig(machines=4, trunk_bits=4,
                           memory=MemoryParams(trunk_size=1 << 20))

    def add_nodes(builder) -> None:   # one span for the 2**scale calls
        for node_id, name in enumerate(names):
            builder.add_node(node_id, Name=name)

    def load(cloud) -> None:
        builder = GraphBuilder(cloud, social_graph_schema())
        clocked("load.add_node", add_nodes, builder)
        builder.add_edges(edges)
        builder.finalize()

    def cycle() -> None:
        with tempfile.TemporaryDirectory(prefix="load-seams-") as root:
            checkpoints = CheckpointManager(
                TrinityFileSystem(disk_root=root), job="seams")
            cloud = MemoryCloud(config, MetricsRegistry())
            try:
                clocked("load", load, cloud)
                clocked("save", checkpoints.save_cloud, 1, cloud)
                clocked("restore", checkpoints.load_cloud, 1, cloud)
            finally:
                cloud.release_arenas()

    cycle()
    totals.clear()
    for _ in range(args.cycles):
        cycle()
    per_cycle = {key: seconds / args.cycles * 1e3
                 for key, seconds in totals.items()}
    whole = sum(per_cycle[phase] for phase in ("load", "save", "restore"))
    print(f"scale {args.scale}: {nodes} cells, {len(edges)} edges, "
          f"{1 << config.trunk_bits} trunks; mean ms per cycle over "
          f"{args.cycles}: {whole:.1f}")
    for key in sorted(per_cycle):
        print(f"  {key:32s} {per_cycle[key]:7.1f}  "
              f"({per_cycle[key] / whole:4.0%})")


if __name__ == "__main__":
    main()
