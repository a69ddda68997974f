"""Concurrent query serving: fusion, caching, admission control.

Trinity's memory cloud serves online queries "in real time" while the
graph keeps changing underneath (Section 1).  This demo stands up a
:class:`~repro.serve.QueryServer` over a named friendship graph and
walks the serving story end to end:

1. a burst of mixed queries — people search, TQL reach, landmark BFS,
   subgraph match — served concurrently: every fusion window issues one
   bulk read per op shape for *all* in-flight frontiers;
2. the same burst again: the epoch-stamped result cache answers
   repeats without touching the cloud;
3. a mutation through the barrier: every cached entry goes stale at
   once, and the re-served queries see the new edge (the bursts run
   inside ``repro.oracle.checking()``, which shadow-replays each
   completion through the sequential library path, so a stale answer
   would raise);
4. bounded admission: a burst beyond the queue limit is rejected
   immediately instead of melting latency for everyone else;
5. the SLO report: p50/p99 wall latency per query class.

Run:  python examples/serve_demo.py
"""

import sys

sys.path.insert(0, "src")

from repro.config import ClusterConfig                      # noqa: E402
from repro.generators import rmat_edges                     # noqa: E402
from repro.generators.names import sample_names             # noqa: E402
from repro.graph import GraphBuilder                        # noqa: E402
from repro.graph.model import social_graph_schema           # noqa: E402
from repro.memcloud import MemoryCloud                      # noqa: E402
from repro.obs import MetricsRegistry                       # noqa: E402
from repro.oracle import checking                           # noqa: E402
from repro.serve import (                                   # noqa: E402
    LandmarkBfsQuery,
    PeopleSearchQuery,
    QueryServer,
    ServeConfig,
    TqlServeQuery,
)


def build_graph(scale=10, machines=4):
    registry = MetricsRegistry()
    cloud = MemoryCloud(ClusterConfig(machines=machines, trunk_bits=4),
                        registry)
    n = 1 << scale
    edges = rmat_edges(scale, avg_degree=8, seed=42)
    builder = GraphBuilder(cloud, social_graph_schema())
    for node_id, name in enumerate(sample_names(n, seed=43)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges.tolist())
    return builder.finalize(), len(edges)


def burst(server):
    tickets = []
    for start in (0, 3, 17, 101, 255, 900):
        tickets.append(server.submit(PeopleSearchQuery(start, "David",
                                                       hops=3)))
    tickets.append(server.submit(TqlServeQuery(
        "MATCH (a = 0) -[Friends*1..3]-> (b {Name: 'David'}) RETURN b")))
    tickets.append(server.submit(LandmarkBfsQuery(7, max_hops=4)))
    with checking():
        server.run()
    return tickets


def main() -> None:
    graph, edge_count = build_graph()
    print(f"friendship graph: {graph.num_nodes} nodes, {edge_count} edges")

    server = QueryServer(graph, ServeConfig(hub_degree_threshold=16))

    print("\n-- burst 1: cold (fused bulk reads) --")
    first = burst(server)
    matches = first[0].result["matches"]
    print(f"people_search(0) found {len(matches)} Davids within 3 hops; "
          f"{server.report().fusion['batch_rounds']} fused bulk rounds "
          f"for {len(first)} queries")

    print("\n-- burst 2: warm (result cache) --")
    second = burst(server)
    print(f"{sum(t.cached for t in second)}/{len(second)} completions "
          f"served from the result cache")

    print("\n-- mutation through the barrier --")
    new_friend = max(graph.node_ids) + 1
    server.mutate(lambda g: g.add_edge(0, new_friend))
    third = burst(server)
    print(f"after add_edge(0, {new_friend}): "
          f"{sum(t.cached for t in third)} cached completions "
          f"(stale entries invalidated by the epoch bump); "
          f"people_search(0) now visits "
          f"{third[0].result['visited']} nodes "
          f"(was {first[0].result['visited']})")

    print("\n-- bounded admission --")
    tight = QueryServer(graph, ServeConfig(queue_limit=4),
                        registry=MetricsRegistry())
    flood = [tight.submit(PeopleSearchQuery(s, "David")) for s in range(9)]
    tight.run()
    rejected = sum(t.status == "rejected" for t in flood)
    print(f"9 submitted against queue_limit=4: {rejected} rejected "
          f"immediately, {9 - rejected} served")

    print("\n-- SLO report --")
    print(server.report().render())


if __name__ == "__main__":
    main()
