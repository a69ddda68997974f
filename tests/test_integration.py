"""Integration tests: whole-system flows spanning multiple subsystems."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.cluster import TrinityCluster
from repro.algorithms import pagerank, people_search
from repro.compute import BspEngine, CheckpointManager
from repro.algorithms import PageRankProgram
from repro.generators.social import build_social_graph
from repro.graph import CsrTopology, GraphBuilder, plain_graph_schema
from repro.tsl import compile_tsl


class TestTslToClusterFlow:
    """The Figure 4 + Figure 6 story end to end: declare a schema in
    TSL, store cells through the cluster, manipulate via accessors."""

    def test_movie_actor_workflow(self):
        cluster = TrinityCluster(ClusterConfig(machines=4))
        schema = compile_tsl("""
        [CellType: NodeCell]
        cell struct Movie {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Actor]
            List<long> Actors;
        }
        [CellType: NodeCell]
        cell struct Actor {
            string Name;
            [EdgeType: SimpleEdge, ReferencedCell: Movie]
            List<long> Movies;
        }
        """)
        movie_id, actor_a, actor_b = 1, 100, 101
        schema.save_cell(cluster.cloud, "Movie", movie_id,
                         {"Name": "Heat", "Actors": [actor_a]})
        schema.save_cell(cluster.cloud, "Actor", actor_a,
                         {"Name": "Pacino", "Movies": [movie_id]})
        schema.save_cell(cluster.cloud, "Actor", actor_b,
                         {"Name": "De Niro", "Movies": []})

        # Cast actor_b via the accessor; both sides of the relationship.
        with schema.use_cell(cluster.cloud, "Movie", movie_id) as movie:
            movie.Actors.append(actor_b)
        with schema.use_cell(cluster.cloud, "Actor", actor_b) as actor:
            actor.Movies.append(movie_id)

        movie = schema.load_cell(cluster.cloud, "Movie", movie_id)
        assert movie["Actors"] == [actor_a, actor_b]
        # The cells survive a full TFS backup + machine failure.
        cluster.backup_to_tfs()
        victim = cluster.cloud.machine_of(movie_id)
        cluster.fail_machine(victim)
        cluster.report_failure(victim)
        assert schema.load_cell(cluster.cloud, "Movie", movie_id) == movie

    def test_echo_protocol_end_to_end(self):
        """Figure 5: the Echo protocol through a real slave handler."""
        schema = compile_tsl("""
        struct MyMessage { string Text; }
        protocol Echo { Type: Syn; Request: MyMessage; Response: MyMessage; }
        """)
        cluster = TrinityCluster(ClusterConfig(machines=2), schema=schema)
        cluster.slaves[1].register_protocol(
            "Echo", lambda message, data: {"Text": "echo: " + data["Text"]},
        )
        client = cluster.new_client()
        reply = client.call(1, "Echo", {"Text": "hello trinity"})
        assert reply == {"Text": "echo: hello trinity"}


class TestAnalyticsOverCluster:
    def test_pagerank_result_independent_of_machine_count(self):
        """Section 5.3: results must not depend on the deployment shape."""
        from repro.generators import rmat_edges
        edges = rmat_edges(scale=8, avg_degree=8, seed=3)
        ranks = []
        for machines in (2, 8):
            cluster = TrinityCluster(
                ClusterConfig(machines=machines, trunk_bits=6)
            )
            builder = GraphBuilder(cluster.cloud,
                                   plain_graph_schema(directed=True))
            builder.add_edges(edges.tolist())
            topo = CsrTopology(builder.finalize())
            ranks.append(pagerank(topo, iterations=20).ranks)
        assert np.abs(ranks[0] - ranks[1]).max() < 1e-12

    def test_more_machines_faster_simulated_time(self):
        # Needs a graph large enough that per-machine communication
        # dominates the fixed barrier cost, like the paper's plots.
        from repro.generators import rmat_edges
        edges = rmat_edges(scale=12, avg_degree=13, seed=4)
        times = []
        for machines in (2, 8):
            cluster = TrinityCluster(
                ClusterConfig(machines=machines, trunk_bits=7)
            )
            builder = GraphBuilder(cluster.cloud,
                                   plain_graph_schema(directed=True))
            builder.add_edges(edges.tolist())
            topo = CsrTopology(builder.finalize())
            times.append(pagerank(topo, iterations=5).elapsed)
        assert times[1] < times[0]

    def test_checkpointed_pagerank_recovers_mid_job(self):
        """Section 6.2 fault recovery for BSP: checkpoint, 'fail', resume
        from the checkpoint and converge to the same answer."""
        from repro.generators import rmat_edges
        edges = rmat_edges(scale=8, avg_degree=8, seed=5)
        cluster = TrinityCluster(ClusterConfig(machines=4, trunk_bits=6))
        builder = GraphBuilder(cluster.cloud,
                               plain_graph_schema(directed=True))
        builder.add_edges(edges.tolist())
        topo = CsrTopology(builder.finalize())

        manager = CheckpointManager(cluster.tfs, job="pr", every=3)
        engine = BspEngine(topo, checkpoints=manager)
        engine.run(PageRankProgram(iterations=9), max_supersteps=11)
        # "Crash" after superstep 5: restore the newest engine image.
        tag = manager.tags()[-1]
        assert tag >= 5
        values = manager.load_state(tag)["values"]
        assert len(values) == topo.n
        # The image holds a consistent value vector (sums to ~1).
        assert sum(values) == pytest.approx(1.0, abs=1e-6)


class TestOnlineQueryOverCluster:
    def test_people_search_after_failure_recovery(self):
        cluster = TrinityCluster(ClusterConfig(machines=4, trunk_bits=6))
        graph = build_social_graph(cluster.cloud, 400, avg_degree=8, seed=6)
        before = people_search(graph, 0, "David", hops=3)
        cluster.backup_to_tfs()
        cluster.fail_machine(2)
        cluster.report_failure(2)
        after = people_search(graph, 0, "David", hops=3)
        assert after.matches == before.matches


class TestScaleOutStory:
    def test_join_then_leave_preserves_graph(self):
        """Machines join and leave the memory cloud; the graph API keeps
        answering identically (Section 3's elasticity claim)."""
        cluster = TrinityCluster(ClusterConfig(machines=3, trunk_bits=6))
        builder = GraphBuilder(cluster.cloud,
                               plain_graph_schema(directed=True))
        builder.add_edges([(i, (i * 7 + 1) % 50) for i in range(200)])
        graph = builder.finalize()
        adjacency_before = {n: graph.outlinks(n) for n in graph.node_ids}

        cluster.backup_to_tfs()
        new_machine = cluster.add_machine()
        assert len(cluster.cloud.addressing.trunks_of(new_machine)) > 0
        cluster.fail_machine(0)
        cluster.report_failure(0)

        for node, expected in adjacency_before.items():
            assert graph.outlinks(node) == expected
