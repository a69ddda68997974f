"""The oracle seam: ``repro.oracle.shadow`` and every site that calls it.

Two halves.  The unit cases pin what a :class:`DivergenceError` says —
where, which field or index, both values, clipped.  The reachability
case runs every public ``cross_check=True`` entry point once and asserts
the ``oracle.checks{where}`` series of its site moved: a site that stops
handing its answer to the seam fails here and nowhere else.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms.landmarks import evaluate_oracle, select_landmarks
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.people_search import people_search
from repro.algorithms.people_search_distributed import (
    distributed_people_search,
    install_search_handlers,
)
from repro.algorithms.subgraph import (
    assign_labels,
    generate_query_dfs,
    match_subgraph,
)
from repro.cluster import TrinityCluster
from repro.compute import BspEngine
from repro.config import ClusterConfig, MemoryParams
from repro.errors import DivergenceError, TrinityError
from repro.generators.names import sample_names
from repro.generators.rmat import rmat_edges
from repro.graph import GraphBuilder
from repro.graph.csr import CsrTopology
from repro.graph.model import social_graph_schema
from repro.memcloud import MemoryCloud
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry, get_registry
from repro.oracle import shadow
from repro.serve import PeopleSearchQuery, QueryServer, ServeConfig
from repro.tql.engine import execute_tql


def checks(where: str) -> int:
    return get_registry().counter("oracle.checks", where=where).value


class TestShadow:
    def test_equal_values_pass_and_are_counted(self):
        before = checks("unit.equal")
        shadow("unit.equal", [1, 2, 3], [1, 2, 3])
        shadow("unit.equal", {"a": 1}, {"a": 1})
        assert checks("unit.equal") == before + 2

    def test_a_failed_check_is_counted_too(self):
        before = checks("unit.failed")
        with pytest.raises(DivergenceError):
            shadow("unit.failed", 1, 2)
        assert checks("unit.failed") == before + 1

    def test_message_names_site_and_both_values(self):
        with pytest.raises(DivergenceError) as err:
            shadow("unit.scalar", 3, 4)
        assert str(err.value) == "cross-check failed at unit.scalar: 3 != 4"

    def test_first_differing_field_is_named(self):
        fast = SimpleNamespace(rows=[1], touched=7, elapsed=0.5)
        reference = SimpleNamespace(rows=[1], touched=9, elapsed=0.25)
        with pytest.raises(DivergenceError) as err:
            shadow("unit.fields", fast, reference,
                   fields=("rows", "touched", "elapsed"))
        assert str(err.value) == \
            "cross-check failed at unit.fields.touched: 7 != 9"
        # Fields that are not listed are not compared.
        shadow("unit.fields", fast, reference, fields=("rows",))

    def test_sequences_report_the_first_differing_index(self):
        with pytest.raises(DivergenceError) as err:
            shadow("unit.seq", [5, 6, 7, 8], [5, 6, 0, 9])
        assert str(err.value) == \
            "cross-check failed at unit.seq[2]: [7] != [0]"
        with pytest.raises(DivergenceError,
                           match=r"unit\.seq\[2\]: \[7\] != \[\]"):
            shadow("unit.seq", [5, 6, 7], [5, 6])
        fast = SimpleNamespace(matches=[1, 2, 3])
        with pytest.raises(DivergenceError,
                           match=r"unit\.seq\.matches\[1\]"):
            shadow("unit.seq", fast, SimpleNamespace(matches=[1, 9, 3]),
                   fields=("matches",))

    def test_arrays_compare_through_equal(self):
        a = np.asarray([0.0, 1.0, np.inf, 2.0])
        shadow("unit.array", a, a.copy(), equal=np.array_equal)
        b = a.copy()
        b[3] = 5.0
        with pytest.raises(DivergenceError) as err:
            shadow("unit.array", a, b, equal=np.array_equal)
        assert str(err.value) == \
            "cross-check failed at unit.array[3]: [2.0] != [5.0]"

    def test_long_values_are_clipped(self):
        with pytest.raises(DivergenceError) as err:
            shadow("unit.clip", {"frontier": list(range(5000))},
                   {"frontier": list(range(5001))})
        message = str(err.value)
        assert len(message) < 500
        assert message.count("chars)") == 2
        assert message.startswith(
            "cross-check failed at unit.clip: {'frontier': [0, 1, 2,")

    def test_error_is_a_library_error_and_an_assertion(self):
        with pytest.raises(TrinityError):
            shadow("unit.kind", "a", "b")
        with pytest.raises(AssertionError):
            shadow("unit.kind", "a", "b")


# ---------------------------------------------------------------------------
# Reachability: every public cross_check=True entry point meets the seam
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    """A small named friendship graph on a two-machine cluster."""
    cluster = TrinityCluster(ClusterConfig(
        machines=2, trunk_bits=4,
        memory=MemoryParams(trunk_size=4 * 1024 * 1024)))
    scale = 7
    edges = rmat_edges(scale, avg_degree=6.0, seed=11, dedup=True)
    edges = edges[edges[:, 0] != edges[:, 1]]
    builder = GraphBuilder(cluster.cloud, social_graph_schema())
    for node_id, name in enumerate(sample_names(1 << scale, seed=12)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges)
    graph = builder.finalize()
    topology = CsrTopology(graph)
    return SimpleNamespace(cluster=cluster, graph=graph, topology=topology,
                           edges=edges,
                           ids=np.asarray(graph.node_ids[:40],
                                          dtype=np.int64))


def run_people_search(w):
    people_search(w.graph, 0, "David", hops=2, network=SimNetwork(),
                  cross_check=True)


def run_tql(w):
    execute_tql(w.graph, "MATCH (a = 0) -[Friends*1..2]-> (b) RETURN b",
                network=SimNetwork(), cross_check=True)


def run_subgraph(w):
    labels = assign_labels(w.topology.n, num_labels=6, seed=3)
    query = generate_query_dfs(w.topology, labels, size=4, seed=2)
    match_subgraph(w.topology, labels, query, network=SimNetwork(),
                   cross_check=True)


def run_landmarks(w):
    landmarks = select_landmarks(w.topology, 3, strategy="degree")
    evaluate_oracle(w.topology, landmarks, pairs=10, seed=2,
                    cross_check=True)


def run_distributed(w):
    install_search_handlers(w.cluster, w.graph, cross_check=True)
    distributed_people_search(w.cluster, w.graph, 0, "David", hops=2,
                              cross_check=True)


def run_finalize(w):
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4),
                        MetricsRegistry())
    builder = GraphBuilder(cloud, social_graph_schema())
    builder.add_edges(w.edges)
    builder.finalize(cross_check=True)


def run_bsp(w):
    BspEngine(w.topology, network=SimNetwork(registry=MetricsRegistry()),
              cross_check=True).run(PageRankProgram(iterations=2))


def run_server(w):
    server = QueryServer(w.graph, ServeConfig(cross_check=True),
                         registry=MetricsRegistry())
    server.submit(PeopleSearchQuery(0, "David", hops=2))
    server.run()


def run_verify_shadow(w):
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=2),
                        MetricsRegistry(), cross_check=True)
    cloud.bulk_put([1, 2, 3], [b"a", b"b", b"c"], presize=False)
    cloud.verify_shadow()


READ_BATCH = ("graph.api.read_batch",)
ENTRY_POINTS = [
    pytest.param(run_people_search,
                 ("algorithms.people_search",) + READ_BATCH,
                 id="people_search"),
    pytest.param(run_tql, ("tql.engine.execute",) + READ_BATCH,
                 id="execute_tql"),
    pytest.param(run_subgraph, ("algorithms.subgraph.prefilter",),
                 id="match_subgraph"),
    pytest.param(run_landmarks,
                 ("algorithms.landmarks.bfs",
                  "algorithms.landmarks.pair_distance"),
                 id="evaluate_oracle"),
    pytest.param(run_distributed,
                 ("algorithms.people_search_distributed.handler",
                  "algorithms.people_search_distributed.dedup")
                 + READ_BATCH,
                 id="distributed_people_search"),
    pytest.param(run_finalize, ("graph.builder.finalize",),
                 id="GraphBuilder.finalize"),
    pytest.param(lambda w: w.graph.outlinks_batch(w.ids, cross_check=True),
                 READ_BATCH, id="Graph.outlinks_batch"),
    pytest.param(lambda w: w.graph.inlinks_batch(w.ids, cross_check=True),
                 READ_BATCH, id="Graph.inlinks_batch"),
    pytest.param(lambda w: w.graph.read_field_batch(w.ids, "Name",
                                                    cross_check=True),
                 READ_BATCH, id="Graph.read_field_batch"),
    pytest.param(lambda w: w.graph.field_eq_batch(w.ids, "Name", "David",
                                                  cross_check=True),
                 READ_BATCH, id="Graph.field_eq_batch"),
    pytest.param(lambda w: w.graph.degree_batch(w.ids, cross_check=True),
                 READ_BATCH, id="Graph.degree_batch"),
    pytest.param(run_bsp, ("compute.bsp.values", "compute.bsp.accounting"),
                 id="BspEngine.run"),
    pytest.param(run_server, ("serve.people_search",), id="QueryServer"),
    pytest.param(run_verify_shadow,
                 ("memcloud.cloud.verify_shadow.cells",
                  "memcloud.cloud.verify_shadow.stats",
                  "memcloud.cloud.verify_shadow.probes"),
                 id="MemoryCloud.verify_shadow"),
]


@pytest.mark.parametrize("run,sites", ENTRY_POINTS)
def test_cross_check_reaches_the_seam(world, run, sites):
    before = {where: checks(where) for where in sites}
    run(world)
    stalled = [where for where in sites if checks(where) == before[where]]
    assert not stalled, f"no oracle.checks movement at {stalled}"
