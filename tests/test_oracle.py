"""The oracle seam: ``repro.oracle.shadow``, the ``checking()`` scope and
every site that calls the seam.

Three parts.  The unit cases pin what a :class:`DivergenceError` says —
where, which field or index, both values, clipped.  The scope cases pin
``checking()``: off by default, nested, restored on a raise, not
inherited by a new thread, one shadow per cloud.  The reachability case
runs every public entry point once inside the scope and asserts the
``oracle.checks{where}`` series of its site moved: a site that stops
handing its answer to the seam fails here and nowhere else.
"""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import bfs, count_triangles, pagerank, sssp, wcc
from repro.algorithms.landmarks import evaluate_oracle, select_landmarks
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.people_search import people_search
from repro.algorithms.subgraph import (
    assign_labels,
    generate_query_dfs,
    match_subgraph,
)
from repro.compute import BspEngine
from repro.config import ClusterConfig, MemoryParams
from repro.errors import AddressingError, DivergenceError, TrinityError
from repro.generators.names import sample_names
from repro.generators.rmat import rmat_edges
from repro.graph import GraphBuilder
from repro.graph.csr import CsrTopology
from repro.graph.model import social_graph_schema
from repro.memcloud import MemoryCloud
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry, get_registry
from repro.oracle import checking, is_checking, shadow
from repro.serve import PeopleSearchQuery, QueryServer, ServeConfig
from repro.tql.engine import execute_tql


def checks(where: str) -> int:
    return get_registry().counter("oracle.checks", where=where).value


def checks_by_where() -> dict:
    return {dict(metric.labels)["where"]: metric.value
            for metric in get_registry().collect()
            if metric.name == "oracle.checks"}


def checks_total() -> int:
    return sum(checks_by_where().values())


def moved_since(before: dict) -> dict:
    return {where: count - before.get(where, 0)
            for where, count in checks_by_where().items()
            if count != before.get(where, 0)}


def network():
    return SimNetwork(registry=MetricsRegistry())


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
# The checking() scope
# ---------------------------------------------------------------------------


class TestCheckingScope:
    def test_off_by_default(self):
        assert not is_checking()

    def test_scopes_nest(self):
        with checking():
            assert is_checking()
            with checking(False):
                assert not is_checking()
                with checking():
                    assert is_checking()
                assert not is_checking()
            assert is_checking()
        assert not is_checking()

    def test_restored_when_the_body_raises(self):
        with pytest.raises(KeyError):
            with checking():
                raise KeyError("boom")
        assert not is_checking()
        with checking():
            with pytest.raises(KeyError):
                with checking(False):
                    raise KeyError("boom")
            assert is_checking()

    def test_a_new_thread_does_not_inherit_the_scope(self):
        seen = []

        def probe():
            seen.append(is_checking())
            with checking():
                seen.append(is_checking())

        with checking():
            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert is_checking()
        assert seen == [False, True]

    def test_a_cloud_built_in_scope_has_one_shadow(self):
        config = ClusterConfig(machines=2, trunk_bits=2)
        with checking():
            cloud = MemoryCloud(config, MetricsRegistry())
        assert cloud._shadow is not None
        assert cloud._shadow._shadow is None
        cloud.put(1, b"a")          # the shadow follows outside the scope
        cloud.verify_shadow()
        cloud.release_arenas()

    def test_a_cloud_built_outside_has_none(self):
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=2),
                            MetricsRegistry())
        with checking():
            cloud.put(1, b"a")
            with pytest.raises(AddressingError, match="checking"):
                cloud.verify_shadow()
        cloud.release_arenas()


# ---------------------------------------------------------------------------
# Reachability: every public entry point meets the seam inside the scope
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def world():
    """A small named friendship graph on a two-machine cloud."""
    cloud = MemoryCloud(ClusterConfig(
        machines=2, trunk_bits=4,
        memory=MemoryParams(trunk_size=4 * 1024 * 1024)), MetricsRegistry())
    scale = 7
    edges = rmat_edges(scale, avg_degree=6.0, seed=11, dedup=True)
    edges = edges[edges[:, 0] != edges[:, 1]]
    builder = GraphBuilder(cloud, social_graph_schema())
    for node_id, name in enumerate(sample_names(1 << scale, seed=12)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges)
    graph = builder.finalize()
    topology = CsrTopology(graph)
    return SimpleNamespace(graph=graph, topology=topology, edges=edges,
                           ids=np.asarray(graph.node_ids[:40],
                                          dtype=np.int64))


def run_people_search(w):
    people_search(w.graph, 0, "David", hops=2, network=SimNetwork())


def run_tql(w):
    execute_tql(w.graph, "MATCH (a = 0) -[Friends*1..2]-> (b) RETURN b",
                network=SimNetwork())


def run_subgraph(w):
    labels = assign_labels(w.topology.n, num_labels=6, seed=3)
    query = generate_query_dfs(w.topology, labels, size=4, seed=2)
    match_subgraph(w.topology, labels, query, network=SimNetwork())


def run_landmarks(w):
    landmarks = select_landmarks(w.topology, 3, strategy="degree")
    evaluate_oracle(w.topology, landmarks, pairs=10, seed=2)


def run_finalize(w):
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4),
                        MetricsRegistry())
    builder = GraphBuilder(cloud, social_graph_schema())
    builder.add_edges(w.edges)
    builder.finalize()


def run_bsp(w):
    BspEngine(w.topology, network=network()).run(
        PageRankProgram(iterations=2))


def run_server(w):
    server = QueryServer(w.graph, ServeConfig(), registry=MetricsRegistry())
    server.submit(PeopleSearchQuery(0, "David", hops=2))
    server.run()


def run_verify_shadow(w):
    cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=2),
                        MetricsRegistry())
    cloud.bulk_put([1, 2, 3], [b"a", b"b", b"c"], presize=False)
    cloud.verify_shadow()


READ_BATCH = ("graph.api.read_batch",)
BSP = ("compute.bsp.values", "compute.bsp.accounting")
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
    pytest.param(run_finalize, ("graph.builder.finalize",),
                 id="GraphBuilder.finalize"),
    pytest.param(lambda w: w.graph.outlinks_batch(w.ids),
                 READ_BATCH, id="Graph.outlinks_batch"),
    pytest.param(lambda w: w.graph.inlinks_batch(w.ids),
                 READ_BATCH, id="Graph.inlinks_batch"),
    pytest.param(lambda w: w.graph.read_field_batch(w.ids, "Name"),
                 READ_BATCH, id="Graph.read_field_batch"),
    pytest.param(lambda w: w.graph.field_eq_batch(w.ids, "Name", "David"),
                 READ_BATCH, id="Graph.field_eq_batch"),
    pytest.param(lambda w: w.graph.degree_batch(w.ids),
                 READ_BATCH, id="Graph.degree_batch"),
    pytest.param(run_bsp, BSP, id="BspEngine.run"),
    pytest.param(lambda w: pagerank(w.topology, iterations=2,
                                    network=network()),
                 BSP, id="pagerank"),
    pytest.param(lambda w: bfs(w.topology, 0, network=network()),
                 BSP, id="bfs"),
    pytest.param(lambda w: sssp(w.topology, 0, network=network()),
                 BSP, id="sssp"),
    pytest.param(lambda w: wcc(w.topology, network=network()),
                 BSP, id="wcc"),
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
    with checking():
        run(world)
    stalled = [where for where in sites if checks(where) == before[where]]
    assert not stalled, f"no oracle.checks movement at {stalled}"


def test_count_triangles_checks_its_sends_in_scope(world, monkeypatch):
    """Triangle counting has no combiner, so it runs the per-vertex path
    only and has no fast path to compare; what the scope reaches there
    is the engine's check that a restrictive program sends to
    out-neighbors only."""
    sends = []
    check = BspEngine._check_restrictive
    monkeypatch.setattr(BspEngine, "_check_restrictive",
                        lambda engine, src, dst: (sends.append(src),
                                                  check(engine, src, dst)))
    topology = world.topology
    expected = count_triangles(topology, network=network()).count
    assert not sends
    with checking():
        assert count_triangles(topology, network=network()).count == expected
    assert sends


@pytest.mark.parametrize("run", [
    pytest.param(lambda w: people_search(w.graph, 0, "David", hops=2),
                 id="people_search"),
    pytest.param(lambda w: w.graph.outlinks_batch(w.ids),
                 id="Graph.outlinks_batch"),
    pytest.param(lambda w: pagerank(w.topology, iterations=2,
                                    network=network()), id="pagerank"),
])
def test_no_scope_no_checks(world, run):
    before = checks_total()
    run(world)
    assert checks_total() == before


def test_the_two_constructor_switches_check_their_own_sites_only(world):
    """``ServeConfig(cross_check=True)`` and ``BspEngine(cross_check=True)``
    check without a scope, and only at their own sites: the scope is
    what reaches the library paths below them."""
    before = checks_by_where()
    server = QueryServer(world.graph, ServeConfig(cross_check=True),
                         registry=MetricsRegistry())
    server.submit(PeopleSearchQuery(0, "David", hops=2))
    server.run()
    assert moved_since(before) == {"serve.people_search": 1}
    before = checks_by_where()
    BspEngine(world.topology, network=network(),
              cross_check=True).run(PageRankProgram(iterations=2))
    assert moved_since(before) == {"compute.bsp.values": 1,
                                   "compute.bsp.accounting": 1}
