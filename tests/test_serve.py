"""Concurrent query serving: fusion, caching, admission, cross-checks.

The serving layer's contract is that its three optimizations — cross-
query frontier fusion, hub/result caching, admission control — change
*when work happens*, never *what the answers are*.  Every test that
serves queries does so checked (the ``checked`` fixture opens a
``repro.oracle.checking()`` scope), which shadow-replays each
completion (fused, cached, or inline) through the existing
one-at-a-time library path and raises
:class:`~repro.errors.DivergenceError` on any difference; the suite
runs across two machine counts and under interleaved mutations.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.algorithms.subgraph import generate_query_dfs
from repro.config import ClusterConfig
from repro.errors import CellNotFoundError, DivergenceError, QueryError
from repro.generators.names import sample_names
from repro.generators.rmat import rmat_edges
from repro.graph import GraphBuilder
from repro.graph.model import social_graph_schema
from repro.memcloud import MemoryCloud
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.serve import (
    BatchOp,
    EpochLruCache,
    FusedExecutor,
    LandmarkBfsQuery,
    PeopleSearchQuery,
    QueryServer,
    QueryTicket,
    ServeConfig,
    SubgraphServeQuery,
    TqlServeQuery,
    WeightedFairQueue,
)
from repro.utils.hashing import trunk_of

MACHINE_COUNTS = [2, 5]

FUSIBLE_TQL = ("MATCH (a = 0) -[Friends*1..3]-> (b {Name: 'David'}) "
               "RETURN b")
#: WHERE over the target variable now fuses; a condition on the *anchor*
#: variable still runs through the inline engine.
INLINE_TQL = ("MATCH (a = 0) -[Friends*1..2]-> (b) "
              "WHERE a.Name != 'David' RETURN b")
WHERE_TQL = ("MATCH (a = 0) -[Friends*1..2]-> (b) "
             "WHERE b.Name != 'David' RETURN b")
REVERSE_TQL = "MATCH (a = 0) <-[Friends*1..2]- (b) RETURN b"


def build_graph(machines, scale=8, seed=11, memory=None, directed=False):
    config = (ClusterConfig(machines=machines, trunk_bits=5)
              if memory is None else
              ClusterConfig(machines=machines, trunk_bits=5, memory=memory))
    cloud = MemoryCloud(config, MetricsRegistry())
    n = 1 << scale
    edges = rmat_edges(scale, avg_degree=6.0, seed=seed, dedup=True)
    edges = edges[edges[:, 0] != edges[:, 1]]
    builder = GraphBuilder(cloud, social_graph_schema(directed=directed))
    for node_id, name in enumerate(sample_names(n, seed=seed + 1)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges.tolist())
    return cloud, builder.finalize()


@pytest.fixture(scope="module", params=MACHINE_COUNTS)
def deployment(request):
    return build_graph(request.param)


def mixed_queries(server, count=12):
    """A deterministic mixed-class pool with repeats (cacheable)."""
    _topology, labels, _index = server.snapshot()
    del labels
    queries = []
    for i in range(count):
        which = i % 4
        if which == 0:
            queries.append(PeopleSearchQuery(i % 3, "David", hops=3))
        elif which == 1:
            queries.append(TqlServeQuery(FUSIBLE_TQL))
        elif which == 2:
            queries.append(LandmarkBfsQuery(5 + (i % 2), max_hops=4))
        else:
            topology, labels, _ = server.snapshot()
            queries.append(SubgraphServeQuery(
                generate_query_dfs(topology, labels, size=4, seed=i % 2)))
    return queries


class TestCrossCheckSuite:
    """Fused + cached results are identical to the sequential path."""

    @pytest.mark.usefixtures("checked")
    def test_mixed_classes_cross_checked(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, ServeConfig())
        tickets = [server.submit(q) for q in mixed_queries(server)]
        server.run()
        assert all(t.status == "done" for t in tickets)
        # Repeat submissions after completion must come from the result
        # cache — and still pass the same shadow replay.
        repeats = [server.submit(q) for q in mixed_queries(server)]
        server.run()
        assert all(t.status == "done" for t in repeats)
        assert any(t.cached for t in repeats)
        for first, again in zip(tickets, repeats):
            assert first.result == again.result

    @pytest.mark.usefixtures("checked")
    def test_one_at_a_time_baseline_same_answers(self, deployment):
        """The uncached ``max_in_flight=1`` server — the baseline every
        optimization is measured against — answers like the fused one;
        both replay each completion through the sequential oracle."""
        _, graph = deployment
        base = QueryServer(
            graph,
            ServeConfig(max_in_flight=1, result_cache=False,
                        hub_cache=False),
            registry=MetricsRegistry())
        opt = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        pool = [PeopleSearchQuery(0, "David"), TqlServeQuery(FUSIBLE_TQL),
                TqlServeQuery(INLINE_TQL), LandmarkBfsQuery(3)]
        pool += [PeopleSearchQuery(s, "David", hops=3)
                 for s in (1, 2, 3, 17)]
        base_tickets = [base.submit(q) for q in pool]
        opt_tickets = [opt.submit(q) for q in pool]
        base.run()
        opt.run()
        for tb, to in zip(base_tickets, opt_tickets):
            assert tb.status == to.status == "done"
            assert tb.result == to.result

    @pytest.mark.usefixtures("checked")
    def test_interleaved_mutations_cross_checked(self, deployment):
        # Private graph copy: mutations must not leak into the shared
        # module fixture.
        _, shared = deployment
        _cloud, graph = build_graph(shared.cloud.config.machines, scale=7)
        server = QueryServer(graph, ServeConfig())
        rng = np.random.default_rng(5)
        results_before = {}
        for round_no in range(4):
            tickets = [server.submit(PeopleSearchQuery(s, "David", hops=3))
                       for s in (0, 1, 2, 0)]
            tickets.append(server.submit(TqlServeQuery(FUSIBLE_TQL)))
            tickets.append(server.submit(LandmarkBfsQuery(2, max_hops=3)))
            server.run()
            assert all(t.status == "done" for t in tickets)
            if round_no:
                # The mutation changed reachable sets; cached pre-
                # mutation results must NOT have been replayed (the
                # cross-check above would have caught it; also verify
                # epoch invalidation fired).
                assert server.result_cache.invalidated > 0 or \
                    all(not t.cached for t in tickets)
            results_before[round_no] = [t.result for t in tickets]
            server.mutate(lambda g: g.add_edge(
                int(rng.choice(g.node_ids[:64])), max(g.node_ids) + 1))

    @pytest.mark.usefixtures("checked")
    def test_divergent_answer_is_never_published(self, deployment,
                                                 monkeypatch):
        """The oracle runs before anything is recorded: an answer that
        fails it is not on the ticket, not counted, not cached."""
        _, graph = deployment
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        query = PeopleSearchQuery(0, "David", hops=2)
        monkeypatch.setattr(
            PeopleSearchQuery, "run_sequential",
            lambda self, ctx: {"matches": [-1], "visited": -1})
        ticket = server.submit(query)
        with pytest.raises(DivergenceError):
            server.run()
        assert ticket.status != "done" and ticket.result is None
        assert server.result_cache.get(
            query.key(), graph.cloud.epoch_vector()) is None
        assert len(server.result_cache) == 0
        completed = server.registry.snapshot().get("serve.completed")
        assert not completed or \
            sum(s["value"] for s in completed["series"]) == 0


class TestFusion:
    def test_fusion_reduces_batch_rounds(self, deployment):
        _, graph = deployment
        reg = MetricsRegistry()
        server = QueryServer(
            graph, ServeConfig(result_cache=False, hub_cache=False),
            registry=reg)
        for s in range(8):
            server.submit(PeopleSearchQuery(s, "David", hops=3))
        server.run()
        rounds = reg.counter("serve.fusion.batch_rounds").value
        # Unfused, every op would be its own bulk round.
        assert rounds < reg.counter("serve.fusion.ops").value
        # 8 concurrent 3-hop searches share two bulk reads per hop when
        # fused (one outlinks round, one name-check round).
        assert rounds <= 2 * 3 + 2

    def test_window_determinism(self, deployment):
        _, graph = deployment
        outputs = []
        for _attempt in range(2):
            server = QueryServer(
                graph, ServeConfig(result_cache=False, hub_cache=False),
                registry=MetricsRegistry())
            tickets = [server.submit(q) for q in mixed_queries(server)]
            server.run()
            outputs.append([t.result for t in tickets])
        assert outputs[0] == outputs[1]

    def test_batch_op_validation(self):
        with pytest.raises(QueryError):
            BatchOp("no_such_kind", np.asarray([1], dtype=np.int64))


class TestCaches:
    @pytest.mark.usefixtures("checked")
    def test_result_cache_hits_and_epoch_invalidation(self, deployment):
        _, graph = deployment
        reg = MetricsRegistry()
        server = QueryServer(graph, ServeConfig(), registry=reg)
        q = PeopleSearchQuery(0, "David", hops=3)
        t1 = server.submit(q)
        server.run()
        t2 = server.submit(PeopleSearchQuery(0, "David", hops=3))
        server.run()
        assert not t1.cached and t2.cached
        assert t1.result == t2.result
        assert server.result_cache.hits == 1
        # A mutation through the barrier invalidates the cached entry.
        server.mutate(lambda g: g.add_edge(0, max(g.node_ids) + 1))
        t3 = server.submit(PeopleSearchQuery(0, "David", hops=3))
        server.run()
        assert not t3.cached
        assert server.result_cache.invalidated >= 1

    @pytest.mark.usefixtures("checked")
    def test_hub_cache_serves_high_degree_vertices(self, deployment):
        _, graph = deployment
        reg = MetricsRegistry()
        server = QueryServer(
            graph,
            ServeConfig(result_cache=False, hub_degree_threshold=8),
            registry=reg)
        for _round in range(2):
            for s in (0, 1, 2):
                server.submit(PeopleSearchQuery(s, "David", hops=3))
            server.run()
        hub = server.executor.hub_cache
        assert hub.hits > 0
        assert len(hub) > 0
        # Every cached adjacency must match the live cells right now,
        # and each entry must be stamped with exactly the one trunk
        # that owns its vertex.
        epochs = graph.cloud.epoch_vector()
        for (kind, uid), (_stamp, row) in list(hub._entries.items()):
            assert kind == "outlinks"
            owner = int(graph.cloud.trunks_of_array([uid])[0])
            assert hub.footprint_of((kind, uid)) == {owner}
            assert hub.get((kind, uid), epochs) is not None
            assert row.tolist() == graph.outlinks(int(uid))

    def test_lru_capacity_and_eviction(self):
        reg = MetricsRegistry()
        cache = EpochLruCache("t", capacity=2, registry=reg)
        epochs = (1,)
        cache.put("a", epochs, "A")
        cache.put("b", epochs, "B")
        cache.get("a", epochs)          # refresh a
        cache.put("c", epochs, "C")     # evicts b
        assert cache.get("b", epochs) is None
        assert cache.get("a", epochs) == "A"
        assert cache.get("c", epochs) == "C"
        assert reg.counter("serve.cache.evicted", cache="t").value == 1

    def test_lru_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            EpochLruCache("t", capacity=0, registry=MetricsRegistry())

    def test_adjacency_same_with_and_without_hub_cache(self, deployment):
        """One window holding repeated ids, cached hubs, plain misses and
        hubs seen for the first time builds the CSR the uncached executor
        builds."""
        _, graph = deployment
        degrees = graph.degree_batch(np.arange(256))
        hubs = np.flatnonzero(degrees >= 8)
        leaves = np.flatnonzero(degrees < 8)
        assert len(hubs) >= 4 and len(leaves) >= 4
        config = ServeConfig(result_cache=False, hub_degree_threshold=8)
        cached = QueryServer(graph, config,
                             registry=MetricsRegistry()).executor
        plain = QueryServer(
            graph, ServeConfig(result_cache=False, hub_cache=False),
            registry=MetricsRegistry()).executor
        assert plain.hub_cache is None
        epochs = graph.cloud.epoch_vector()
        cached._adjacency(hubs[:2], "outlinks", epochs)   # fills two hubs
        assert len(cached.hub_cache) == 2
        window = np.concatenate([hubs[:4], leaves[:4], hubs[1:3],
                                 leaves[2:4], hubs[:1]])
        hits_before = cached.hub_cache.hits
        for _ in range(2):   # second pass: all four hubs hit
            indptr, flat = cached._adjacency(window, "outlinks", epochs)
            expected_indptr, expected_flat = plain._adjacency(
                window, "outlinks", epochs)
            assert indptr.tolist() == expected_indptr.tolist()
            assert flat.tolist() == expected_flat.tolist()
        assert len(cached.hub_cache) == 4
        assert cached.hub_cache.hits - hits_before == 2 + 4
        # lookups are per distinct id, as the per-id loop counted them
        assert (cached.hub_cache.hits + cached.hub_cache.misses
                == 2 + 2 * len(np.unique(window)))


class HubCacheMachine(RuleBasedStateMachine):
    """``EpochLruCache`` against a twin that is only ever driven one
    ``get`` at a time: the member index always lists exactly the keys
    held, and the batched ``get_many`` — over entries stamped with one
    trunk, several, none or the whole vector, some gone stale, and
    windows with repeated and absent ids — leaves hits, values,
    entries, LRU order and every counter where the per-id loop leaves
    them."""

    KINDS = ("outlinks", "inlinks")
    UIDS = st.integers(0, 11)
    TRUNKS = 3
    FOOTPRINTS = st.one_of(
        st.none(), st.tuples(st.integers(0, TRUNKS - 1)),
        st.lists(st.integers(0, TRUNKS - 1), max_size=3))

    def __init__(self):
        super().__init__()
        self.cache = EpochLruCache("m", capacity=5,
                                   registry=MetricsRegistry())
        self.twin = EpochLruCache("m", capacity=5,
                                  registry=MetricsRegistry())
        self.epochs = (0,) * self.TRUNKS

    @rule(kind=st.sampled_from(KINDS), uid=UIDS, footprint=FOOTPRINTS)
    def put(self, kind, uid, footprint):
        for cache in (self.cache, self.twin):
            cache.put((kind, uid), self.epochs, (kind, uid, self.epochs),
                      footprint=footprint)

    @rule(kind=st.sampled_from(KINDS), uid=UIDS)
    def get(self, kind, uid):
        assert (self.cache.get((kind, uid), self.epochs)
                == self.twin.get((kind, uid), self.epochs))

    @rule(kind=st.sampled_from(KINDS),
          uids=st.lists(st.integers(-2, 14), max_size=12))
    def get_many(self, kind, uids):
        uids = np.array(uids, dtype=np.int64)
        hits, values = self.cache.get_many(kind, uids, self.epochs)
        looped = [self.twin.get((kind, int(uid)), self.epochs)
                  for uid in uids]
        assert hits == [j for j, value in enumerate(looped)
                        if value is not None]
        assert values == [value for value in looped if value is not None]

    @rule(trunk=st.integers(0, TRUNKS - 1))
    def bump_epoch(self, trunk):
        epochs = list(self.epochs)
        epochs[trunk] += 1
        self.epochs = tuple(epochs)

    @rule()
    def clear(self):
        self.cache.clear()
        self.twin.clear()

    @invariant()
    def member_index_lists_the_keys_held(self):
        for kind in self.KINDS:
            assert self.cache.members(kind).tolist() == sorted(
                key[1] for key in self.cache._entries if key[0] == kind)

    @invariant()
    def same_state_as_the_per_id_twin(self):
        def state(cache):
            return [(key, recorded, value, cache.footprint_of(key))
                    for key, ((_getter, recorded, _trunks), value)
                    in cache._entries.items()]
        assert list(self.cache._entries) == list(self.twin._entries)
        assert state(self.cache) == state(self.twin)
        for counter in ("hits", "misses", "invalidated", "cleared"):
            assert getattr(self.cache, counter) == getattr(self.twin, counter)
        assert (self.cache._m_evicted.value == self.twin._m_evicted.value)


TestHubCacheMachine = HubCacheMachine.TestCase
TestHubCacheMachine.settings = settings(max_examples=60,
                                        stateful_step_count=40,
                                        deadline=None)


class RaisingQuery(PeopleSearchQuery):
    """A plan that raises ``error`` at admission (its first step) or in
    a window (after its first fused read)."""

    cls_name = "raising"

    def __init__(self, error: Exception, step: str):
        super().__init__(0, "David")
        self.error = error
        self.step = step

    def key(self) -> tuple:
        return (self.cls_name, self.step)

    def plan(self, ctx):
        if self.step == "window":
            yield BatchOp("outlinks", [self.start])
        raise self.error


class BadOpQuery(PeopleSearchQuery):
    """A plan whose one read raises inside the fused executor."""

    cls_name = "bad_op"

    def __init__(self, op: BatchOp):
        super().__init__(0, "David")
        self.op = op

    def key(self) -> tuple:
        return (self.cls_name, self.op.kind, self.op.field,
                tuple(self.op.ids.tolist()))

    def plan(self, ctx):
        yield self.op
        return None


class TestAdmission:
    def test_queue_full_rejection(self, deployment):
        _, graph = deployment
        server = QueryServer(
            graph, ServeConfig(queue_limit=3, result_cache=False),
            registry=MetricsRegistry())
        tickets = [server.submit(PeopleSearchQuery(s, "David"))
                   for s in range(5)]
        rejected = [t for t in tickets if t.status == "rejected"]
        assert len(rejected) == 2
        assert all(t.reject_reason == "queue_full" for t in rejected)
        server.run()
        assert sum(t.status == "done" for t in tickets) == 3

    def test_deadline_rejection(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, ServeConfig(result_cache=False),
                             registry=MetricsRegistry())
        doomed = server.submit(PeopleSearchQuery(0, "David"),
                               deadline=-1.0)  # expired on arrival
        alive = server.submit(PeopleSearchQuery(1, "David"),
                              deadline=3600.0)
        server.run()
        assert doomed.status == "rejected"
        assert doomed.reject_reason == "deadline"
        assert alive.status == "done"

    @pytest.mark.parametrize("step", ["admission", "window"])
    @pytest.mark.usefixtures("checked")
    def test_a_raising_plan_fails_only_its_own_ticket(self, deployment,
                                                      step):
        """A plan that raises — on its first step, at admission, or
        after a fused read in mid-window — ends its own ticket as
        ``failed`` with the exception; ``run()`` returns, and every
        other ticket in flight with it is done with the sequential
        answer."""
        _, graph = deployment
        registry = MetricsRegistry()
        server = QueryServer(graph, ServeConfig(), registry=registry)
        queries = mixed_queries(server, count=7)
        bug = ValueError("a plan bug")
        raiser = RaisingQuery(bug, step)
        tickets = [server.submit(q) for q in queries[:3]]
        failed = server.submit(raiser)
        tickets += [server.submit(q) for q in queries[3:]]
        server.run()
        assert [t.status for t in tickets] == ["done"] * 7
        assert [t.result for t in tickets] == [
            q.run_sequential(server) for q in queries]
        assert failed.status == "failed"
        assert failed.error is bug and failed.result is None
        assert failed.latency > 0
        assert registry.counter("serve.failed", cls="raising").value == 1
        report = server.report()
        assert report.classes.keys() == {q.cls_name for q in queries}
        assert report.admission["failed"] == 1
        assert "failed=1" in report.render()

    @pytest.mark.usefixtures("checked")
    def test_a_raising_fused_read_fails_only_its_own_ops(self, deployment):
        """A read that raises inside a fused group — an unknown field,
        an id that names no cell — fails the tickets whose ops raise;
        the ops it was fused with are rerun one at a time and answer
        as sequential execution does, and ``run()`` returns."""
        _, graph = deployment
        registry = MetricsRegistry()
        server = QueryServer(graph, ServeConfig(), registry=registry)
        queries = mixed_queries(server, count=8)
        missing = max(graph.node_ids) + 1000
        bad_field = BadOpQuery(BatchOp("field_eq", [0, 1],
                                       field="NoSuchField", value="David"))
        # Fuses with the people searches' and the BFSes' first hop.
        bad_id = BadOpQuery(BatchOp("outlinks", [1, missing]))
        tickets = [server.submit(q) for q in queries[:4]]
        failed = [server.submit(bad_field), server.submit(bad_id)]
        tickets += [server.submit(q) for q in queries[4:]]
        server.run()
        assert [t.status for t in tickets] == ["done"] * len(queries)
        assert [t.result for t in tickets] == [
            q.run_sequential(server) for q in queries]
        assert [t.status for t in failed] == ["failed", "failed"]
        assert isinstance(failed[0].error, QueryError)
        assert isinstance(failed[1].error, CellNotFoundError)
        assert all(t.result is None and t.latency > 0 for t in failed)
        assert registry.counter("serve.failed", cls="bad_op").value == 2
        assert server.report().admission["failed"] == 2

    def test_the_oracle_still_stops_the_run(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, registry=MetricsRegistry())
        server.submit(RaisingQuery(DivergenceError("replay"), "window"))
        with pytest.raises(DivergenceError):
            server.run()

    @pytest.mark.parametrize("knob,value", [
        ("max_in_flight", 0),       # used to hang run(): nothing admitted
        ("queue_limit", 0),
        ("hub_cache_capacity", 0),  # used to surface as a bare ValueError
        ("result_cache_capacity", 0),
        ("class_queue_limit", 0),
        ("hub_degree_threshold", -1),
        ("default_deadline", 0.0),
        ("class_weights", {"vip": 0.0}),
    ])
    def test_config_validated_at_construction(self, knob, value):
        # Construction only: at a commit that accepts max_in_flight=0 this
        # fails with DID NOT RAISE instead of spinning in run().
        with pytest.raises(QueryError):
            ServeConfig(**{knob: value})

    def test_config_accepts_boundary_values(self):
        ServeConfig(max_in_flight=1, queue_limit=1, hub_cache_capacity=1,
                    result_cache_capacity=1, class_queue_limit=1,
                    hub_degree_threshold=0, default_deadline=1e-9,
                    class_weights={"vip": 0.5})

    def test_submit_type_checked(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, registry=MetricsRegistry())
        with pytest.raises(QueryError):
            server.submit("MATCH (a) RETURN a")

    def test_report_shape(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, registry=MetricsRegistry())
        for q in mixed_queries(server, count=8):
            server.submit(q)
        server.run()
        report = server.report()
        as_dict = report.to_dict()
        assert set(as_dict) == {"classes", "admission", "caches", "fusion",
                                "queues"}
        for summary in as_dict["classes"].values():
            assert set(summary) == {"count", "mean", "p50", "p99", "max"}
        assert as_dict["admission"]["submitted"] == 8
        for stats in as_dict["queues"].values():
            assert set(stats) == {"depth", "weight", "wait"}
            assert stats["depth"] == 0        # drained
        assert sum(q["wait"]["count"]
                   for q in as_dict["queues"].values()) == 8
        for stats in as_dict["caches"].values():
            assert "cleared" in stats
        text = report.render()
        assert "p99" in text and "admission:" in text and "queue" in text


class TestTqlFusibility:
    def test_fusible_shapes(self, deployment):
        _, graph = deployment
        for text in (
            FUSIBLE_TQL,
            WHERE_TQL,                      # WHERE residual on target
            REVERSE_TQL,                    # reverse (symmetric here)
            "MATCH (a = 0) -[Friends*1..2]-> (b) "
            "WHERE b.Name != b.Name RETURN b",      # var-vs-var residual
        ):
            assert TqlServeQuery(text).fusible(graph), text
        for text in (
            INLINE_TQL,                     # WHERE on the anchor var
            "MATCH (a = 0) -[Friends]-> (b) RETURN b LIMIT 5",  # LIMIT
            "MATCH (a) -[Friends]-> (b {Name: 'David'}) RETURN b",  # scan
            "MATCH (a = 0) -[Friends]-> (b) -[Friends]-> (c) "
            "RETURN c",                                       # chain of 3
            "MATCH (a = 0) -[Friends]-> (b) RETURN b.Name",   # projection
            "MATCH (a = 0) -[Friends*1..2]-> (a) RETURN a",   # rebound var
        ):
            assert not TqlServeQuery(text).fusible(graph), text

    def test_query_key_whitespace_normalized(self):
        compact = TqlServeQuery(FUSIBLE_TQL)
        spaced = TqlServeQuery(
            "  MATCH   (a = 0)\n\t-[Friends*1..3]->\n"
            "  (b {Name: 'David'})   RETURN  b ")
        assert compact.key() == spaced.key()
        assert compact.key() != TqlServeQuery(REVERSE_TQL).key()

    @pytest.mark.usefixtures("checked")
    def test_normalized_key_shares_cache_entry(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        first = server.submit(TqlServeQuery(FUSIBLE_TQL))
        server.run()
        again = server.submit(TqlServeQuery(
            "MATCH  (a = 0)  -[Friends*1..3]->  (b {Name: 'David'})  "
            "RETURN  b"))
        server.run()
        assert not first.cached and again.cached
        assert first.result == again.result

    @pytest.mark.usefixtures("checked")
    def test_inline_tql_still_served_and_checked(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        ticket = server.submit(TqlServeQuery(INLINE_TQL))
        server.run()
        assert ticket.status == "done"

    def test_missing_anchor_returns_empty(self, deployment):
        _, graph = deployment
        server = QueryServer(graph, registry=MetricsRegistry())
        ticket = server.submit(TqlServeQuery(
            "MATCH (a = 99999999) -[Friends*1..2]-> (b {Name: 'David'}) "
            "RETURN b"))
        server.run()
        assert ticket.status == "done"
        assert ticket.result == []


class TestStorageTiers:
    """Serve windows on a paged cloud, identical to resident serving.

    The paged deployment's page budget is smaller than the graph, so
    fused windows constantly fault and evict; a checked server
    shadow-replays every completion through the sequential library
    path, proving the storage tier never changes an answer.
    """

    @pytest.fixture(scope="class", params=["resident", "paged"])
    def tier_deployment(self, request):
        from repro.config import MemoryParams
        memory = MemoryParams(trunk_size=256 * 1024,
                              storage=request.param,
                              page_size=512, page_budget=2)
        cloud, graph = build_graph(machines=2, memory=memory)
        yield request.param, cloud, graph
        cloud.release_arenas()

    @pytest.mark.usefixtures("checked")
    def test_mixed_window_cross_checked(self, tier_deployment):
        _, _, graph = tier_deployment
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        tickets = [server.submit(q) for q in mixed_queries(server)]
        server.run()
        assert all(t.status == "done" for t in tickets)

    @pytest.mark.usefixtures("checked")
    def test_paged_and_resident_results_identical(self, tier_deployment):
        storage, _, graph = tier_deployment
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        tickets = [server.submit(PeopleSearchQuery(s, "David", hops=3))
                   for s in (0, 1, 2)]
        server.run()
        results = [t.result for t in tickets]
        # Same graph, same queries: the answers must not depend on the
        # storage tier at all, so pin them against the library path.
        from repro.algorithms.people_search import people_search
        from repro.net.simnet import SimNetwork
        for seed, result in zip((0, 1, 2), results):
            expected = people_search(graph, seed, "David", hops=3,
                                     network=SimNetwork())
            assert result == {"matches": sorted(expected.matches),
                              "visited": expected.visited}

    @pytest.mark.usefixtures("checked")
    def test_mutation_barrier_on_paged_cloud(self, tier_deployment):
        storage, cloud, graph = tier_deployment
        if storage != "paged":
            pytest.skip("exercises the paged tier")
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        before = server.submit(PeopleSearchQuery(0, "David", hops=2))
        server.run()
        epoch_before = cloud.mutation_epoch()
        server.mutate(lambda g: g.add_edge(int(g.node_ids[0]),
                                           int(g.node_ids[-1])))
        assert cloud.mutation_epoch() > epoch_before
        after = server.submit(PeopleSearchQuery(0, "David", hops=1))
        server.run()
        assert before.status == after.status == "done"


class TestWeightedFairQueue:
    """Deterministic WFQ order, per-class bounds, deadline shedding."""

    @staticmethod
    def _ticket(cls, deadline=None, submitted_at=0.0):
        return QueryTicket(query=PeopleSearchQuery(0, "x"), priority=cls,
                           deadline=deadline, submitted_at=submitted_at)

    def test_weighted_dequeue_order(self):
        wfq = WeightedFairQueue({"gold": 2.0, "bronze": 1.0},
                                registry=MetricsRegistry())
        for _ in range(4):
            wfq.push(self._ticket("gold"))
        for _ in range(4):
            wfq.push(self._ticket("bronze"))
        drained = [wfq.pop().priority for _ in range(8)]
        # Finish tags: gold 0.5,1.0,1.5,2.0; bronze 1,2,3,4 — under
        # contention gold drains twice as fast, ties break by seq.
        assert drained == ["gold", "gold", "bronze", "gold", "gold",
                           "bronze", "bronze", "bronze"]
        assert wfq.pop() is None

    def test_equal_weights_round_robin(self):
        wfq = WeightedFairQueue(registry=MetricsRegistry())
        for cls in ["a", "b", "a", "c", "b"]:
            wfq.push(self._ticket(cls))
        # Equal weights: same finish-tag spacing per class, so classes
        # interleave round-robin (ties broken by arrival seq), and no
        # class starves behind a burst of another.
        assert [wfq.pop().priority for _ in range(5)] == \
            ["a", "b", "c", "a", "b"]

    def test_single_class_is_fifo(self):
        wfq = WeightedFairQueue(registry=MetricsRegistry())
        tickets = [self._ticket("a") for _ in range(5)]
        for t in tickets:
            wfq.push(t)
        assert [wfq.pop() for _ in range(5)] == tickets

    def test_idle_class_banks_no_credit(self):
        wfq = WeightedFairQueue({"slow": 1.0, "fast": 4.0},
                                registry=MetricsRegistry())
        for _ in range(3):
            wfq.push(self._ticket("slow"))
        for _ in range(3):
            assert wfq.pop().priority == "slow"
        # fast was idle the whole time; its first tag starts at the
        # current virtual time, not at zero.
        wfq.push(self._ticket("slow"))
        wfq.push(self._ticket("fast"))
        assert wfq.pop().priority == "fast"

    def test_shed_expired(self):
        wfq = WeightedFairQueue(registry=MetricsRegistry())
        dead = self._ticket("a", deadline=1.0, submitted_at=0.0)
        alive = self._ticket("a", deadline=100.0, submitted_at=0.0)
        wfq.push(dead)
        wfq.push(alive)
        shed = wfq.shed_expired(now=5.0)
        assert shed == [dead]
        assert len(wfq) == 1 and wfq.pop() is alive

    def test_rejects_bad_weight(self):
        with pytest.raises(QueryError):
            WeightedFairQueue({"a": 0.0}, registry=MetricsRegistry())

    def test_per_class_queue_limit(self, deployment):
        _, graph = deployment
        server = QueryServer(
            graph,
            ServeConfig(class_queue_limit=2, result_cache=False),
            registry=MetricsRegistry())
        bulk = [server.submit(PeopleSearchQuery(s, "David"), priority="bulk")
                for s in range(4)]
        vip = server.submit(PeopleSearchQuery(9, "David"), priority="vip")
        assert [t.status for t in bulk] == ["queued", "queued",
                                            "rejected", "rejected"]
        assert all(t.reject_reason == "queue_full"
                   for t in bulk if t.status == "rejected")
        assert vip.status == "queued"      # its own class, its own bound
        server.run()
        assert vip.status == "done"

    def test_full_queue_sheds_expired_before_rejecting(self, deployment):
        _, graph = deployment
        server = QueryServer(
            graph, ServeConfig(queue_limit=2, result_cache=False),
            registry=MetricsRegistry())
        doomed = [server.submit(PeopleSearchQuery(s, "David"),
                                deadline=-1.0) for s in range(2)]
        fresh = server.submit(PeopleSearchQuery(5, "David"),
                              deadline=3600.0)
        # The expired entries were shed to make room, not the new one.
        assert all(t.status == "rejected" and t.reject_reason == "deadline"
                   for t in doomed)
        assert fresh.status == "queued"
        server.run()
        assert fresh.status == "done"

    @pytest.mark.usefixtures("checked")
    def test_wfq_priorities_change_completion_order_not_results(
            self, deployment):
        _, graph = deployment
        weighted = QueryServer(
            graph,
            ServeConfig(max_in_flight=1,
                        class_weights={"vip": 8.0, "bulk": 1.0}),
            registry=MetricsRegistry())
        bulk = [weighted.submit(PeopleSearchQuery(s, "David", hops=2),
                                priority="bulk") for s in range(4)]
        vip = [weighted.submit(PeopleSearchQuery(s, "David", hops=2),
                               priority="vip") for s in range(4, 6)]
        weighted.run()
        assert all(t.status == "done" for t in bulk + vip)
        # With max_in_flight=1 completion order follows dequeue order:
        # every vip finishes before the last bulk.
        last_vip = max(t.finished_at for t in vip)
        assert sum(t.finished_at > last_vip for t in bulk) >= 2


class TestNewFusedShapes:
    """Reverse-edge chains and WHERE residuals ride the fusion window
    (not the inline fallback) on both storage tiers."""

    @pytest.fixture(scope="class", params=["resident", "paged"])
    def directed_tier(self, request):
        from repro.config import MemoryParams
        memory = (None if request.param == "resident" else
                  MemoryParams(trunk_size=256 * 1024, storage="paged",
                               page_size=512, page_budget=2))
        cloud, graph = build_graph(machines=2, scale=7, memory=memory,
                                   directed=True)
        yield request.param, cloud, graph
        cloud.release_arenas()

    def _served_fused(self, graph, text):
        reg = MetricsRegistry()
        server = QueryServer(graph, ServeConfig(), registry=reg)
        assert TqlServeQuery(text).fusible(graph), text
        ticket = server.submit(TqlServeQuery(text))
        with checking():
            server.run()
        assert ticket.status == "done"
        # Inline fallbacks complete on their first step, before any
        # fusion window has run an op for them.
        assert ticket.windows >= 1
        assert reg.counter("serve.fusion.ops").value >= 1
        return ticket

    def test_reverse_chain_fused(self, directed_tier):
        _, _, graph = directed_tier
        ticket = self._served_fused(
            graph, "MATCH (a = 1) <-[Friends*1..2]- (b) RETURN b")
        # Reverse = the in-lists: cross-checked above, and non-trivial
        # on this RMAT graph for a hub-ish anchor.
        assert isinstance(ticket.result, list)

    def test_forward_in_field_chain_fused(self, directed_tier):
        _, _, graph = directed_tier
        self._served_fused(
            graph, "MATCH (a = 1) -[FriendOf*1..2]-> (b) RETURN b")

    def test_reverse_of_in_field_fused(self, directed_tier):
        _, _, graph = directed_tier
        self._served_fused(
            graph, "MATCH (a = 1) <-[FriendOf*1..2]- (b) RETURN b")

    def test_where_residual_fused(self, directed_tier):
        _, _, graph = directed_tier
        ticket = self._served_fused(
            graph,
            "MATCH (a = 1) -[Friends*1..2]-> (b) "
            "WHERE b.Name != 'David' RETURN b")
        assert isinstance(ticket.result, list)

    def test_where_residual_with_filter_fused(self, directed_tier):
        _, _, graph = directed_tier
        self._served_fused(
            graph,
            "MATCH (a = 1) -[Friends*1..3]-> (b {Name: 'David'}) "
            "WHERE b.Name >= 'D' RETURN b")

    @pytest.mark.usefixtures("checked")
    def test_undirected_reverse_fused(self, deployment):
        _, graph = deployment
        reg = MetricsRegistry()
        server = QueryServer(graph, ServeConfig(), registry=reg)
        ticket = server.submit(TqlServeQuery(REVERSE_TQL))
        server.run()
        assert ticket.status == "done" and ticket.windows >= 1


@pytest.mark.usefixtures("checked")
class TestServedWhereResiduals:
    """WHERE residuals on the target node run on the per-row loop over a
    ``field_read`` column, with the inline engine's operators: the
    served rows, and the served errors, are the inline engine's."""

    TEXT = "MATCH (a = 1) -[Friends*1..2]-> (b) WHERE {} RETURN b"

    @staticmethod
    def _drive(graph, query):
        """Step ``query``'s plan alone, running each op on ``graph``:
        ``(result, kinds of the ops it yielded)``."""
        plan = query.plan(SimpleNamespace(graph=graph))
        kinds, answer = [], None
        while True:
            try:
                op = plan.send(answer)
            except StopIteration as done:
                return done.value, kinds
            kinds.append(op.kind)
            if op.kind == "outlinks":
                answer = graph.outlinks_batch(op.ids)
            elif op.kind == "field_eq":
                answer = graph.field_eq_batch(op.ids, op.field, op.value)
            else:
                answer = graph.read_field_batch(op.ids, op.field)

    @pytest.mark.parametrize("condition", [
        "b.Name = '{name}'",
        "'{name}' != b.Name",
        "b.Name = 'Nobody Has This Name'",
        "b.Name != 5",
        "b.Name >= 'D'",
    ])
    def test_residual_matches_the_engine(self, deployment, condition):
        _, graph = deployment
        name = graph.read_field(graph.outlinks(1)[0], "Name")
        query = TqlServeQuery(self.TEXT.format(condition.format(name=name)))
        expected = query.run_sequential(SimpleNamespace(graph=graph))
        result, kinds = self._drive(graph, query)
        assert result == expected
        assert "field_read" in kinds and "field_eq" not in kinds
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        ticket = server.submit(query)
        server.run()
        assert ticket.status == "done" and ticket.result == expected
        if "Nobody" in condition:
            assert expected == []
        elif condition.startswith("b.Name ="):
            assert expected        # the anchor's first friend at least

    def test_a_name_that_is_not_utf8_fails_as_the_engine_does(self):
        """``b.Name != 'x'`` over a stored name that does not decode
        raises the engine's error; it does not silently keep the row."""
        cloud, graph = build_graph(2, scale=5)
        victim = int(graph.outlinks(1)[0])
        friends = graph.graph_schema.node_type.field_type("Friends")
        cloud.put(victim, b"\x03\xffab"
                  + friends.encode(graph.outlinks(victim)))
        query = TqlServeQuery(self.TEXT.format("b.Name != 'x'"))
        with pytest.raises(UnicodeDecodeError):
            query.run_sequential(SimpleNamespace(graph=graph))
        with pytest.raises(UnicodeDecodeError):
            self._drive(graph, query)
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        ticket = server.submit(query)
        server.run()
        assert ticket.status == "failed"
        assert isinstance(ticket.error, UnicodeDecodeError)


@pytest.mark.usefixtures("checked")
class TestEpochVectorInvalidation:
    """Per-trunk footprints: writes only kill entries that read the
    written trunk."""

    def _fresh(self, scale=7):
        _cloud, graph = build_graph(machines=2, scale=scale)
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        return graph, server

    @staticmethod
    def _trunk_of(graph, node):
        return int(graph.cloud.trunks_of_array([int(node)])[0])

    def test_result_survives_unrelated_trunk_write(self):
        graph, server = self._fresh()
        anchor = 0
        ticket = server.submit(LandmarkBfsQuery(anchor, max_hops=1))
        server.run()
        footprint = server.result_cache.footprint_of(ticket.query.key())
        assert footprint  # a fused plan records where it read
        # Mutate two nodes whose trunks are outside the footprint.
        outside = [n for n in map(int, graph.node_ids[:256])
                   if self._trunk_of(graph, n) not in footprint]
        assert len(outside) >= 2, "need >=2 trunks in play"
        server.mutate(lambda g: g.add_edge(outside[0], outside[1]))
        again = server.submit(LandmarkBfsQuery(anchor, max_hops=1))
        server.run()
        assert again.cached
        assert again.result == ticket.result

    def test_result_dies_on_footprint_trunk_write(self):
        graph, server = self._fresh()
        anchor = 0
        ticket = server.submit(LandmarkBfsQuery(anchor, max_hops=1))
        server.run()
        assert not ticket.cached
        # Write to the anchor's own trunk — inside every 1-hop footprint.
        server.mutate(lambda g: g.add_edge(anchor, max(g.node_ids) + 1))
        again = server.submit(LandmarkBfsQuery(anchor, max_hops=1))
        server.run()
        assert not again.cached
        assert server.result_cache.invalidated >= 1


class TestEpochVectorProperty:
    """Random interleaved mutations + cached reads across >= 2 trunks:
    no stale entry is ever served (the cross-check oracle proves it) and
    entries whose footprint excludes the mutated trunks survive."""

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.integers(0, 63)),
            st.tuples(st.just("write"), st.integers(0, 63)),
        ),
        min_size=4, max_size=16))
    @pytest.mark.usefixtures("checked")
    def test_interleaved_mutations_never_serve_stale(self, script):
        _cloud, graph = build_graph(machines=2, scale=6, seed=23)
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        # Model: key -> (footprint, epoch vector when the entry landed).
        model: dict = {}
        next_node = max(map(int, graph.node_ids)) + 1

        def trunks_in_play():
            return set(
                graph.cloud.trunks_of_array(graph.node_ids).tolist())

        assert len(trunks_in_play()) >= 2
        for action, node in script:
            node = int(graph.node_ids[node % len(graph.node_ids)])
            if action == "write":
                server.mutate(lambda g, n=node, m=next_node:
                              g.add_edge(n, m))
                next_node += 1
                continue
            query = LandmarkBfsQuery(node, max_hops=1)
            expected_cached = False
            remembered = model.get(query.key())
            if remembered is not None:
                footprint, then = remembered
                now_vector = graph.cloud.epoch_vector()
                expected_cached = all(now_vector[t] == then[t]
                                      for t in footprint)
            ticket = server.submit(query)
            server.run()            # checked: every answer is replayed
            assert ticket.status == "done"
            assert ticket.cached == expected_cached
            if not ticket.cached:
                assert ticket.trunks, "fused read must record trunks"
                model[query.key()] = (frozenset(ticket.trunks),
                                      graph.cloud.epoch_vector())


class TestHugeIds:
    """Node ids past any dense visited mask (2**52 on): the served plans
    take the tracker's sorted representation and still answer like the
    sequential path."""

    @pytest.mark.usefixtures("checked")
    def test_served_plans_on_sparse_huge_ids(self):
        cloud = MemoryCloud(ClusterConfig(machines=3, trunk_bits=5),
                            MetricsRegistry())
        base = 2**52
        ids = [base + 17 * k for k in range(40)]
        names = sample_names(len(ids), seed=9)
        builder = GraphBuilder(cloud, social_graph_schema())
        for node_id, name in zip(ids, names):
            builder.add_node(node_id, Name=name)
        rng = np.random.default_rng(4)
        builder.add_edges(sorted({
            (ids[int(a)], ids[int(b)])
            for a, b in rng.integers(0, len(ids), size=(160, 2)) if a != b}))
        graph = builder.finalize()
        reach = TqlServeQuery(f"MATCH (a = {ids[0]}) -[Friends*1..3]-> "
                              f"(b {{Name: '{names[7]}'}}) RETURN b")
        assert reach.fusible(graph)
        server = QueryServer(graph, ServeConfig(), registry=MetricsRegistry())
        tickets = [server.submit(query) for query in (
            PeopleSearchQuery(ids[0], names[7], hops=3),
            LandmarkBfsQuery(ids[0], max_hops=4), reach)]
        server.run()
        for ticket in tickets:
            assert ticket.status == "done" and ticket.windows >= 1
            assert ticket.result == ticket.query.run_sequential(server)
        assert tickets[0].result["visited"] > 0
        assert tickets[2].result


class TestFootprints:
    """``run_window`` reports each op's trunk footprint: exactly the
    trunks owning the ids it read, whatever the window mixes."""

    @pytest.mark.parametrize("trunk_bits", [4, 9])
    def test_footprint_is_the_trunks_of_the_op_ids(self, trunk_bits):
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=trunk_bits),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, social_graph_schema())
        for node_id, name in enumerate(sample_names(256, seed=3)):
            builder.add_node(node_id, Name=name)
        edges = rmat_edges(8, avg_degree=4.0, seed=5, dedup=True)
        builder.add_edges(edges[edges[:, 0] != edges[:, 1]].tolist())
        graph = builder.finalize()
        rng = np.random.default_rng(trunk_bits)
        ops = [BatchOp("outlinks", rng.integers(0, 256, size)) for size in
               (1, 40, 200)]
        ops += [BatchOp("field_eq", np.empty(0, np.int64), field="Name",
                        value="David"),
                BatchOp("outlinks", np.arange(0, 256, 7)),
                BatchOp("field_eq", rng.integers(0, 256, 30), field="Name",
                        value="David"),
                BatchOp("field_read", np.asarray([5, 5, 250]),
                        field="Name")]
        executor = FusedExecutor(graph, registry=MetricsRegistry())
        results, foots = executor.run_window(ops, cloud.epoch_vector())
        assert len(results) == len(foots) == len(ops)
        # Each footprint is a bool row over the cloud's trunks.
        assert all(foot.shape == (1 << trunk_bits,) for foot in foots)
        foots = [frozenset(np.flatnonzero(foot).tolist()) for foot in foots]
        assert foots[3] == frozenset()
        assert max(len(foot) for foot in foots) > 1
        for op, foot in zip(ops, foots):
            assert foot == frozenset(
                trunk_of(int(uid), trunk_bits) for uid in op.ids)
