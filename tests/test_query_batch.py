"""Equivalence tests for the batched online-traversal path.

Every batched query surface — the Graph ``*_batch`` reads, people
search, TQL multi-hop expansion, subgraph candidate prefiltering, and
the landmark-oracle BFS — must agree with its scalar twin on seeded
R-MAT graphs, across at least two machine counts, checked
(``repro.oracle.checking``) so that the scalar path is shadow-replayed
inside the batched one.  The scalar twins are private references, not
modes: where a test wants the reference *object*, it calls the module's
private scalar function.
"""

import numpy as np
import pytest

from repro.algorithms.landmarks import (
    _bfs_distances_scalar,
    _pair_distance_scalar,
    evaluate_oracle,
    select_landmarks,
)
from repro.algorithms.people_search import (
    _people_search_scalar,
    people_search,
)
from repro.algorithms.subgraph import (
    LabelIndex,
    assign_labels,
    generate_query_dfs,
    generate_query_random,
    match_subgraph,
)
from repro.config import ClusterConfig, MemoryParams
from repro.errors import CellNotFoundError, QueryError
from repro.generators.names import sample_names
from repro.generators.rmat import rmat_edges
from repro.graph import GraphBuilder
from repro.graph.csr import CsrTopology
from repro.graph.model import social_graph_schema
from repro.memcloud import MemoryCloud
from repro.net.simnet import SimNetwork
from repro.obs import MetricsRegistry
from repro.oracle import checking
from repro.tql.engine import _execute, execute_tql
from repro.tql.parser import parse_tql
from repro.tsl.layout import LAYOUT_DELTA_VARINT, LAYOUT_RAW

MACHINE_COUNTS = [2, 5]


def scalar_people_search(graph, start, name, hops):
    """``people_search``'s private reference: one decode per node."""
    return _people_search_scalar(graph, start, name, hops, SimNetwork())


def scalar_tql(graph, tql):
    """``execute_tql``'s private reference: the engine, prefetch off."""
    return _execute(graph, parse_tql(tql), SimNetwork(), 10_000, False)


def build_rmat_named_graph(cloud, scale=8, avg_degree=6.0, seed=11):
    """A named friendship graph over an R-MAT edge set."""
    n = 1 << scale
    edges = rmat_edges(scale, avg_degree=avg_degree, seed=seed, dedup=True)
    edges = edges[edges[:, 0] != edges[:, 1]]
    builder = GraphBuilder(cloud, social_graph_schema())
    for node_id, name in enumerate(sample_names(n, seed=seed + 1)):
        builder.add_node(node_id, Name=name)
    builder.add_edges(edges.tolist())
    return builder.finalize()


@pytest.fixture(scope="module", params=MACHINE_COUNTS)
def deployment(request):
    machines = request.param
    cloud = MemoryCloud(ClusterConfig(machines=machines, trunk_bits=5),
                        MetricsRegistry())
    graph = build_rmat_named_graph(cloud)
    return cloud, graph


class TestGraphBatchSurface:
    def test_outlinks_batch_matches_scalar(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:300], dtype=np.int64)
        with checking():
            indptr, flat = graph.outlinks_batch(ids)
        assert len(indptr) == len(ids) + 1
        for i, node_id in enumerate(ids.tolist()):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == \
                graph.outlinks(node_id)

    def test_read_field_batch_attribute_column(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:200], dtype=np.int64)
        with checking():
            names = graph.read_field_batch(ids, "Name")
        assert names == [graph.attribute(int(i), "Name") for i in ids]

    def test_degree_batch_header_only(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids, dtype=np.int64)
        with checking():
            degrees = graph.degree_batch(ids)
        assert degrees.tolist() == [len(graph.outlinks(int(i)))
                                    for i in ids]

    def test_degree_scalar_header_decode(self, deployment):
        _, graph = deployment
        for node_id in graph.node_ids[:50]:
            assert graph.degree(node_id) == len(graph.outlinks(node_id))

    def test_num_edges_via_degree_batch(self, deployment):
        _, graph = deployment
        total = sum(len(graph.outlinks(v)) for v in graph.node_ids)
        assert graph.num_edges() == total // 2  # undirected schema

    def test_machine_of_batch(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:500], dtype=np.int64)
        owners = graph.machine_of_batch(ids)
        assert owners.tolist() == [graph.machine_of(int(i)) for i in ids]

    def test_batch_counters_move(self, deployment):
        cloud, graph = deployment
        before = cloud.obs.counter("query.batch.cells").value
        graph.outlinks_batch(np.asarray(graph.node_ids[:10],
                                        dtype=np.int64))
        assert cloud.obs.counter("query.batch.cells").value == before + 10

    def test_rejects_bad_shapes_and_fields(self, deployment):
        _, graph = deployment
        with pytest.raises(QueryError):
            graph.outlinks_batch(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(QueryError):
            graph.read_field_batch(np.asarray([0], dtype=np.int64),
                                   "NoSuchField")
        with pytest.raises(QueryError):
            # string column: no CSR decoding
            graph.read_field_csr(np.asarray([0], dtype=np.int64), "Name")


class TestNodesOnCache:
    def test_cache_hits_and_invalidation(self):
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4),
                            MetricsRegistry())
        graph = build_rmat_named_graph(cloud, scale=6)
        first = graph.nodes_on(0)
        assert graph.nodes_on(0) == first
        # Returned lists are copies: mutating one must not poison the cache.
        first.append(-1)
        assert -1 not in graph.nodes_on(0)
        new_id = max(graph.node_ids) + 1
        graph.add_node(new_id, Name="Zed")
        machine = graph.machine_of(new_id)
        assert new_id in graph.nodes_on(machine)
        peer = max(graph.node_ids) + 1
        graph.add_edge(new_id, peer)  # also invalidates (creates peer)
        assert peer in graph.nodes_on(graph.machine_of(peer))


class TestPeopleSearchBatch:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_batch_equals_scalar(self, deployment, hops):
        _, graph = deployment
        with checking():
            batched = people_search(graph, 0, "David", hops=hops,
                                    network=SimNetwork())
        scalar = scalar_people_search(graph, 0, "David", hops)
        assert batched.matches == scalar.matches
        assert batched.visited == scalar.visited
        assert batched.messages == scalar.messages
        assert batched.hop_times == scalar.hop_times

    def test_rare_name(self, deployment):
        _, graph = deployment
        with checking():
            result = people_search(graph, 0, "NoSuchName", hops=3,
                                   network=SimNetwork())
        assert result.matches == []
        assert result.visited > 0


class TestStorageTiers:
    """People search and TQL on a paged cloud, bit-identical to resident.

    The page budget is deliberately smaller than the graph's arena
    bytes, so queries run against a working set that cannot all be
    resident.  The cloud is built inside the oracle's scope — its
    shadow always runs *resident* storage, so every mutation during
    graph build is verified cell-for-cell across tiers — and each query
    runs checked, replaying the scalar read path on the paged cloud
    itself.
    """

    STORAGES = ["resident", "paged"]

    @pytest.fixture(scope="class", params=STORAGES)
    def tier_deployment(self, request):
        memory = MemoryParams(trunk_size=256 * 1024,
                              storage=request.param,
                              page_size=512, page_budget=2)
        with checking():
            cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=4,
                                              memory=memory),
                                MetricsRegistry())
        graph = build_rmat_named_graph(cloud, scale=9)
        yield request.param, cloud, graph
        cloud.release_arenas()

    def test_shadow_agrees_across_tiers(self, tier_deployment):
        _, cloud, _ = tier_deployment
        assert cloud._shadow.config.memory.storage == "resident"
        cloud.verify_shadow()

    def test_graph_exceeds_page_budget(self, tier_deployment):
        storage, cloud, _ = tier_deployment
        if storage != "paged":
            pytest.skip("budget applies to the paged tier only")
        budget_bytes = sum(
            t.storage.page_budget * t.storage.page_size
            for t in cloud.trunks.values()
        )
        assert cloud.total_live_bytes() > budget_bytes
        for trunk in cloud.trunks.values():
            assert trunk.storage.resident_pages <= trunk.storage.page_budget
        faults = cloud.obs.snapshot()["trunk.page.fault.total"]["series"]
        assert sum(s["value"] for s in faults) > 0

    def test_people_search_bit_identical(self, tier_deployment):
        _, _, graph = tier_deployment
        with checking():
            batched = people_search(graph, 0, "David", hops=3,
                                    network=SimNetwork())
        scalar = scalar_people_search(graph, 0, "David", 3)
        assert batched.matches == scalar.matches
        assert batched.visited == scalar.visited
        assert batched.hop_times == scalar.hop_times

    @pytest.mark.parametrize("tql", [
        "MATCH (a = 0) -[Friends]-> (b) -[Friends]-> (c) RETURN c",
        "MATCH (a = 0) -[Friends*1..3]-> (b) "
        "WHERE b.Name = 'David' RETURN b",
    ])
    def test_tql_bit_identical(self, tier_deployment, tql):
        _, _, graph = tier_deployment
        with checking():
            batched = execute_tql(graph, tql, network=SimNetwork())
        scalar = scalar_tql(graph, tql)
        assert batched.rows == scalar.rows
        assert batched.cells_touched == scalar.cells_touched

    def test_batch_surface_cross_checked(self, tier_deployment):
        _, _, graph = tier_deployment
        ids = np.asarray(graph.node_ids[:300], dtype=np.int64)
        with checking():
            indptr, flat = graph.outlinks_batch(ids)
        for i, node_id in enumerate(ids.tolist()):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == \
                graph.outlinks(node_id)
        with checking():
            names = graph.read_field_batch(ids[:100], "Name")
        assert names == [graph.attribute(int(i), "Name")
                         for i in ids[:100]]


class TestLayoutPolicies:
    """Raw or adaptive adjacency cells, resident or paged: one answer."""

    def test_queries_agree_across_policies_and_tiers(self):
        from repro.serve import PeopleSearchQuery, QueryServer, ServeConfig
        signatures, live, clouds = {}, {}, []
        try:
            for storage in ("resident", "paged"):
                for policy in ("raw", "adaptive"):
                    cloud = MemoryCloud(
                        ClusterConfig(machines=2, trunk_bits=4,
                                      memory=MemoryParams(
                                          trunk_size=1024 * 1024,
                                          storage=storage,
                                          layout_policy=policy)),
                        MetricsRegistry())
                    clouds.append(cloud)
                    graph = build_rmat_named_graph(cloud, scale=9,
                                                   avg_degree=10.0)
                    live[storage, policy] = cloud.total_live_bytes()
                    ids = np.asarray(graph.node_ids, dtype=np.int64)
                    hubs = ids[np.argsort(graph.degree_batch(ids),
                                          kind="stable")[-3:]].tolist()
                    query = (f"MATCH (a = {hubs[0]}) -[Friends*1..3]-> "
                             "(b {Name: 'David'}) RETURN b")
                    # Served with the hub adjacency cache on and the
                    # result cache off, so every repeat really traverses.
                    server = QueryServer(
                        graph, ServeConfig(result_cache=False),
                        registry=MetricsRegistry())
                    tickets = [server.submit(PeopleSearchQuery(hub, "David"))
                               for _ in range(2) for hub in hubs]
                    with checking():
                        searches = [people_search(graph, hub, "David",
                                                  hops=3,
                                                  network=SimNetwork())
                                    for hub in hubs]
                        tql = execute_tql(graph, query,
                                          network=SimNetwork())
                        server.run()
                    signatures[storage, policy] = (
                        hubs,
                        [(r.matches, r.visited, r.hop_times)
                         for r in searches],
                        tql.rows, [t.result for t in tickets])
            assert len({repr(sig) for sig in signatures.values()}) == 1
            # The codecs were really in play: same cells, fewer bytes.
            for storage in ("resident", "paged"):
                assert live[storage, "adaptive"] < live[storage, "raw"]
        finally:
            for cloud in clouds:
                cloud.release_arenas()


class TestFailedDecodeReleasesPins:
    def test_corrupt_cell_leaves_no_page_pinned(self):
        """A decode that raises between the span fetch and the freshness
        check leaves nothing behind: a paged read copies its pages and
        pins none, so there is no span lifetime to end."""
        memory = MemoryParams(trunk_size=256 * 1024, storage="paged",
                              page_size=512, page_budget=64)
        cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=2,
                                          memory=memory), MetricsRegistry())
        try:
            graph = build_rmat_named_graph(cloud, scale=6)
            ids = np.asarray(graph.node_ids[:40], dtype=np.int64)
            graph.outlinks_batch(ids)
            touched = {cloud.trunk_for(int(i)) for i in ids}
            assert len(touched) > 1
            assert all(t.storage.pinned_pages == 0 for t in touched)
            cloud.put(int(ids[7]), b"\x01")   # a name that runs off the end
            with pytest.raises(ValueError):
                graph.outlinks_batch(ids)
            assert [t.storage.pinned_pages for t in touched] == \
                [0] * len(touched)
        finally:
            cloud.release_arenas()


class TestOneDecodePerRead:
    def test_a_paged_read_decodes_once_and_equals_its_resident_twin(
            self, monkeypatch):
        """Every trunk a read touches lands in one buffer, paged or
        resident, so the read is one decode however many trunks it
        spans.  The answers agree, and each is cross-checked against the
        scalar reads."""
        answers, calls = {}, {}
        for storage in ("resident", "paged"):
            memory = MemoryParams(trunk_size=256 * 1024, storage=storage,
                                  page_size=512, page_budget=2)
            cloud = MemoryCloud(ClusterConfig(machines=2, trunk_bits=3,
                                              memory=memory),
                                MetricsRegistry())
            try:
                graph = build_rmat_named_graph(cloud, scale=7)
                ids = np.asarray(graph.node_ids[::3], dtype=np.int64)
                trunks = len(set(cloud.trunks_of_array(ids).tolist()))
                assert trunks >= 2
                decoder, counted = graph._decoder, []
                for name in ("decode_list_csr_spans", "field_counts_spans",
                             "decode_column_spans"):
                    def spy(*args, inner=getattr(decoder, name), name=name):
                        counted.append(name)
                        return inner(*args)
                    monkeypatch.setattr(decoder, name, spy)
                with checking():
                    indptr, flat = graph.outlinks_batch(ids)
                    degrees = graph.degree_batch(ids)
                    names = graph.read_field_batch(ids, "Name")
                monkeypatch.undo()
                answers[storage] = (indptr.tolist(), flat.tolist(),
                                    degrees.tolist(), names)
                calls[storage] = counted
            finally:
                cloud.release_arenas()
        assert answers["paged"] == answers["resident"]
        reads = ["decode_list_csr_spans", "field_counts_spans",
                 "decode_column_spans"]
        assert calls["paged"] == reads
        assert calls["resident"] == reads


class TestTqlBatch:
    QUERIES = [
        "MATCH (a = 0) -[Friends]-> (b) -[Friends]-> (c) RETURN c",
        "MATCH (a = 0) -[Friends*1..3]-> (b) "
        "WHERE b.Name = 'David' RETURN b",
        "MATCH (a) -[Friends]-> (b) WHERE b.Name = 'David' "
        "RETURN a LIMIT 40",
        "MATCH (a {Name: 'David'}) <-[Friends]- (b) RETURN b LIMIT 25",
    ]

    @pytest.mark.parametrize("tql", QUERIES)
    def test_batch_equals_scalar(self, deployment, tql):
        _, graph = deployment
        with checking():
            batched = execute_tql(graph, tql, network=SimNetwork())
        scalar = scalar_tql(graph, tql)
        assert batched.rows == scalar.rows
        assert batched.cells_touched == scalar.cells_touched
        assert batched.messages == scalar.messages
        assert batched.elapsed == scalar.elapsed
        assert batched.truncated == scalar.truncated


class TestSubgraphBatch:
    @pytest.mark.parametrize("generator,qseed",
                             [(generate_query_dfs, 2),
                              (generate_query_random, 5)])
    def test_batch_equals_scalar(self, deployment, generator, qseed):
        _, graph = deployment
        topology = CsrTopology(graph)
        labels = assign_labels(topology.n, num_labels=8, seed=3)
        query = generator(topology, labels, size=5, seed=qseed)
        index = LabelIndex(topology, labels)
        # The scalar prefilter is replayed at every level of the checked
        # run (the only place the two ever differed); the run without it
        # must then be the same search, and every embedding a real one.
        with checking():
            checked = match_subgraph(topology, labels, query,
                                     network=SimNetwork(), index=index)
        plain = match_subgraph(topology, labels, query,
                               network=SimNetwork(), index=index)
        assert checked.embeddings == plain.embeddings
        assert checked.candidates_examined == plain.candidates_examined
        assert checked.messages == plain.messages
        assert checked.round_times == plain.round_times
        assert checked.embeddings
        for embedding in checked.embeddings:
            assert len(set(embedding)) == query.size
            assert [int(labels[v]) for v in embedding] == list(query.labels)
            assert all(embedding[b] in topology.out_neighbors(embedding[a])
                       for a, b in query.edges)


class TestLandmarkBatch:
    def test_oracle_batch_equals_scalar(self, deployment):
        _, graph = deployment
        topology = CsrTopology(graph)
        landmarks = select_landmarks(topology, 4, strategy="degree")
        with checking():
            batched = evaluate_oracle(topology, landmarks, pairs=40, seed=2)
        through = np.stack([_bfs_distances_scalar(topology, lm)
                            for lm in landmarks])
        scalar_pairs = [
            (u, v, _pair_distance_scalar(topology, u, v),
             int((through[:, u] + through[:, v]).min()))
            for u, v, _, _ in batched.per_pair]
        assert batched.per_pair == scalar_pairs
        ratios = [true / estimate for _, _, true, estimate in scalar_pairs]
        assert batched.accuracy == float(np.mean(ratios))
        assert batched.exact_fraction == \
            sum(r == 1.0 for r in ratios) / len(ratios)


class TestFieldEqBatch:
    def test_matches_scalar_compare(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:300], dtype=np.int64)
        target = graph.attribute(5, "Name")
        with checking():
            hits = graph.field_eq_batch(ids, "Name", target)
        assert hits.dtype == bool
        assert hits.tolist() == [
            graph.attribute(int(i), "Name") == target for i in ids]

    def test_no_match_and_empty_needle(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:64], dtype=np.int64)
        with checking():
            assert not graph.field_eq_batch(
                ids, "Name", "no such name ever").any()
            assert not graph.field_eq_batch(ids, "Name", "").any()

    def test_non_str_value_against_string_field_is_all_false(self,
                                                             deployment):
        """The scalar ``read_field(i, "Name") == 5`` answers False; the
        batch path used to die encoding the needle."""
        cloud, graph = deployment
        ids = np.asarray(graph.node_ids[:64], dtype=np.int64)
        for value in (5, None, b"David", ["David"]):
            with checking():
                hits = graph.field_eq_batch(ids, "Name", value)
            assert hits.dtype == bool and hits.shape == ids.shape
            assert not hits.any()
        # The cells are still looked up: an absent id is still an error.
        with pytest.raises(CellNotFoundError):
            graph.field_eq_batch(np.asarray([10 ** 9]), "Name", 5)

    def test_non_string_field_falls_back(self, deployment):
        _, graph = deployment
        ids = np.asarray(graph.node_ids[:50], dtype=np.int64)
        target = graph.outlinks(int(ids[3]))
        with checking():
            hits = graph.field_eq_batch(ids, "Friends", target)
        assert hits.tolist() == [graph.outlinks(int(i)) == target
                                 for i in ids]


class TestBatchDedup:
    """Repeated node ids are routed once and reassembled in input order."""

    def _dup_ids(self, graph):
        base = graph.node_ids[:40]
        return np.asarray(base + base[:17] + base[5:9] + [base[0]] * 6,
                          dtype=np.int64)

    def test_outlinks_batch_with_duplicates(self, deployment):
        _, graph = deployment
        ids = self._dup_ids(graph)
        with checking():
            indptr, flat = graph.outlinks_batch(ids)
        assert len(indptr) == len(ids) + 1
        for i, node_id in enumerate(ids.tolist()):
            assert flat[indptr[i]:indptr[i + 1]].tolist() == \
                graph.outlinks(node_id)

    def test_read_field_batch_with_duplicates(self, deployment):
        _, graph = deployment
        ids = self._dup_ids(graph)
        with checking():
            names = graph.read_field_batch(ids, "Name")
        assert names == [graph.attribute(int(i), "Name") for i in ids]

    def test_field_eq_batch_with_duplicates(self, deployment):
        _, graph = deployment
        ids = self._dup_ids(graph)
        target = graph.attribute(5, "Name")
        with checking():
            hits = graph.field_eq_batch(ids, "Name", target)
        assert hits.tolist() == [
            graph.attribute(int(i), "Name") == target for i in ids]

    def test_degree_batch_with_duplicates(self, deployment):
        _, graph = deployment
        ids = self._dup_ids(graph)
        with checking():
            degrees = graph.degree_batch(ids)
        assert degrees.tolist() == [len(graph.outlinks(int(i)))
                                    for i in ids]

    def test_dedup_counter_and_routing_volume(self, deployment):
        cloud, graph = deployment
        dedup = cloud.obs.counter("query.batch.cells_deduped")
        routed = cloud.obs.counter("memcloud.bulk.get.cells")
        ids = np.asarray([graph.node_ids[0]] * 50 + graph.node_ids[:10],
                         dtype=np.int64)
        before_dedup = dedup.value
        before_routed = routed.value
        graph.outlinks_batch(ids)
        dropped = len(ids) - len(np.unique(ids))
        assert dedup.value == before_dedup + dropped
        # Only the unique ids reach hashing/routing and the trunks.
        assert routed.value - before_routed == len(np.unique(ids))

    def test_all_same_id(self, deployment):
        _, graph = deployment
        node = graph.node_ids[3]
        ids = np.asarray([node] * 25, dtype=np.int64)
        with checking():
            indptr, flat = graph.outlinks_batch(ids)
        expected = graph.outlinks(node)
        assert indptr.tolist() == [len(expected) * i for i in range(26)]
        assert flat.tolist() == expected * 25


class TestMutationEpoch:
    """Every structural mutation path advances the cloud mutation epoch,
    so epoch-stamped cache entries can never be served stale."""

    def _fresh(self, machines=3):
        cloud = MemoryCloud(ClusterConfig(machines=machines, trunk_bits=4),
                            MetricsRegistry())
        graph = build_rmat_named_graph(cloud, scale=6)
        return cloud, graph

    def test_each_mutation_kind_bumps_epoch(self):
        cloud, graph = self._fresh()
        node = graph.node_ids[0]
        peer = graph.node_ids[1]

        def put_blob(g):
            g.cloud.put(max(g.node_ids) + 1000, b"raw-cell")

        def remove_blob(g):
            g.cloud.remove(max(g.node_ids) + 1000)

        def in_place_list_write(g):
            with g.use_node(node) as cell:
                friends = cell.get("Friends")
                if len(friends):
                    friends[0] = friends[0]  # same value, bytes rewritten

        def splice_attribute(g):
            with g.use_node(peer) as cell:
                cell.Name = "Renamed"

        def defrag(g):
            for trunk in g.cloud.trunks.values():
                trunk.defragment()

        def friends_tag(g, uid):
            node_type = g.graph_schema.node_type
            blob = g.cloud.get(uid)
            return node_type.field_type("Friends").stored_layout(
                blob, node_type.field_offset(blob, "Friends"))

        def layout_crossing_append(g):
            # A raw list one short of delta_min_degree: the append that
            # crosses it stores the policy's new choice, delta.
            grown = max(g.node_ids) + 2
            g.add_node(grown, Name="Grown")
            with g.use_node(grown) as cell:
                cell.set("Friends", [10 ** 6 + 3 * i for i in range(7)])
            assert friends_tag(g, grown) == LAYOUT_RAW
            before = g.cloud.mutation_epoch()
            with g.use_node(grown) as cell:
                cell.get("Friends").append(10 ** 6 + 21)
            assert friends_tag(g, grown) == LAYOUT_DELTA_VARINT
            assert g.cloud.mutation_epoch() > before

        mutations = [
            ("add_edge", lambda g: g.add_edge(node, max(g.node_ids) + 1)),
            ("add_node", lambda g: g.add_node(max(g.node_ids) + 1,
                                              Name="New")),
            ("put", put_blob),
            ("remove", remove_blob),
            ("in_place_list_write", in_place_list_write),
            ("splice_attribute", splice_attribute),
            ("layout_crossing_append", layout_crossing_append),
            ("defragment", defrag),
        ]
        for label, mutate in mutations:
            before = cloud.mutation_epoch()
            mutate(graph)
            after = cloud.mutation_epoch()
            assert after > before, f"{label} did not bump mutation_epoch"

    def test_random_mutation_sequences_are_monotonic(self):
        cloud, graph = self._fresh()
        rng = np.random.default_rng(17)
        nodes = graph.node_ids[:64]
        last = cloud.mutation_epoch()
        for step in range(60):
            kind = int(rng.integers(0, 5))
            if kind == 0:
                graph.add_edge(int(rng.choice(nodes)),
                               int(rng.choice(nodes)))
            elif kind == 1:
                with graph.use_node(int(rng.choice(nodes))) as cell:
                    friends = cell.get("Friends")
                    if len(friends):
                        friends[0] = int(rng.choice(nodes))
                    else:
                        cell.Name = f"n{step}"
            elif kind == 2:
                graph.cloud.put(int(rng.choice(nodes)),
                                graph.cloud.get(int(rng.choice(nodes))))
            elif kind == 3:
                # A whole-field write whose length swings across the
                # policy's delta threshold, so the layout changes too.
                length = 4 if step % 2 else 16
                with graph.use_node(int(rng.choice(nodes))) as cell:
                    cell.set("Friends",
                             sorted(rng.choice(nodes, length).tolist()))
            else:
                with graph.use_node(int(rng.choice(nodes))) as cell:
                    cell.Name = f"renamed-{step}"
            current = cloud.mutation_epoch()
            assert current > last
            last = current

    def test_reads_do_not_bump_epoch(self):
        cloud, graph = self._fresh()
        before = cloud.mutation_epoch()
        graph.outlinks_batch(np.asarray(graph.node_ids[:32],
                                        dtype=np.int64))
        graph.read_field_batch(np.asarray(graph.node_ids[:16],
                                          dtype=np.int64), "Name")
        with graph.use_node(graph.node_ids[0]) as cell:
            _ = cell.Name
            _ = cell.get("Friends").to_list()
        assert cloud.mutation_epoch() == before

    def test_stale_hub_entry_never_served(self):
        from repro.serve import EpochLruCache
        cloud, graph = self._fresh()
        cache = EpochLruCache("hub", capacity=8, registry=cloud.obs)
        node = graph.node_ids[0]
        cache.put(node, cloud.epoch_vector(), list(graph.outlinks(node)))
        assert cache.get(node, cloud.epoch_vector()) is not None
        rng = np.random.default_rng(3)
        for step in range(10):
            graph.add_edge(node, int(rng.choice(graph.node_ids)))
            # After ANY mutation the stamped entry must be unreachable.
            assert cache.get(node, cloud.epoch_vector()) is None
            cache.put(node, cloud.epoch_vector(),
                      list(graph.outlinks(node)))
        assert cache.invalidated >= 1
        served = cache.get(node, cloud.epoch_vector())
        assert served == graph.outlinks(node)

    def test_epoch_vector_tracks_only_owning_trunk(self):
        cloud, graph = self._fresh()
        node = int(graph.node_ids[0])
        owner = int(cloud.trunks_of_array([node])[0])
        before = cloud.epoch_vector()
        assert sum(before) == cloud.mutation_epoch()
        graph.add_edge(node, int(graph.node_ids[1]))
        after = cloud.epoch_vector()
        changed = {t for t in range(len(after)) if after[t] != before[t]}
        assert owner in changed
        # An edge write touches at most the two endpoint cells' trunks
        # (plus the new node's on growth) — never the whole vector.
        assert len(changed) < len(after)

    def test_footprint_entry_survives_unrelated_trunk_write(self):
        from repro.serve import EpochLruCache
        cloud, graph = self._fresh()
        cache = EpochLruCache("hub", capacity=8,
                              registry=MetricsRegistry())
        node = int(graph.node_ids[0])
        owner = int(cloud.trunks_of_array([node])[0])
        cache.put(("outlinks", node), cloud.epoch_vector(),
                  list(graph.outlinks(node)), footprint=(owner,))
        assert cache.footprint_of(("outlinks", node)) == {owner}
        # Write to a node owned by a DIFFERENT trunk: the entry lives.
        other = next(n for n in map(int, graph.node_ids)
                     if int(cloud.trunks_of_array([n])[0]) != owner)
        peer = next(n for n in map(int, graph.node_ids)
                    if int(cloud.trunks_of_array([n])[0]) != owner
                    and n != other)
        graph.add_edge(other, peer)
        assert cache.get(("outlinks", node),
                         cloud.epoch_vector()) is not None
        # Write to the owning trunk: the entry dies.
        graph.add_edge(node, other)
        assert cache.get(("outlinks", node), cloud.epoch_vector()) is None
        assert cache.invalidated == 1


class TestVisitedTracker:
    def test_mask_grows_and_counts(self):
        from repro.algorithms.people_search import _VisitedTracker
        tracker = _VisitedTracker(0)
        ids = np.asarray([1, 5000, 1, 0], dtype=np.int64)
        assert tracker.unseen(ids).tolist() == [True, True, True, False]
        tracker.add(np.asarray([1, 5000], dtype=np.int64))
        assert tracker.unseen(ids).tolist() == [False, False, False, False]
        assert tracker.count == 3

    def test_switches_to_sorted_on_huge_ids(self):
        from repro.algorithms.people_search import _VisitedTracker
        tracker = _VisitedTracker(3)
        tracker.add(np.asarray([9], dtype=np.int64))
        huge = np.asarray([2**50, 3, 9, 2**50 + 1], dtype=np.int64)
        assert tracker.unseen(huge).tolist() == [True, False, False, True]
        assert tracker.stamp is None  # permanently in sorted mode
        tracker.add(np.asarray([2**50], dtype=np.int64))
        assert tracker.unseen(huge).tolist() == [False, False, False, True]
        assert tracker.count == 3

    def test_people_search_on_sparse_huge_ids(self):
        """End-to-end batch == scalar on a graph whose node ids overflow
        any dense visited mask (the sorted-array fallback path)."""
        cloud = MemoryCloud(ClusterConfig(machines=3, trunk_bits=5),
                            MetricsRegistry())
        base = 2**52
        ids = [base + 17 * k for k in range(40)]
        names = sample_names(len(ids), seed=9)
        builder = GraphBuilder(cloud, social_graph_schema())
        for node_id, name in zip(ids, names):
            builder.add_node(node_id, Name=name)
        rng = np.random.default_rng(4)
        edges = {(ids[int(a)], ids[int(b)])
                 for a, b in rng.integers(0, len(ids), size=(160, 2))
                 if a != b}
        builder.add_edges(sorted(edges))
        graph = builder.finalize()
        target = names[7]
        with checking():
            batched = people_search(graph, ids[0], target, hops=3,
                                    network=SimNetwork())
        scalar = scalar_people_search(graph, ids[0], target, 3)
        assert batched.matches == scalar.matches
        assert batched.visited == scalar.visited
        assert batched.messages == scalar.messages
        assert batched.hop_times == scalar.hop_times
