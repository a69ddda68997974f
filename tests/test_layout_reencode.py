"""Tests for the background layout re-encoder (graph/reencode.py).

The invariants under test: a migration goes through the trunk's normal
mutation path (epoch bump → span invalidation → cache invalidation), so
concurrent serving can observe a ``StaleSpanError`` and retry but never
a stale or wrong answer; migrations are CAS-guarded so a racing writer
wins; and layout tags survive a checkpoint on both storage tiers.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig, MemoryParams
from repro.errors import StaleSpanError
from repro.graph import Graph, GraphBuilder, LayoutReencoder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.memcloud.persistence import adopt_trunk_image, trunk_to_bytes
from repro.tsl import LAYOUT_DELTA_VARINT, LAYOUT_RAW
from repro.tsl.layout import DEFAULT_LAYOUT_POLICY, RAW_ONLY_POLICY


def build_graph(policy="raw", storage="resident", nodes=60, seed=7):
    """A directed graph with enough clustered fan-out that the adaptive
    policy wants codecs for most cells."""
    rng = np.random.default_rng(seed)
    cloud = MemoryCloud(ClusterConfig(machines=2, memory=MemoryParams(
        storage=storage, layout_policy=policy)))
    builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
    for src in range(nodes):
        degree = int(rng.integers(16, 48))
        for dst in rng.integers(0, 10 ** 5, degree):
            builder.add_edge(src, int(dst))
    return builder.finalize(cross_check=True)


def out_tag(graph, uid):
    node_type = graph.graph_schema.node_type
    blob = graph.cloud.get(uid)
    offset = node_type.field_offset(blob, "Outlinks")
    return node_type.field_type("Outlinks").stored_layout(blob, offset)


def snapshot(graph):
    node_ids = sorted(graph.node_ids)
    indptr, flat = graph.outlinks_batch(node_ids, cross_check=True)
    return node_ids, indptr.tolist(), flat.tolist()


class TestMigration:
    def test_migrates_raw_graph_to_adaptive(self):
        graph = build_graph(policy="raw")
        before = snapshot(graph)
        epoch_before = graph.cloud.mutation_epoch()
        report = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY).run_pass()
        assert report.migrated > 0
        assert report.bytes_saved > 0
        assert all(src == LAYOUT_RAW for src, _ in report.retagged)
        assert graph.cloud.mutation_epoch() > epoch_before
        assert snapshot(graph) == before  # bit-identical answers

    def test_second_pass_is_idempotent(self):
        graph = build_graph(policy="raw")
        reencoder = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY)
        assert reencoder.run_pass().migrated > 0
        again = reencoder.run_pass()
        assert again.migrated == 0 and again.candidates == 0

    def test_rollback_to_raw(self):
        graph = build_graph(policy="adaptive")
        assert any(out_tag(graph, uid) != LAYOUT_RAW
                   for uid in graph.node_ids)
        before = snapshot(graph)
        report = LayoutReencoder(graph, policy=RAW_ONLY_POLICY).run_pass()
        assert report.migrated > 0
        assert report.bytes_saved < 0  # rolling back costs bytes
        assert all(out_tag(graph, uid) == LAYOUT_RAW
                   for uid in graph.node_ids)
        assert snapshot(graph) == before

    def test_accessor_drift_gets_repaired(self):
        """A cell that grows past the policy threshold via add_edge keeps
        its raw layout (the accessor never re-runs the policy) until the
        re-encoder migrates it."""
        cloud = MemoryCloud(ClusterConfig(
            machines=1, memory=MemoryParams(layout_policy="adaptive")))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edge(1, 2)
        graph = builder.finalize()
        assert out_tag(graph, 1) == LAYOUT_RAW
        rng = np.random.default_rng(3)
        for dst in rng.integers(0, 10 ** 5, 64):
            graph.add_edge(1, int(dst))
        assert out_tag(graph, 1) == LAYOUT_RAW  # drift: still raw
        report = LayoutReencoder(graph).run_pass()
        assert report.migrated >= 1
        assert out_tag(graph, 1) == LAYOUT_DELTA_VARINT
        assert graph.outlinks(1)[0] == 2
        assert len(graph.outlinks(1)) == 65

    def test_metrics_counters_advance(self):
        graph = build_graph(policy="raw")
        obs = graph.cloud.obs
        LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY).run_pass()
        totals = {}
        for trunk_id in graph.cloud.trunks:
            for name in ("trunk.layout.migrated", "trunk.layout.skipped",
                         "trunk.layout.bytes_before",
                         "trunk.layout.bytes_after"):
                value = obs.counter(name, trunk=trunk_id).value
                totals[name] = totals.get(name, 0) + value
        assert totals["trunk.layout.migrated"] > 0
        assert totals["trunk.layout.bytes_before"] > \
            totals["trunk.layout.bytes_after"]


class TestCasGuards:
    def test_cas_skips_on_concurrent_write(self):
        graph = build_graph(policy="raw", nodes=10)
        cloud = graph.cloud
        uid = sorted(graph.node_ids)[0]
        expected = cloud.get(uid)
        # Another writer lands between the re-encoder's read and its CAS.
        cloud.put(uid, expected)  # same bytes object, new epoch — applies
        assert cloud.reencode_cell(uid, expected, expected)
        cloud.put(uid, expected + b"")
        assert not cloud.reencode_cell(uid, b"different", expected)

    def test_cas_skips_missing_cell(self):
        graph = build_graph(policy="raw", nodes=10)
        assert not graph.cloud.reencode_cell(2 ** 50, b"x", b"y")

    def test_skip_leaves_cell_for_next_pass(self):
        graph = build_graph(policy="raw", nodes=10)
        reencoder = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY)
        uid = reencoder.scan()[0]
        expected = graph.cloud.get(uid)
        # Mutate after the scan: this uid's CAS must skip, not clobber.
        graph.add_edge(uid, 99999)
        report = reencoder.migrate(uid)
        assert report.migrated + report.skipped == report.candidates
        # Next pass sees the post-mutation bytes and succeeds.
        report = reencoder.migrate(uid)
        if report.candidates:
            assert report.migrated == 1
        assert 99999 in graph.outlinks(uid)


class TestSpanInvalidation:
    @pytest.mark.parametrize("storage", ["resident", "paged"])
    def test_outstanding_spans_go_stale(self, storage):
        graph = build_graph(policy="raw", storage=storage, nodes=30)
        cloud = graph.cloud
        uids = np.asarray(sorted(graph.node_ids), dtype=np.int64)
        groups = cloud.bulk_get_spans(uids)
        for group in groups:
            group.assert_fresh()  # nothing migrated yet
        report = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY).run_pass()
        assert report.migrated > 0
        with pytest.raises(StaleSpanError):
            for group in groups:
                group.assert_fresh()
        # A re-fetch observes the migrated layout and decodes cleanly.
        snapshot(graph)


class TestConcurrentServe:
    def test_daemon_migrates_under_query_traffic(self):
        """The daemon migrates cells while queries run with cross_check
        on: every answer is either correct or a StaleSpanError retry —
        never silently wrong."""
        graph = build_graph(policy="raw", nodes=80, seed=19)
        expected = {uid: graph.outlinks(uid) for uid in graph.node_ids}
        node_ids = sorted(expected)
        reencoder = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY)
        errors = []
        stale_retries = 0

        reencoder.start(interval=0.0)
        try:
            for round_no in range(30):
                batch = node_ids[(round_no * 7) % len(node_ids):][:16] \
                    or node_ids[:16]
                for _ in range(50):  # bounded retry on stale spans
                    try:
                        indptr, flat = graph.outlinks_batch(
                            batch, cross_check=True)
                        break
                    except StaleSpanError:
                        stale_retries += 1
                else:
                    errors.append(f"round {round_no}: spans never settled")
                    continue
                bounds = indptr.tolist()
                values = flat.tolist()
                for i, uid in enumerate(batch):
                    if values[bounds[i]:bounds[i + 1]] != expected[uid]:
                        errors.append(f"node {uid}: wrong answer")
        finally:
            report = reencoder.stop()

        assert not errors, errors
        assert report.migrated > 0
        # The migrated graph serves the same answers as before.
        assert {uid: graph.outlinks(uid) for uid in graph.node_ids} == expected

    def test_daemon_start_stop_lifecycle(self):
        graph = build_graph(policy="raw", nodes=10)
        reencoder = LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY)
        reencoder.start(interval=0.01)
        with pytest.raises(RuntimeError):
            reencoder.start()
        report = reencoder.stop()
        assert report.migrated > 0
        # stop() after stop() returns the same accumulated report.
        assert reencoder.stop().migrated == report.migrated


class TestCheckpointRoundTrip:
    def _tags(self, graph):
        return {uid: out_tag(graph, uid) for uid in graph.node_ids}

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    def test_layout_tags_survive_checkpoint(self, storage):
        graph = build_graph(policy="adaptive", storage=storage, nodes=40)
        tags_before = self._tags(graph)
        assert set(tags_before.values()) != {LAYOUT_RAW}
        before = snapshot(graph)
        images = {trunk_id: trunk_to_bytes(trunk)
                  for trunk_id, trunk in graph.cloud.trunks.items()}
        for trunk_id, image in images.items():
            adopt_trunk_image(graph.cloud, trunk_id, image)
        assert self._tags(graph) == tags_before
        assert snapshot(graph) == before

    def test_restore_into_raw_policy_cloud_keeps_tags(self):
        """Layout tags live inside the cell bytes: restoring onto a
        cloud configured with a different policy must not rewrite them
        (the policy only governs *new* encodes)."""
        source = build_graph(policy="adaptive", nodes=30)
        tags_before = self._tags(source)
        before = snapshot(source)
        images = {trunk_id: trunk_to_bytes(trunk)
                  for trunk_id, trunk in source.cloud.trunks.items()}
        target_cloud = MemoryCloud(ClusterConfig(
            machines=2, memory=MemoryParams(layout_policy="raw")))
        for trunk_id, image in images.items():
            adopt_trunk_image(target_cloud, trunk_id, image)
        target = Graph(target_cloud, plain_graph_schema(directed=True),
                       node_ids=sorted(source.node_ids))
        assert self._tags(target) == tags_before
        assert snapshot(target) == before

    def test_migrated_graph_checkpoints_cleanly(self):
        graph = build_graph(policy="raw", nodes=30)
        LayoutReencoder(graph, policy=DEFAULT_LAYOUT_POLICY).run_pass()
        tags_before = self._tags(graph)
        before = snapshot(graph)
        images = {trunk_id: trunk_to_bytes(trunk)
                  for trunk_id, trunk in graph.cloud.trunks.items()}
        for trunk_id, image in images.items():
            adopt_trunk_image(graph.cloud, trunk_id, image)
        assert self._tags(graph) == tags_before
        assert snapshot(graph) == before
