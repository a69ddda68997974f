"""Layout re-encoding on write: a cell's adjacency is encoded under the
policy installed on its schema whenever the cell is written.

Nothing re-encodes a cell in the background.  A cell whose tag is not
the current policy's choice (written under another policy, or restored
from a checkpoint taken under one) keeps its tag until its next write,
and that write re-chooses.  The invariants under test: such a write goes
through the normal mutation path (epoch bump, span invalidation) and
answers bit-identically, concurrent cross-checked readers see a correct
answer or a ``StaleSpanError`` and never a wrong one, and layout tags
survive a checkpoint on both storage tiers.
"""

import sys
import threading

import numpy as np
import pytest

from repro.config import ClusterConfig, MemoryParams
from repro.errors import StaleSpanError
from repro.graph import Graph, GraphBuilder, plain_graph_schema
from repro.memcloud import MemoryCloud
from repro.memcloud.persistence import adopt_trunk_image, trunk_to_bytes
from repro.oracle import checking
from repro.tsl import LAYOUT_DELTA_VARINT, LAYOUT_RAW
from repro.tsl.layout import (
    DEFAULT_LAYOUT_POLICY,
    RAW_ONLY_POLICY,
    install_layout_policy,
)


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
    with checking():
        return builder.finalize()


def out_tag(graph, uid):
    node_type = graph.graph_schema.node_type
    blob = graph.cloud.get(uid)
    offset = node_type.field_offset(blob, "Outlinks")
    return node_type.field_type("Outlinks").stored_layout(blob, offset)


def snapshot(graph):
    node_ids = sorted(graph.node_ids)
    with checking():
        indptr, flat = graph.outlinks_batch(node_ids)
    return node_ids, indptr.tolist(), flat.tolist()


def blobs(graph):
    return {uid: graph.cloud.get(uid) for uid in graph.node_ids}


def rewrite_pass(graph, policy, node_ids=None):
    """Install ``policy`` on the schema, then write every cell's
    adjacency fields back with their own contents."""
    node_type = graph.graph_schema.node_type
    install_layout_policy(node_type, policy)
    for uid in (graph.node_ids if node_ids is None else node_ids):
        with graph.use_node(uid) as cell:
            for name in ("Outlinks", "Inlinks"):
                cell.set(name, cell.read(name))


class TestMigration:
    def test_migrates_raw_graph_to_adaptive(self):
        graph = build_graph(policy="raw")
        before = snapshot(graph)
        bytes_before = sum(map(len, blobs(graph).values()))
        epoch_before = graph.cloud.mutation_epoch()
        rewrite_pass(graph, DEFAULT_LAYOUT_POLICY)
        tags = {uid: out_tag(graph, uid) for uid in graph.node_ids}
        assert set(tags.values()) != {LAYOUT_RAW}
        for uid, tag in tags.items():
            assert tag == DEFAULT_LAYOUT_POLICY.choose(graph.outlinks(uid))
        assert sum(map(len, blobs(graph).values())) < bytes_before
        assert graph.cloud.mutation_epoch() > epoch_before
        assert snapshot(graph) == before  # bit-identical answers

    def test_second_pass_is_idempotent(self):
        """A write's bytes are a function of the list and the policy:
        writing the same contents again stores the same bytes."""
        graph = build_graph(policy="raw")
        rewrite_pass(graph, DEFAULT_LAYOUT_POLICY)
        first = blobs(graph)
        rewrite_pass(graph, DEFAULT_LAYOUT_POLICY)
        assert blobs(graph) == first

    def test_rollback_to_raw(self):
        graph = build_graph(policy="adaptive")
        assert any(out_tag(graph, uid) != LAYOUT_RAW
                   for uid in graph.node_ids)
        before = snapshot(graph)
        bytes_before = sum(map(len, blobs(graph).values()))
        rewrite_pass(graph, RAW_ONLY_POLICY)
        assert sum(map(len, blobs(graph).values())) > bytes_before
        assert all(out_tag(graph, uid) == LAYOUT_RAW
                   for uid in graph.node_ids)
        assert snapshot(graph) == before

    def test_accessor_growth_rechooses_layout(self):
        """A cell that grows past the policy threshold via add_edge is
        re-encoded by the append that crosses it: no drift to repair."""
        cloud = MemoryCloud(ClusterConfig(
            machines=1, memory=MemoryParams(layout_policy="adaptive")))
        builder = GraphBuilder(cloud, plain_graph_schema(directed=True))
        builder.add_edge(1, 2)
        graph = builder.finalize()
        assert out_tag(graph, 1) == LAYOUT_RAW
        rng = np.random.default_rng(3)
        expected = [2]
        for dst in rng.integers(0, 10 ** 5, 64).tolist():
            graph.add_edge(1, dst)
            expected.append(dst)
            assert out_tag(graph, 1) == DEFAULT_LAYOUT_POLICY.choose(expected)
        assert out_tag(graph, 1) == LAYOUT_DELTA_VARINT
        assert graph.outlinks(1) == expected


class TestSpanInvalidation:
    @pytest.mark.parametrize("storage", ["resident", "paged"])
    def test_outstanding_spans_go_stale(self, storage):
        graph = build_graph(policy="raw", storage=storage, nodes=30)
        cloud = graph.cloud
        uids = np.asarray(sorted(graph.node_ids), dtype=np.int64)
        read = cloud.bulk_get_spans(uids)
        read.assert_fresh()  # nothing written yet
        rewrite_pass(graph, DEFAULT_LAYOUT_POLICY)
        with pytest.raises(StaleSpanError):
            read.assert_fresh()
        # A re-fetch observes the new layouts and decodes cleanly.
        snapshot(graph)


class TestConcurrentServe:
    def test_rewrites_under_query_traffic(self):
        """A writer thread re-encodes cells (raw to adaptive and back)
        while checked queries run: every answer is either correct or a
        StaleSpanError retry, never silently wrong.  The scope is the
        reading thread's own; the writer's thread does not inherit it."""
        graph = build_graph(policy="raw", nodes=80, seed=19)
        expected = {uid: graph.outlinks(uid) for uid in graph.node_ids}
        node_ids = sorted(expected)
        done = threading.Event()
        failures = []
        passes = []

        def writer():
            try:
                policies = (DEFAULT_LAYOUT_POLICY, RAW_ONLY_POLICY)
                while not done.is_set():
                    step = len(passes)
                    rewrite_pass(graph, policies[step % 2],
                                 node_ids[step % 8::8])
                    passes.append(step)
            except Exception as exc:  # surfaced by the main thread
                failures.append(exc)

        errors = []
        thread = threading.Thread(target=writer)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave reads and writes finely
        thread.start()
        try:
            for round_no in range(30):
                batch = node_ids[(round_no * 7) % len(node_ids):][:16] \
                    or node_ids[:16]
                for _ in range(50):  # bounded retry on stale spans
                    try:
                        with checking():
                            indptr, flat = graph.outlinks_batch(batch)
                        break
                    except StaleSpanError:
                        pass
                else:
                    errors.append(f"round {round_no}: spans never settled")
                    continue
                bounds = indptr.tolist()
                values = flat.tolist()
                for i, uid in enumerate(batch):
                    if values[bounds[i]:bounds[i + 1]] != expected[uid]:
                        errors.append(f"node {uid}: wrong answer")
        finally:
            done.set()
            thread.join(timeout=60)
            sys.setswitchinterval(switch_interval)

        assert not thread.is_alive()
        assert not failures, failures
        assert not errors, errors
        assert passes  # the writer did run beside the readers
        assert {uid: graph.outlinks(uid) for uid in graph.node_ids} == expected


class TestCheckpointRoundTrip:
    def _tags(self, graph):
        return {uid: out_tag(graph, uid) for uid in graph.node_ids}

    def _images(self, graph):
        return {trunk_id: trunk_to_bytes(trunk)
                for trunk_id, trunk in graph.cloud.trunks.items()}

    @pytest.mark.parametrize("storage", ["resident", "paged"])
    def test_layout_tags_survive_checkpoint(self, storage):
        graph = build_graph(policy="adaptive", storage=storage, nodes=40)
        tags_before = self._tags(graph)
        assert set(tags_before.values()) != {LAYOUT_RAW}
        before = snapshot(graph)
        for trunk_id, image in self._images(graph).items():
            adopt_trunk_image(graph.cloud, trunk_id, image)
        assert self._tags(graph) == tags_before
        assert snapshot(graph) == before

    def _restore_into_raw_cloud(self, source):
        target_cloud = MemoryCloud(ClusterConfig(
            machines=2, memory=MemoryParams(layout_policy="raw")))
        for trunk_id, image in self._images(source).items():
            adopt_trunk_image(target_cloud, trunk_id, image)
        return Graph(target_cloud, plain_graph_schema(directed=True),
                     node_ids=sorted(source.node_ids))

    def test_restore_into_raw_policy_cloud_keeps_tags(self):
        """Layout tags live inside the cell bytes: restoring onto a
        cloud configured with a different policy must not rewrite them
        (the policy only governs *new* writes)."""
        source = build_graph(policy="adaptive", nodes=30)
        target = self._restore_into_raw_cloud(source)
        assert self._tags(target) == self._tags(source)
        assert snapshot(target) == snapshot(source)

    def test_next_write_after_restore_rechooses_tag(self):
        source = build_graph(policy="adaptive", nodes=30)
        target = self._restore_into_raw_cloud(source)
        uid, dst, other = [node for node in sorted(source.node_ids)
                           if out_tag(source, node) != LAYOUT_RAW][:3]
        expected = source.outlinks(uid) + [dst]
        target.add_edge(uid, dst)
        assert out_tag(target, uid) == LAYOUT_RAW
        assert target.outlinks(uid) == expected
        # A cell not written keeps the tag it was restored with.
        assert out_tag(target, other) == out_tag(source, other)

    def test_migrated_graph_checkpoints_cleanly(self):
        graph = build_graph(policy="raw", nodes=30)
        rewrite_pass(graph, DEFAULT_LAYOUT_POLICY)
        tags_before = self._tags(graph)
        before = snapshot(graph)
        for trunk_id, image in self._images(graph).items():
            adopt_trunk_image(graph.cloud, trunk_id, image)
        assert self._tags(graph) == tags_before
        assert snapshot(graph) == before
