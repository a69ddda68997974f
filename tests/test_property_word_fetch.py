"""A resident read copies whole 8-byte words, rebased once for the read.

``MemoryCloud.bulk_get_spans`` copies the words under every span
(``storage.word_spans``) and rebases each span to its first word's
place plus its offset in that word.  Payloads of 0–40 bytes behind
16-byte cell headers start at every offset in a word; the trunk size
4100 is not a multiple of 8, and one cell ends on its arena's last
byte, so the last word read runs past the trunk's length.  Whatever the
layout, a batched read equals the scalar one, and the read buffer is
exactly the words under the spans.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig, MemoryParams
from repro.graph import GraphBuilder
from repro.graph.model import social_graph_schema
from repro.memcloud import CELL_HEADER_BYTES, MemoryCloud
from repro.obs import MetricsRegistry
from repro.utils.hashing import trunk_of

PARAMS = MemoryParams(page_size=4, trunk_size=4100)


def make_cloud() -> MemoryCloud:
    return MemoryCloud(ClusterConfig(machines=1, trunk_bits=1,
                                     memory=PARAMS), MetricsRegistry())


def words_under(cloud: MemoryCloud, uids) -> int:
    """The 8-byte words under each cell's payload span in its arena."""
    located = {}
    for trunk in cloud.trunks.values():
        _, keys, states, starts, limits = trunk.span_table()
        live = states == 1
        located.update(zip(keys[live].tolist(),
                           zip(starts[live].tolist(), limits[live].tolist())))
    return sum((limit + 7) // 8 - start // 8
               for start, limit in map(located.get, uids))


def read_bytes(cloud: MemoryCloud) -> int:
    return cloud.obs.counter("memcloud.cloud.read_buffer_bytes").value


class TestWordFetch:

    @settings(max_examples=150, deadline=None)
    @given(payloads=st.lists(st.binary(max_size=40), min_size=1,
                             max_size=40),
           data=st.data())
    def test_bulk_get_is_the_get_loop(self, payloads, data):
        cloud = make_cloud()
        uids = list(range(len(payloads)))
        cloud.bulk_put(uids, payloads)
        # one more cell of trunk 0, sized to end on its arena's last byte
        trunk = cloud.trunks[0]
        room = PARAMS.trunk_size - trunk.stats().reserved_bytes
        last = next(uid for uid in range(len(uids), 1 << 20)
                    if trunk_of(uid, 1) == 0)
        cloud.put(last, bytes([7]) * (room - CELL_HEADER_BYTES))
        assert trunk.stats().reserved_bytes == len(trunk.storage) == 4100
        uids.append(last)
        read = data.draw(st.lists(st.sampled_from(uids), min_size=1,
                                  max_size=60) | st.permutations(uids))
        before = read_bytes(cloud)
        assert cloud.bulk_get(read) == [cloud.get(uid) for uid in read]
        assert read_bytes(cloud) - before == 8 * words_under(cloud, read)

    @settings(max_examples=60, deadline=None)
    @given(names=st.lists(st.text(max_size=20), min_size=2, max_size=24),
           data=st.data())
    def test_batched_graph_reads_are_their_scalar_twins(self, names, data):
        n = len(names)
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=4 * n))
        builder = GraphBuilder(make_cloud(), social_graph_schema())
        for node, name in enumerate(names):
            builder.add_node(node, Name=name)
        builder.add_edges([edge for edge in edges if edge[0] != edge[1]])
        graph = builder.finalize()
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1),
                                          min_size=1, max_size=3 * n)))
        indptr, flat = graph.outlinks_batch(ids)
        assert [flat[a:b].tolist() for a, b in zip(indptr, indptr[1:])] \
            == [graph.outlinks(int(node)) for node in ids]
        for value in {names[0], data.draw(st.sampled_from(names)), "x"}:
            assert graph.field_eq_batch(ids, "Name", value).tolist() == [
                graph.read_field(int(node), "Name") == value
                for node in ids]
        assert graph.read_field_batch(ids, "Name") == [
            graph.read_field(int(node), "Name") for node in ids]


class TestFieldReadsCopyTheField:
    """A ``Name`` read copies the words under the name, not the cell:
    ``Name`` is the social schema's first field, so its length varint
    ends it.  An adjacency read after it still copies whole cells."""

    def test_name_read_skips_the_adjacency(self):
        cloud = MemoryCloud(ClusterConfig(machines=1, trunk_bits=2),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, social_graph_schema())
        k = 24
        for node in range(k + 200):
            builder.add_node(node, Name=("David", "Mary", "Al")[node % 3])
        builder.add_edges([(hub, k + (hub * 7 + j) % 200)
                           for hub in range(k) for j in range(64 + hub)])
        graph = builder.finalize()
        ids = np.arange(k)
        assert (graph.degree_batch(ids) >= 64).all()
        before = read_bytes(cloud)
        hits = graph.field_eq_batch(ids, "Name", "David")
        # its length byte and ≤ 5 name bytes lie in at most two words
        assert read_bytes(cloud) - before <= 24 * k
        assert hits.tolist() == [node % 3 == 0 for node in range(k)]
        before = read_bytes(cloud)
        graph.outlinks_batch(ids)
        assert read_bytes(cloud) - before == 8 * words_under(cloud,
                                                             ids.tolist())

    def test_a_long_name_read_stops_at_its_length(self):
        """Two- and three-byte length varints end the name too."""
        cloud = MemoryCloud(ClusterConfig(machines=1, trunk_bits=2),
                            MetricsRegistry())
        builder = GraphBuilder(cloud, social_graph_schema())
        names = ["x" * 200, "y" * 16400]
        for node in range(200):
            builder.add_node(node, Name=names[node] if node < 2 else "Al")
        builder.add_edges([(hub, other) for hub in range(2)
                           for other in range(2, 200)])
        graph = builder.finalize()
        before = read_bytes(cloud)
        assert graph.read_field_batch([0, 1], "Name") == names
        # the words under each length and name, one more where unaligned
        assert read_bytes(cloud) - before <= sum(
            8 * ((size + len(name) + 7) // 8 + 1)
            for size, name in zip((2, 3), names))
