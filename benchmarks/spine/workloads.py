"""The six workloads of the benchmark spine.

Every workload is a closed loop driven from one thread: a *block* is a
fixed amount of work (so many requests, one load/save/restore cycle, one
batch of analytics jobs) made from ``(seed, block index)`` alone, and a run
is as many blocks as fit in ``--seconds``.  The runner times the reference
kernel between blocks (``reference.py``); every statistic is taken per block
and the run reports its median over blocks.

The program under test is driven through its public entry points with its
shipped defaults: the only optional arguments passed are sizes (``machines``,
``trunk_bits``, ``trunk_size``) and, for the paged workload,
``storage="paged"`` + ``page_budget``.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import time
from collections import defaultdict

import numpy as np

from repro.algorithms.bfs import BfsProgram
from repro.algorithms.pagerank import PageRankProgram
from repro.algorithms.subgraph import generate_query_dfs
from repro.compute.bsp import BspEngine
from repro.compute.checkpoint import CheckpointManager
from repro.config import ClusterConfig, MemoryParams
from repro.generators import rmat_edges
from repro.generators.names import sample_names
from repro.graph import CsrTopology, GraphBuilder
from repro.graph.model import social_graph_schema
from repro.memcloud import MemoryCloud
from repro.obs import MetricsRegistry
from repro.serve import (
    LandmarkBfsQuery,
    PeopleSearchQuery,
    QueryServer,
    ServeConfig,
    SubgraphServeQuery,
    TqlServeQuery,
)
from repro.tfs import TrinityFileSystem
from repro.tsl.batch import batch_decoder_for

CLIENTS = 8          # callers that each wait for their reply
MACHINES = 4
SETUP_REPEATS = 3    # setup_s is the median of this many set-ups
TRACE_BLOCKS = 2     # blocks the traced pass re-runs


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


# -- request specs ----------------------------------------------------------
#
# A spec is plain data; the query object is built from it inside the
# request's clock (TqlServeQuery.__init__ parses TQL: that is request
# decode, and the user pays it).

def construct(spec):
    kind = spec[0]
    if kind == "ps":
        return PeopleSearchQuery(spec[1], "David", hops=spec[2])
    if kind == "tql":
        return TqlServeQuery(spec[1])
    if kind == "bfs":
        return LandmarkBfsQuery(spec[1], max_hops=spec[2])
    return SubgraphServeQuery(spec[1])


def tql_reach(anchor: int, hops: int) -> str:
    return (f"MATCH (a = {anchor}) -[Friends*1..{hops}]-> "
            "(b {Name: 'David'}) RETURN b")


class MixStream:
    """Distinct requests in the committed serving mix: of every 8, four
    3-hop people searches, two TQL ``*1..3`` reaches, one 4-hop landmark
    BFS and one size-4 subgraph match.  Start nodes come from per-class
    permutations and subgraph patterns are de-duplicated, so no request
    ever repeats and the result cache can never hit.

    With ``shuffle`` the classes of each ``take`` come in random order
    (same proportions).  In class order every round of 8 is the same mix
    and finishes in lock-step: half the replies (the people searches) come
    at the round's last window and half before it, which puts the pooled
    median on the gap between the two and makes it jump from run to run."""

    CLASSES = (0, 0, 0, 0, 1, 1, 2, 3)

    def __init__(self, seed: int, callers, snapshot, shuffle: bool = False):
        rng = rng_for(seed, 1)
        self._starts = [rng.permutation(callers) for _ in range(3)]
        self._cursor = [0, 0, 0]
        self._pattern_rng = rng_for(seed, 2)
        self._order_rng = rng_for(seed, 8) if shuffle else None
        self._topology, self._labels, _index = snapshot
        self._patterns: set[str] = set()

    def _start(self, cls: int) -> int:
        perm = self._starts[cls]
        self._cursor[cls] += 1
        return int(perm[(self._cursor[cls] - 1) % len(perm)])

    def _pattern(self):
        while True:
            query = generate_query_dfs(
                self._topology, self._labels, size=4,
                seed=int(self._pattern_rng.integers(0, 1 << 31)))
            if repr(query) not in self._patterns:
                self._patterns.add(repr(query))
                return query

    def take(self, count: int) -> list:
        classes = np.resize(self.CLASSES, count)
        if self._order_rng is not None:
            self._order_rng.shuffle(classes)
        specs = []
        for cls in classes.tolist():
            if cls == 0:
                specs.append(("ps", self._start(0), 3))
            elif cls == 1:
                specs.append(("tql", tql_reach(self._start(1), 3)))
            elif cls == 2:
                specs.append(("bfs", self._start(2), 4))
            else:
                specs.append(("sub", self._pattern()))
        return specs


def two_hop_reach(edges: np.ndarray, n: int) -> np.ndarray:
    """Per node, the summed degree of its neighbours: how many cells a
    2-hop query from it reads, at most."""
    src, dst = edges[:, 0], edges[:, 1]
    degree = np.bincount(edges.ravel(), minlength=n)
    return (np.bincount(src, weights=degree[dst], minlength=n)
            + np.bincount(dst, weights=degree[src], minlength=n))


def fusible_pool(seed: int, callers, reach, distinct: int) -> list:
    """Cheap fusible shapes with narrow trunk footprints: 1-hop people
    search, ``*1..2`` forward TQL, WHERE-residual TQL, reverse-edge TQL,
    1-hop BFS.

    Start nodes come from the middle fifth of the callers by 2-hop reach.
    Reach is heavy-tailed (a hub's neighbour reads thousands of cells):
    with starts from the whole range, which few heavy shapes a seed drew,
    and where zipf ranked them, moved every number of the workload by a
    fifth between seeds and by a factor of three between blocks."""
    by_reach = callers[np.argsort(reach[callers], kind="stable")]
    middle = by_reach[2 * len(by_reach) // 5:3 * len(by_reach) // 5]
    starts = rng_for(seed, 3).permutation(middle)
    pool = []
    for i in range(distinct):
        which = i % 8
        start = int(starts[i % len(starts)])
        if which < 3:
            pool.append(("ps", start, 1))
        elif which < 5:
            pool.append(("tql", tql_reach(start, 2)))
        elif which < 6:
            pool.append(("tql", f"MATCH (a = {start}) -[Friends*1..2]-> (b) "
                                "WHERE b.Name != 'David' RETURN b"))
        elif which < 7:
            pool.append(("tql", f"MATCH (a = {start}) <-[Friends*1..2]- (b) "
                                "RETURN b"))
        else:
            pool.append(("bfs", start, 1))
    return pool


def zipf_draws(seed: int, block: int, distinct: int, count: int):
    """``count`` pool indices, zipf(s = 1.0) over ranks 1..distinct."""
    weights = 1.0 / np.arange(1, distinct + 1, dtype=np.float64)
    weights /= weights.sum()
    return rng_for(seed, 4, block).choice(distinct, size=count, p=weights)


def write_script(seed: int, block: int, n: int, count: int) -> list:
    """Pre-drawn edge inserts between existing nodes."""
    rng = rng_for(seed, 5, block)
    pairs = []
    while len(pairs) < count:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            pairs.append((int(u), int(v)))
    return pairs


# -- shared machinery -------------------------------------------------------

class Digest:
    """sha256 over canonicalised results in request order.  A cached reply
    is the same object again, so a reply's encoding is remembered by id."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self._encoded: dict[int, tuple] = {}

    def add(self, result) -> None:
        if isinstance(result, np.ndarray):    # analytics values, load answers
            self._hash.update(result.tobytes())
            return
        known = self._encoded.get(id(result))
        if known is None:
            # keep `result` alive so its id stays its own
            known = self._encoded[id(result)] = (
                hashlib.sha256(repr(result).encode()).digest(), result)
        self._hash.update(known[0])

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Block:
    """What one timed block did."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.reference_s = 0.0        # the reference kernel around the block
        self.latencies: dict[str, list] = defaultdict(list)  # by op class
        self.starts: list = []        # serve: each request's clock start
        self.extra: dict[str, float] = {}

    def requests(self) -> list:
        """Latencies of everything but the writes (which are reported
        apart, beside the reads they interleave with)."""
        return [v for cls, values in self.latencies.items()
                if cls != "write" for v in values]


class Workload:
    """Set-up, correctness gate, blocks and counters of one workload."""

    name = ""
    full: dict = {}          # sizes; ``smoke`` overrides some of them
    smoke: dict = {}
    first_load = None        # load_restore: (wall, kernel) s of cycle one
    superstep_walls: dict = {}   # bsp_analytics, traced: walls by program

    def __init__(self, seed: int, smoke: bool, tracer=None):
        self.seed = seed
        self.size = dict(self.full, **(self.smoke if smoke else {}))
        self.tracer = tracer
        self.phases: dict[str, list] = defaultdict(list)   # wall per call
        self.phases_sys: dict[str, list] = defaultdict(list)
        self.digest = Digest()

    def timed(self, key, function, *args, span=None, **kwargs):
        """Call ``function``; keep its wall and kernel time under ``key``
        (``span=(name, layer)`` also records a driver-side span)."""
        if span is not None and self.tracer is not None:
            function = self.tracer.fn(function, *span)
        sys0 = os.times().system
        start = time.perf_counter()
        result = function(*args, **kwargs)
        self.phases[key].append(time.perf_counter() - start)
        self.phases_sys[key].append(os.times().system - sys0)
        return result

    def begin_block(self):
        if self.tracer is not None:
            self.tracer.begin("driver.block", "bench")
        block = Block()
        block.cpu = time.process_time()
        block.wall = time.perf_counter()
        return block

    def end_block(self, block, results=()) -> None:
        block.wall = time.perf_counter() - block.wall
        block.cpu = time.process_time() - block.cpu
        if self.tracer is not None:
            self.tracer.end()
        for result in results:
            self.digest.add(result)

    def build_graph(self, edges, names, **memory):
        """A fresh cloud with the named friendship graph loaded into it."""
        size = self.size
        config = ClusterConfig(
            machines=MACHINES, trunk_bits=size["trunk_bits"],
            memory=MemoryParams(trunk_size=size["trunk_size"], **memory))
        cloud = self.timed("create", MemoryCloud, config, MetricsRegistry(),
                           span=("driver.MemoryCloud", "memcloud.cloud"))
        builder = GraphBuilder(cloud, social_graph_schema())
        if self.tracer is not None:
            self.tracer.install(builder=builder)

        def add_nodes():
            for node_id, name in enumerate(names):
                builder.add_node(node_id, Name=name)

        self.timed("add_node", add_nodes,
                   span=("driver.add_nodes", "graph.builder"))
        self.timed("add_edges", builder.add_edges, edges)
        return cloud, self.timed("finalize", builder.finalize)

    # overridden per workload
    def setup(self) -> None: ...
    def teardown(self) -> None: ...
    def gate(self) -> dict: ...
    def first_cycle(self) -> None: ...
    def run_block(self, index: int) -> Block: ...
    def counters(self) -> dict:
        """``counts`` (which repeat exactly) and ``sums`` (of measured
        times) only ever grow: the runner reports their growth over the
        timed region.  ``levels`` are read as they stand."""
        return {}


# -- serving workloads ------------------------------------------------------

class ServeWorkload(Workload):
    """Shared by the four ``serve_*`` workloads: a named R-MAT friendship
    graph behind a default ``QueryServer``, 8 closed-loop clients."""

    memory: dict = {}

    def setup(self) -> None:
        size = self.size
        n = 1 << size["scale"]
        edges = self.timed("rmat", rmat_edges, size["scale"],
                           avg_degree=size["degree"], seed=self.seed,
                           span=("driver.rmat_edges", "generators"))
        names = self.timed("names", sample_names, n, seed=self.seed + 1,
                           span=("driver.sample_names", "generators"))
        self.cloud, self.graph = self.build_graph(edges, names, **self.memory)
        self.registry = self.cloud.obs
        self.edges = len(edges)
        self.nodes = n
        # Requests start from people who have a friend.  A third of the
        # R-MAT ids are isolated; a query from one is answered at once, and
        # with them in the mix the median latency sits on the step between
        # those and the real traversals.
        self.callers = np.unique(edges)
        self.edge_array = edges
        self.server = QueryServer(
            self.graph, ServeConfig(max_in_flight=CLIENTS),
            registry=self.registry)
        if self.tracer is not None:
            self.tracer.install(
                server=self.server, graph=self.graph, cloud=self.cloud,
                decoder=batch_decoder_for(self.graph.graph_schema.node_type))
        self.snapshot = self.timed("snapshot", self.server.snapshot)
        self.stream_reset()
        self.timed("warm_up", self.warm_up)

    def teardown(self) -> None:
        self.cloud.release_arenas()
        self.server = self.graph = self.cloud = self.snapshot = None
        self.stream = self.pool = self.edge_array = None

    # what the workload sends: overridden
    def stream_reset(self) -> None: ...
    def warm_up(self) -> None: ...
    def requests(self, index: int) -> list: ...
    def writes(self, index: int) -> list:
        return []

    def serve(self, server, specs, writes=(), block=None, first=0) -> list:
        """Closed loop: rounds of CLIENTS requests, each submitted then
        drained; the script's next write after every ``write_every``
        requests.  Returns the tickets in request order."""
        tracer = self.tracer if block is not None else None
        make = construct
        if tracer is not None:
            plain = tracer.fn(construct, "driver.construct", "serve.queries")

            def make(spec):
                query = plain(spec)
                tracer.plan_proxy(query)
                return query

        starts = []
        tickets = []
        write_walls = []
        write_at = 0
        write_every = self.size.get("write_every")
        for lo in range(0, len(specs), CLIENTS):
            for offset, spec in enumerate(specs[lo:lo + CLIENTS]):
                if tracer is not None:
                    tracer.request = first + lo + offset
                starts.append(time.perf_counter())
                tickets.append(server.submit(make(spec)))
            if tracer is not None:
                tracer.request = None
            server.run()
            if writes and (lo + CLIENTS) % write_every == 0:
                u, v = writes[write_at]
                write_at += 1
                began = time.perf_counter()
                server.mutate(lambda g: g.add_edge(u, v))
                write_walls.append(time.perf_counter() - began)
        if block is not None:
            block.starts = starts
            block.latencies["write"] = write_walls
        return tickets

    def run_block(self, index: int) -> Block:
        specs = self.requests(index)
        writes = self.writes(index)
        block = self.begin_block()
        tickets = self.serve(self.server, specs, writes, block,
                             first=index * len(specs))
        self.end_block(block)
        block.ops = len(tickets) + len(writes)
        hits = inline = 0
        for start, ticket in zip(block.starts, tickets):
            if ticket.status != "done":
                block.failed += 1
                continue
            block.latencies[ticket.query.cls_name].append(
                ticket.finished_at - start)
            hits += ticket.cached
            inline += (not ticket.cached and ticket.windows == 0)
            self.digest.add(ticket.result)   # after the block's wall
        block.extra = {"reads": len(tickets), "result_hits": hits,
                       "inline": inline,
                       "windows": sum(t.windows for t in tickets)}
        return block

    def gate(self) -> dict:
        """Replay the first requests (and writes) on a cross-checking
        server: every completion is shadow-replayed through the sequential
        library path and any divergence raises."""
        checker = QueryServer(
            self.graph, ServeConfig(cross_check=True, max_in_flight=CLIENTS),
            registry=MetricsRegistry())
        specs = self.requests(0)[:self.size["gate"]]
        writes = self.writes(0)
        tickets = self.serve(checker, specs, writes)
        return {"checked": len(tickets),
                "writes": checker.registry.counter("serve.mutations").value,
                "passed": all(t.status == "done" for t in tickets)}

    def counters(self) -> dict:
        report = self.server.report()
        snap = self.registry.snapshot()

        def series(name):
            return snap.get(name, {"series": []})["series"]

        def total(name):
            return sum(s["value"] for s in series(name))

        counts = {
            "submitted": report.admission["submitted"],
            "rejected": (report.admission["rejected_queue_full"]
                         + report.admission["rejected_deadline"]),
            "windows": report.fusion["windows"],
            "fusion_calls": total("serve.fusion.windows"),
            "fusion_ops": report.fusion["ops"],
            "batch_rounds": report.fusion["batch_rounds"],
            "fused_ids": report.fusion["fused_ids"],
            "hub_cells": report.fusion["hub_cells"],
            "batch_calls": total("query.batch.calls"),
            "batch_cells": total("query.batch.cells"),
            "batch_deduped": total("query.batch.cells_deduped"),
            "span_fetch_cells": total("memcloud.bulk.get.cells"),
            "page_faults": total("trunk.page.fault.total"),
            "page_evictions": total("trunk.page.evict.total"),
            "page_writebacks": total("trunk.page.writeback.total"),
            "span_fallbacks": total("trunk.page.span_fallback.total"),
            "mutations": total("serve.mutations"),
            "queue_waits": sum(
                s["count"] for s in series("serve.queue.wait_seconds")),
        }
        for cache, stats in report.caches.items():
            for key in ("hits", "misses", "invalidated"):
                counts[f"{cache}_{key}"] = stats[key]
        stats = [t.stats() for t in self.cloud.trunks.values()]
        levels = {
            "live_bytes": sum(s.live_bytes for s in stats),
            "committed_bytes": sum(s.committed_bytes for s in stats),
        }
        sums = {"queue_wait_s": sum(
            s["sum"] for s in series("serve.queue.wait_seconds"))}
        return {"counts": counts, "sums": sums, "levels": levels}


class ServeCold(ServeWorkload):
    name = "serve_cold"
    full = dict(scale=14, degree=8, trunk_bits=4, trunk_size=8 << 20,
                block=64, warm=32, gate=24)
    smoke = dict(scale=10, block=16, warm=8, gate=8)

    def stream_reset(self) -> None:
        self.stream = MixStream(self.seed, self.callers, self.snapshot,
                                shuffle=True)
        self._blocks: dict[int, list] = {}

    def requests(self, index: int) -> list:
        # the stream is sequential: block i is made once, in order
        while index not in self._blocks:
            self._blocks[len(self._blocks)] = self.stream.take(
                self.size["block"])
        return self._blocks[index]

    def warm_up(self) -> None:
        # from the same stream, so the timed requests repeat none of these
        self.serve(self.server, self.stream.take(self.size["warm"]))


class ServeColdPaged(ServeCold):
    name = "serve_cold_paged"
    full = ServeCold.full
    # small enough that 4 pages per trunk still cannot hold the graph
    smoke = dict(ServeCold.smoke, scale=12, trunk_bits=3)
    memory = dict(storage="paged", page_budget=4)


class ServeHot(ServeWorkload):
    name = "serve_hot"
    full = dict(scale=14, degree=8, trunk_bits=4, trunk_size=8 << 20,
                block=20000, distinct=96, gate=24)
    smoke = dict(scale=10, block=2000, distinct=24, gate=8)

    def stream_reset(self) -> None:
        self.pool = MixStream(self.seed, self.callers, self.snapshot).take(
            self.size["distinct"])

    def warm_up(self) -> None:
        # the fill pass: every distinct query is served once
        self.serve(self.server, self.pool)

    def requests(self, index: int) -> list:
        picks = zipf_draws(self.seed, index, len(self.pool),
                           self.size["block"])
        return [self.pool[i] for i in picks.tolist()]


class ServeRw(ServeWorkload):
    name = "serve_rw"
    # One write per 32 reads: at one per 8 the hit ratio sits at 0.49 and
    # the median latency on the step between hits (0.4 ms) and misses.
    full = dict(scale=14, degree=4, trunk_bits=9, trunk_size=128 << 10,
                block=256, distinct=200, gate=64, write_every=32, drift=64)
    smoke = dict(scale=10, trunk_bits=6, block=64, distinct=24, gate=32)

    def stream_reset(self) -> None:
        reach = two_hop_reach(self.edge_array, self.nodes)
        self.pool = fusible_pool(self.seed, self.callers, reach,
                                 self.size["distinct"])

    def warm_up(self) -> None:
        self.serve(self.server, self.pool)

    def requests(self, index: int) -> list:
        # Popularity drifts: every ``drift`` reads the shapes are ranked
        # afresh, each keeping to ranks of its own kind (rank r is always
        # kind r % 8, so the hottest query is always a 1-hop people search).
        # With one ranking per run, a handful of head queries set the whole
        # run's hit ratio and cost, and the numbers follow the seed instead
        # of the program.
        picks = zipf_draws(self.seed, index, len(self.pool),
                           self.size["block"])
        drift = self.size["drift"]
        rng = rng_for(self.seed, 9, index)
        by_kind = np.arange(len(self.pool)).reshape(-1, 8)
        specs = []
        for lo in range(0, len(picks), drift):
            ranked = rng.permuted(by_kind, axis=0).ravel()
            specs += [self.pool[i] for i in ranked[picks[lo:lo + drift]]]
        return specs

    def writes(self, index: int) -> list:
        return write_script(self.seed, index, self.nodes,
                            self.size["block"] // self.size["write_every"])


# -- load, checkpoint, restore ----------------------------------------------

class LoadRestore(Workload):
    name = "load_restore"
    full = dict(scale=14, degree=8, trunk_bits=4, trunk_size=1 << 20,
                sample=4096)
    smoke = dict(scale=10, sample=256)

    def setup(self) -> None:
        size = self.size
        self.nodes = 1 << size["scale"]
        self.edge_array = self.timed(
            "rmat", rmat_edges, size["scale"], avg_degree=size["degree"],
            seed=self.seed, span=("driver.rmat_edges", "generators"))
        self.names = self.timed(
            "names", sample_names, self.nodes, seed=self.seed + 1,
            span=("driver.sample_names", "generators"))
        self.sample = rng_for(self.seed, 6).choice(
            self.nodes, size=min(size["sample"], self.nodes), replace=False)
        self.edges = len(self.edge_array)
        self.last: dict = {}

    def cycle(self):
        """One load -> save -> restore cycle, verified.  Returns whether the
        restored cloud answers as the loaded one did, those answers, and
        the ``(wall, cpu)`` of the load, the save and the restore: the
        verification reads between them are not the operator's cost."""
        with tempfile.TemporaryDirectory(prefix="spine-tfs-") as root:
            checkpoints = CheckpointManager(
                TrinityFileSystem(disk_root=root), job="spine")
            if self.tracer is not None:
                self.tracer.install(checkpoints=checkpoints)
            marks = [(time.perf_counter(), time.process_time())]
            cloud, graph = self.build_graph(self.edge_array, self.names)
            try:
                marks.append((time.perf_counter(), time.process_time()))

                def answers():
                    return (cloud.total_live_bytes(),
                            *graph.outlinks_batch(self.sample))

                image_bytes = self.timed("save", checkpoints.save_cloud, 1,
                                         cloud)
                marks.append((time.perf_counter(), time.process_time()))
                committed = cloud.total_committed_bytes()
                live, indptr, flat = self.timed(
                    "verify", answers, span=("driver.verify", "bench"))
                marks.append((time.perf_counter(), time.process_time()))
                cells = self.timed("restore", checkpoints.load_cloud, 1,
                                   cloud)
                marks.append((time.perf_counter(), time.process_time()))
                live2, indptr2, flat2 = self.timed(
                    "verify", answers, span=("driver.verify", "bench"))
                same = (cells == len(graph.node_ids) and live2 == live
                        and np.array_equal(indptr, indptr2)
                        and np.array_equal(flat, flat2))
            finally:
                cloud.release_arenas()
        self.last = {"live_bytes": live, "committed_bytes": committed,
                     "image_bytes": image_bytes}
        return same, flat, np.diff(np.asarray(marks), axis=0)[[0, 1, 3]]

    def first_cycle(self) -> None:
        """The untimed first cycle: first touch of the eagerly allocated
        arenas, clocked apart as ``memcloud.trunk.first_load_s``."""
        sys0 = os.times().system
        start = time.perf_counter()
        self.cycle()
        self.first_load = (time.perf_counter() - start,
                           os.times().system - sys0)
        # the first cycle's phases are not steady state either
        for phases in (self.phases, self.phases_sys):
            for key in phases.keys() - {"rmat", "names"}:
                phases[key].clear()

    def gate(self) -> dict:
        return {"checked": 0, "passed": True}   # every cycle verifies itself

    def run_block(self, index: int) -> Block:
        block = self.begin_block()
        same, answers, clocked = self.cycle()
        self.end_block(block, [answers])
        block.wall, block.cpu = clocked.sum(axis=0).tolist()
        for cls, (wall, _cpu) in zip(("load", "save", "restore"), clocked):
            block.latencies[cls].append(float(wall))
        block.ops = 3
        block.failed = 0 if same else 3
        return block

    def counters(self) -> dict:
        return {"levels": dict(self.last)}


# -- analytics --------------------------------------------------------------

class BspAnalytics(Workload):
    name = "bsp_analytics"
    full = dict(scale=16, degree=8, gate_scale=12, bfs_per_block=2)
    smoke = dict(scale=11, gate_scale=8)

    def setup(self) -> None:
        size = self.size
        edges = self.timed("rmat", rmat_edges, size["scale"],
                           avg_degree=size["degree"], seed=self.seed,
                           span=("driver.rmat_edges", "generators"))
        self.topology = self.timed(
            "from_arrays", CsrTopology.from_arrays, edges, machines=MACHINES,
            num_nodes=1 << size["scale"],
            span=("driver.CsrTopology.from_arrays", "graph.csr"))
        self.engine = self.timed("engine_init", BspEngine, self.topology,
                                 span=("driver.BspEngine", "compute.bsp"))
        if self.tracer is not None:
            self.tracer.install(engine=self.engine)
        self.edges = self.topology.num_edges
        self.totals = defaultdict(float)
        self.superstep_walls: dict[str, list] = defaultdict(list)

    def gate(self) -> dict:
        size = self.size
        edges = rmat_edges(size["gate_scale"], avg_degree=size["degree"],
                           seed=self.seed)
        topology = CsrTopology.from_arrays(
            edges, machines=MACHINES, num_nodes=1 << size["gate_scale"])
        # cross_check re-runs the per-vertex reference path and raises
        # ComputeError on any difference in values or accounting
        engine = BspEngine(topology, cross_check=True)
        engine.run(PageRankProgram(iterations=10))
        engine.run(BfsProgram(root=0))
        return {"checked": 2, "passed": True}

    def job(self, block: Block, cls: str, program):
        hook = None
        if self.tracer is not None:
            # the public per-superstep hook, traced pass only
            marks = [time.perf_counter()]
            hook = lambda _step, _values: marks.append(time.perf_counter())
        start = time.perf_counter()
        result = self.engine.run(program, on_superstep=hook)
        block.latencies[cls].append(time.perf_counter() - start)
        if hook is not None:
            self.superstep_walls[cls].extend(np.diff(marks).tolist())
        return result

    def run_block(self, index: int) -> Block:
        block = self.begin_block()
        results = [self.job(block, "pagerank", PageRankProgram(iterations=10))]
        for _ in range(self.size["bfs_per_block"]):
            results.append(self.job(block, "bfs", BfsProgram(root=0)))
        self.end_block(block, [np.asarray(r.values) for r in results])
        block.ops = len(results)
        for result in results:
            self.totals["supersteps"] += result.superstep_count
            self.totals["messages"] += sum(
                r.messages for r in result.supersteps)
            self.totals["simulated_s"] += result.elapsed
        return block

    def counters(self) -> dict:
        return {"counts": dict(self.totals)}


WORKLOADS = {cls.name: cls for cls in (
    ServeCold, ServeHot, ServeRw, ServeColdPaged, LoadRestore, BspAnalytics)}
