"""Outside-in span tracing for the benchmark spine.

The program under test is not edited: spans are recorded by wrappers the
benchmark installs *on instances* (``server.run``, ``cloud.bulk_get_spans``
...) from the seam table below, plus driver-side spans around calls the
driver makes itself (query construction, ``MemoryCloud(...)``).  Everything
runs on one thread, so spans nest properly and a stack is enough to know
each span's parent.

A span is ``[name, layer, start, end, parent, request]``; ``parent`` is the
index of the enclosing span (-1 for a root) and ``request`` the index of the
request that caused it (``None`` for work shared by a whole round).  A
span's *self time* is its duration minus the part its child spans cover, so
self times summed over every span equal the root spans' wall.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

SPAN_COLUMNS = ("name", "layer", "start", "end", "parent", "request")

#: ``(root, attribute path, method, layer)``: where a wrapper goes.  ``root``
#: names an object the workload hands to :meth:`Tracer.install`; the span is
#: named ``root[.path].method``.
SEAMS = (
    ("server", "", "run", "serve.scheduler"),
    ("server", "", "submit", "serve.scheduler"),
    ("server", "", "mutate", "serve.scheduler"),
    ("server", "", "snapshot", "graph.csr"),
    ("server", "executor", "run_window", "serve.fusion"),
    ("server", "result_cache", "get", "serve.caches"),
    ("server", "result_cache", "put", "serve.caches"),
    ("server", "executor.hub_cache", "get", "serve.caches"),
    ("server", "executor.hub_cache", "put", "serve.caches"),
    ("graph", "", "outlinks_batch", "graph.api"),
    ("graph", "", "inlinks_batch", "graph.api"),
    ("graph", "", "field_eq_batch", "graph.api"),
    ("graph", "", "read_field_batch", "graph.api"),
    ("graph", "", "add_edge", "graph.api"),
    ("cloud", "", "bulk_get_spans", "memcloud.cloud"),
    ("cloud", "", "trunks_of_array", "memcloud.cloud"),
    ("cloud", "", "epoch_vector", "memcloud.cloud"),
    ("decoder", "", "decode_list_csr_spans", "tsl.batch"),
    ("decoder", "", "string_eq_spans", "tsl.batch"),
    ("decoder", "", "decode_column_spans", "tsl.batch"),
    ("builder", "", "add_edges", "graph.builder"),
    ("builder", "", "finalize", "graph.builder"),
    ("checkpoints", "", "save_cloud", "compute.checkpoint"),
    ("checkpoints", "", "load_cloud", "compute.checkpoint"),
    ("engine", "", "run", "compute.bsp"),
)

#: What a seam's return value counts, summed into ``Tracer.counted``.
RESULT_COUNTS = {
    # (indptr, flat): one entry of ``flat`` per edge decoded
    "decoder.decode_list_csr_spans": lambda result: len(result[1]),
}


def seam_name(root: str, path: str, method: str) -> str:
    return ".".join(filter(None, (root, path, method)))


def resolve(root, path: str):
    """Follow a dotted attribute path from ``root`` ('' is the root)."""
    target = root
    for part in filter(None, path.split(".")):
        target = getattr(target, part)
    return target


class Tracer:
    """Records spans and accumulates self time and call counts by name."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None           # set by the driver per request
        self.missing: list[str] = []  # seams that no longer resolve
        self._open: list[int] = []
        self._covered: list[float] = []   # child time per open span
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counted: dict[str, int] = defaultdict(int)
        self.layer_of: dict[str, str] = {}

    def begin(self, name: str, layer: str) -> None:
        self.layer_of[name] = layer
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self._covered.append(0.0)
        span = [name, layer, 0.0, 0.0, parent, self.request]
        self.spans.append(span)
        span[2] = time.perf_counter()

    def end(self) -> None:
        now = time.perf_counter()
        span = self.spans[self._open.pop()]
        covered = self._covered.pop()
        span[3] = now
        duration = now - span[2]
        self.self_s[span[0]] += duration - covered
        self.calls[span[0]] += 1
        if self._covered:
            self._covered[-1] += duration

    def fn(self, function, name: str, layer: str):
        """``function`` wrapped in a span."""
        count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            self.begin(name, layer)
            try:
                result = function(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                self.counted[name] += count(result)
            return result

        return traced

    def install(self, **roots) -> None:
        """Wrap every seam whose root is given; note the ones that have
        gone (``missing_seam``) instead of failing."""
        for root_name, path, method, layer in SEAMS:
            if root_name not in roots:
                continue
            name = seam_name(root_name, path, method)
            try:
                target = resolve(roots[root_name], path)
                bound = getattr(target, method)
            except AttributeError:
                self.missing.append(name)
                continue
            setattr(target, method, self.fn(bound, name, layer))

    def plan_proxy(self, query) -> None:
        """Time each step of ``query``'s plan generator as a
        ``query.plan_step`` span (the scheduler only ever calls ``send``
        on a plan)."""
        make_plan = query.plan
        query.plan = lambda ctx: _PlanProxy(self, make_plan(ctx))

    def reset_totals(self) -> None:
        """Forget accumulated self times and counts (spans are kept): the
        timed region starts here."""
        self.self_s.clear()
        self.calls.clear()
        self.counted.clear()

    def layer_self_s(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            totals[self.layer_of[name]] += seconds
        return dict(totals)

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as out:
            json.dump({**header, "columns": SPAN_COLUMNS,
                       "missing_seam": self.missing,
                       "spans": self.spans}, out)


class _PlanProxy:
    def __init__(self, tracer: Tracer, plan):
        self._tracer = tracer
        self._plan = plan

    def send(self, value):
        self._tracer.begin("query.plan_step", "serve.queries")
        try:
            return self._plan.send(value)
        finally:
            self._tracer.end()
