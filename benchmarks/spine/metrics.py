"""Named metrics from the raw results of ``worker.py``.

End-to-end metrics come from an untraced pass alone.  Per-layer metrics
take their self times from the traced pass, their counts from the first
``TRACE_BLOCKS`` blocks (which both passes run on identical inputs, so the
counts repeat exactly) and their latencies from the untraced pass.

A per-layer metric whose layer does no work on a workload is ``None``
here; ``run.py`` prints it as ``-`` and the one-line contract result
carries it as 0.
"""

from __future__ import annotations

import statistics

from reference import on_reference_clock


def median(values):
    return statistics.median(values) if values else None


def ratio(part, whole):
    if part is None or not whole:
        return None
    return part / whole


def scaled(value, factor):
    return None if value is None else value * factor


# -- end to end -------------------------------------------------------------

def end_to_end(raw: dict) -> dict:
    """``{name: (value, unit, samples)}`` from one untraced pass.

    Every time is on the reference clock (``reference.py``): a block's, by
    what the reference kernel took just before and after that block.

    Every statistic is taken per block and the run reports the median over
    blocks: interference on this kind of box comes in bursts of a second or
    so, which the reference clock only partly follows; they slow a few
    blocks and leave the median alone, whereas a percentile pooled over the
    run moves with every burst (README, finding 5).
    """
    blocks = raw["blocks"]

    def over_blocks(key, scale=1.0):
        return median([on_reference_clock(b[key], b["reference_s"]) * scale
                       for b in blocks])

    return {
        "ops_per_s": (median([
            b["ops"] / on_reference_clock(b["wall"], b["reference_s"])
            for b in blocks]), "1/s", len(blocks)),
        "op_p50_ms": (over_blocks("p50", 1e3), "ms", len(blocks)),
        "op_p95_ms": (over_blocks("p95", 1e3), "ms", len(blocks)),
        "rss_peak_mb": (raw["rss_peak_mb"], "MiB", 1),
        "setup_s": (median(list(map(on_reference_clock, raw["setup_s"],
                                    raw["setup_reference_s"]))),
                    "s", len(raw["setup_s"])),
    }


# -- per layer --------------------------------------------------------------

class Passes:
    """The untraced and the traced pass of one workload, with the lookups
    the metric table below needs."""

    def __init__(self, untraced: dict, traced: dict):
        self.u = untraced
        self.t = traced
        self.trace = traced["trace"]
        self.counts = traced["at_trace"]["counts"]
        self.levels = traced["at_trace"]["levels"]
        self.missing = set(self.trace["missing_seam"])
        self.serving = "submitted" in self.counts

    def self_s(self, *names):
        """Summed self time of the named spans; None when a seam is gone
        or none of them ever ran."""
        if self.missing.intersection(names):
            return None
        if not any(name in self.trace["calls"] for name in names):
            return None
        return sum(self.trace["self_s"].get(name, 0.0) for name in names)

    def calls(self, name):
        if name in self.missing or not self.serving:
            return None
        return self.trace["calls"].get(name, 0)

    def count(self, name):
        return self.counts.get(name)

    def level(self, name):
        return self.levels.get(name)

    def cls_ms(self, cls, q="p50"):
        summary = self.u["classes"].get(cls)
        return summary[q] * 1e3 if summary else None

    def phase(self, key, sys=False):
        """Median wall (or kernel) seconds of a driver-timed phase: over
        the timed cycles where the workload repeats it, else over the
        set-ups."""
        suffix = "_sys" if sys else ""
        values = (self.u["cycle_phases" + suffix].get(key)
                  or self.u["phases" + suffix].get(key))
        return median(values)

    def traced_blocks(self, key):
        values = [b.get(key) for b in self.t["blocks"]]
        return None if None in values else sum(values)


CACHE_SPANS = ("server.result_cache.get", "server.result_cache.put",
               "server.executor.hub_cache.get",
               "server.executor.hub_cache.put")
READ_SPANS = ("graph.outlinks_batch", "graph.inlinks_batch",
              "graph.field_eq_batch", "graph.read_field_batch")


def _lookups(p):
    parts = [p.count(k) for k in ("result_hits", "result_misses",
                                  "hub_hits", "hub_misses")]
    return None if None in parts else sum(parts)


def _hit_ratio(p, cache):
    hits, misses = p.count(f"{cache}_hits"), p.count(f"{cache}_misses")
    return None if hits is None else ratio(hits, hits + misses)


def _load_kedges(p):
    parts = [p.phase(k) for k in ("add_node", "add_edges", "finalize")]
    if None in parts:
        return None
    return p.u["edges"] / sum(parts) / 1e3


def _first_load(p, index):
    first = p.u.get("first_load")
    return first[index] if first else None


def _wall_over_cpu(p):
    blocks = p.u["blocks"]
    return sum(b["wall"] for b in blocks) / sum(b["cpu"] for b in blocks)


def _overhead(p):
    return (sum(p.t["at_trace"]["walls"])
            / sum(p.u["at_trace"]["walls"]) - 1.0)


#: ``(name, unit, better, value(passes))`` in layer order.
PER_LAYER = (
    ("serve.scheduler.self_s", "s", "lower",
     lambda p: p.self_s("server.run", "server.submit", "server.mutate")),
    ("serve.scheduler.windows", "count", "lower",
     lambda p: p.count("windows")),
    ("serve.scheduler.windows_per_query", "count", "lower",
     lambda p: ratio(p.traced_blocks("windows"), p.traced_blocks("reads"))),
    ("serve.scheduler.queue_wait_mean_ms", "ms", "lower",
     lambda p: scaled(ratio(p.u["sums"].get("queue_wait_s"),
                            p.u["counts"].get("queue_waits")), 1e3)),
    ("serve.scheduler.latency_p99_ms", "ms", "lower",
     lambda p: p.u["ops"]["p99"] * 1e3 if p.serving else None),
    ("serve.scheduler.rejected", "count", "lower",
     lambda p: p.count("rejected")),
    ("serve.scheduler.write_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("write")),

    ("serve.queries.construct_self_s", "s", "lower",
     lambda p: p.self_s("driver.construct")),
    ("serve.queries.plan_self_s", "s", "lower",
     lambda p: p.self_s("query.plan_step")),
    ("serve.queries.people_search_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("people_search")),
    ("serve.queries.tql_p50_ms", "ms", "lower", lambda p: p.cls_ms("tql")),
    ("serve.queries.landmark_bfs_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("landmark_bfs")),
    ("serve.queries.subgraph_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("subgraph")),
    ("serve.queries.inline_share", "ratio", "lower",
     lambda p: ratio(p.traced_blocks("inline"), p.traced_blocks("reads"))),

    ("serve.fusion.self_s", "s", "lower",
     lambda p: p.self_s("server.executor.run_window")),
    ("serve.fusion.calls", "count", "lower",
     lambda p: p.count("fusion_calls")),
    ("serve.fusion.ops", "count", "lower", lambda p: p.count("fusion_ops")),
    ("serve.fusion.batch_rounds", "count", "lower",
     lambda p: p.count("batch_rounds")),
    ("serve.fusion.ids_per_round", "count", "higher",
     lambda p: ratio(p.count("fused_ids"), p.count("batch_rounds"))),
    ("serve.fusion.hub_cells_share", "ratio", "higher",
     lambda p: ratio(p.count("hub_cells"), p.count("fused_ids"))),

    ("serve.caches.self_s", "s", "lower", lambda p: p.self_s(*CACHE_SPANS)),
    ("serve.caches.lookups", "count", "lower", _lookups),
    ("serve.caches.result_hit_ratio", "ratio", "higher",
     lambda p: _hit_ratio(p, "result")),
    ("serve.caches.hub_hit_ratio", "ratio", "higher",
     lambda p: _hit_ratio(p, "hub")),
    ("serve.caches.result_invalidated", "count", "lower",
     lambda p: p.count("result_invalidated")),
    ("serve.caches.hub_invalidated", "count", "lower",
     lambda p: p.count("hub_invalidated")),

    ("graph.api.read_self_s", "s", "lower", lambda p: p.self_s(*READ_SPANS)),
    ("graph.api.batch_calls", "count", "lower",
     lambda p: p.count("batch_calls")),
    ("graph.api.batch_cells", "count", "lower",
     lambda p: p.count("batch_cells")),
    ("graph.api.dedup_share", "ratio", "higher",
     lambda p: ratio(p.count("batch_deduped"), p.count("batch_cells"))),
    ("graph.api.add_edge_self_s", "s", "lower",
     lambda p: p.self_s("graph.add_edge")),
    ("graph.api.add_edge_calls", "count", "lower",
     lambda p: p.calls("graph.add_edge")),

    ("memcloud.cloud.span_fetch_self_s", "s", "lower",
     lambda p: p.self_s("cloud.bulk_get_spans")),
    ("memcloud.cloud.span_fetch_calls", "count", "lower",
     lambda p: p.calls("cloud.bulk_get_spans")),
    ("memcloud.cloud.span_fetch_ns_per_cell", "ns", "lower",
     lambda p: scaled(ratio(p.self_s("cloud.bulk_get_spans"),
                            p.count("span_fetch_cells")), 1e9)),
    ("memcloud.cloud.route_self_s", "s", "lower",
     lambda p: p.self_s("cloud.trunks_of_array")),
    ("memcloud.cloud.epoch_vector_self_s", "s", "lower",
     lambda p: p.self_s("cloud.epoch_vector")),
    ("memcloud.cloud.create_s", "s", "lower", lambda p: p.phase("create")),

    ("memcloud.trunk.live_bytes", "bytes", "lower",
     lambda p: p.level("live_bytes")),
    ("memcloud.trunk.committed_bytes", "bytes", "lower",
     lambda p: p.level("committed_bytes")),
    ("memcloud.trunk.utilization", "ratio", "higher",
     lambda p: ratio(p.level("live_bytes"), p.level("committed_bytes"))),
    ("memcloud.trunk.bytes_per_edge", "bytes", "lower",
     lambda p: ratio(p.level("live_bytes"), p.u["edges"])),
    ("memcloud.trunk.first_load_s", "s", "lower",
     lambda p: _first_load(p, 0)),
    ("memcloud.trunk.first_load_sys_s", "s", "lower",
     lambda p: _first_load(p, 1)),

    ("memcloud.storage.page_faults", "count", "lower",
     lambda p: p.count("page_faults")),
    ("memcloud.storage.page_evictions", "count", "lower",
     lambda p: p.count("page_evictions")),
    ("memcloud.storage.page_writebacks", "count", "lower",
     lambda p: p.count("page_writebacks")),
    ("memcloud.storage.span_fallbacks", "count", "lower",
     lambda p: p.count("span_fallbacks")),
    ("memcloud.storage.faults_per_query", "count", "lower",
     lambda p: ratio(p.count("page_faults"), p.count("submitted"))),

    ("tsl.batch.decode_self_s", "s", "lower",
     lambda p: p.self_s("decoder.decode_list_csr_spans")),
    ("tsl.batch.decode_calls", "count", "lower",
     lambda p: p.calls("decoder.decode_list_csr_spans")),
    ("tsl.batch.edges_decoded", "count", "lower",
     lambda p: p.trace["counted"].get("decoder.decode_list_csr_spans")),
    ("tsl.batch.decode_ns_per_edge", "ns", "lower",
     lambda p: scaled(ratio(
         p.self_s("decoder.decode_list_csr_spans"),
         p.trace["counted"].get("decoder.decode_list_csr_spans")), 1e9)),
    ("tsl.batch.string_eq_self_s", "s", "lower",
     lambda p: p.self_s("decoder.string_eq_spans")),
    ("tsl.batch.column_self_s", "s", "lower",
     lambda p: p.self_s("decoder.decode_column_spans")),

    ("graph.builder.add_node_s", "s", "lower", lambda p: p.phase("add_node")),
    ("graph.builder.add_edges_s", "s", "lower",
     lambda p: p.phase("add_edges")),
    ("graph.builder.finalize_s", "s", "lower", lambda p: p.phase("finalize")),
    ("graph.builder.finalize_sys_s", "s", "lower",
     lambda p: p.phase("finalize", sys=True)),
    ("graph.builder.load_kedges_per_s", "kedges/s", "higher", _load_kedges),

    ("compute.checkpoint.save_self_s", "s", "lower",
     lambda p: p.self_s("checkpoints.save_cloud")),
    ("compute.checkpoint.restore_self_s", "s", "lower",
     lambda p: p.self_s("checkpoints.load_cloud")),
    ("compute.checkpoint.save_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("save")),
    ("compute.checkpoint.restore_p50_ms", "ms", "lower",
     lambda p: p.cls_ms("restore")),
    ("compute.checkpoint.image_bytes", "bytes", "lower",
     lambda p: p.level("image_bytes")),
    ("compute.checkpoint.image_bytes_per_live_byte", "ratio", "lower",
     lambda p: ratio(p.level("image_bytes"), p.level("live_bytes"))),

    ("compute.bsp.pagerank_medges_per_s", "Medges/s", "higher",
     lambda p: scaled(ratio(10 * p.u["edges"],
                            scaled(p.cls_ms("pagerank"), 1e-3)), 1e-6)),
    ("compute.bsp.bfs_p50_ms", "ms", "lower", lambda p: p.cls_ms("bfs")),
    ("compute.bsp.pagerank_superstep_p50_ms", "ms", "lower",
     lambda p: p.trace["superstep_p50_ms"].get("pagerank")),
    ("compute.bsp.bfs_superstep_p50_ms", "ms", "lower",
     lambda p: p.trace["superstep_p50_ms"].get("bfs")),
    ("compute.bsp.supersteps", "count", "lower",
     lambda p: p.count("supersteps")),
    ("compute.bsp.messages", "count", "lower", lambda p: p.count("messages")),
    ("compute.bsp.simulated_s", "s", "lower",
     lambda p: p.count("simulated_s")),
    ("compute.bsp.engine_init_s", "s", "lower",
     lambda p: p.phase("engine_init")),

    ("graph.csr.from_arrays_s", "s", "lower",
     lambda p: p.phase("from_arrays")),
    ("graph.csr.snapshot_s", "s", "lower", lambda p: p.phase("snapshot")),

    ("generators.rmat_s", "s", "lower", lambda p: p.phase("rmat")),
    ("generators.names_s", "s", "lower", lambda p: p.phase("names")),

    ("bench.driver_self_s", "s", "lower",
     lambda p: p.trace["layer_self_s"]["bench"]),
    ("bench.unattributed_share", "ratio", "lower",
     lambda p: ratio(p.self_s("driver.block"), p.trace["root_wall_s"])),
    ("bench.trace_overhead_share", "ratio", "lower", _overhead),
    ("bench.wall_over_cpu", "ratio", "lower", _wall_over_cpu),
    ("bench.spans", "count", "lower", lambda p: p.trace["spans"]),
    ("bench.import_s", "s", "lower", lambda p: p.u["import_s"]),
    ("bench.reference_ms", "ms", "lower",
     lambda p: median([b["reference_s"] for b in p.u["blocks"]]) * 1e3),
    ("bench.wall_ops_per_s", "1/s", "higher",
     lambda p: median([b["ops"] / b["wall"] for b in p.u["blocks"]])),
)


def per_layer(untraced: dict, traced: dict) -> dict:
    """``{name: (value or None, unit)}`` in table order."""
    passes = Passes(untraced, traced)
    return {name: (value(passes), unit)
            for name, unit, _better, value in PER_LAYER}


def passes_agree(untraced: dict, traced: dict) -> list[str]:
    """What the traced pass failed to reproduce from the untraced one over
    their shared first blocks: answers and every count must be identical."""
    problems = []
    a, b = untraced["at_trace"], traced["at_trace"]
    if a["digest"] != b["digest"]:
        problems.append("answers_digest differs between the passes")
    for key in sorted(set(a["counts"]) | set(b["counts"])):
        if a["counts"].get(key) != b["counts"].get(key):
            problems.append(f"count {key}: untraced {a['counts'].get(key)} "
                            f"!= traced {b['counts'].get(key)}")
    if a["levels"] != b["levels"]:
        problems.append(f"levels differ: {a['levels']} != {b['levels']}")
    return problems
