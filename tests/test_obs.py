"""Tests for the observability layer: metrics, tracing, sinks, report."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    JsonFileSink,
    LineSink,
    MemorySink,
    MetricsRegistry,
    MetricsReport,
    NullSink,
    Tracer,
    get_registry,
    get_tracer,
)


class TestCounter:
    def test_inc(self):
        c = MetricsRegistry().counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_reset(self):
        c = MetricsRegistry().counter("x")
        c.inc(3)
        c.reset()
        assert c.value == 0


class TestGauge:
    def test_set_and_add(self):
        g = MetricsRegistry().gauge("g")
        g.set(10)
        g.add(-3)
        assert g.value == 7


class TestHistogram:
    def test_summary_stats(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        assert h.count == 3
        assert h.min == 0.001
        assert h.max == 0.1
        assert h.mean == pytest.approx(0.111 / 3)

    def test_quantile_interpolates_inside_the_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for _ in range(99):
            h.observe(0.5)
        h.observe(50.0)
        # Bucket one is narrowed to the observed [0.5, 1.0]; the lone
        # sample of bucket three caps it at the observed max, not 100.
        assert h.quantile(0.0) == 0.5
        assert h.quantile(0.5) == pytest.approx(0.5 + 0.5 * 50 / 99)
        assert h.quantile(1.0) == 50.0

    @pytest.mark.parametrize("samples", [
        [0.37],                              # a single sample
        [2.0, 2.5, 3.0, 7.5, 9.0, 9.9],      # one crowded bucket
        [0.2, 4.0, 5e4, 6e4, 9e5],           # mostly the overflow bucket
        [1.0, 1.0, 10.0, 10.0],              # samples on bucket bounds
    ])
    def test_quantiles_stay_inside_observed_range(self, samples):
        """Regression: the bucket's upper bound was reported, so a p99
        could exceed the max (a serving run once recorded p99 41.9 s
        over max 31.3 s)."""
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in samples:
            h.observe(value)
        quantiles = [h.quantile(q) for q in (0.0, 0.5, 0.9, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)
        assert h.min <= h.quantile(0.5) <= h.quantile(0.99) <= h.max
        assert h.quantile(0.0) == h.min and h.quantile(1.0) == h.max
        s = h.summary()
        assert s["p50"] <= s["p99"] <= s["max"]

    def test_quantile_bounds_checked(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_overflow_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0,))
        h.observe(5.0)
        assert h.snapshot()["overflow"] == 1

    def test_default_buckets_cover_sim_timescales(self):
        assert DEFAULT_BUCKETS[0] <= 1e-6
        assert DEFAULT_BUCKETS[-1] >= 10.0

    def test_summary_shape(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0, 100.0))
        assert h.summary() == {"count": 0, "mean": 0.0, "p50": 0.0,
                               "p99": 0.0, "max": 0.0}
        for _ in range(99):
            h.observe(0.5)
        h.observe(50.0)
        s = h.summary()
        assert s["count"] == 100
        assert s["mean"] == pytest.approx((99 * 0.5 + 50.0) / 100)
        assert 0.5 <= s["p50"] <= s["p99"] <= 1.0  # 99 of 100 in bucket one
        assert s["max"] == 50.0

    def test_snapshot_carries_quantiles(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap["p50"] == snap["p99"] == 0.5   # never past the max
        assert "buckets" in snap  # raw buckets are still exported


class TestRegistry:
    def test_get_or_create_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("trunk.alloc.total", trunk=3)
        b = reg.counter("trunk.alloc.total", trunk=3)
        assert a is b

    def test_labels_distinguish_series(self):
        reg = MetricsRegistry()
        a = reg.counter("n", trunk=1)
        b = reg.counter("n", trunk=2)
        assert a is not b
        snap = reg.snapshot()
        assert len(snap["n"]["series"]) == 2

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("n", a=1, b=2)
        b = reg.counter("n", b=2, a=1)
        assert a is b

    def test_kinds_do_not_collide(self):
        reg = MetricsRegistry()
        reg.counter("same")
        reg.gauge("same")  # different kind, same name: both live
        assert len(list(reg.collect())) == 2

    def test_reset_in_place_keeps_references(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(9)
        reg.reset()
        assert c.value == 0
        c.inc()  # cached reference still feeds the registry
        assert reg.counter("c").value == 1

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("a.total", m=0).inc(2)
        reg.histogram("b.seconds").observe(0.5)
        snap = reg.snapshot()
        assert snap["a.total"]["kind"] == "counter"
        assert snap["a.total"]["series"][0] == {
            "labels": {"m": "0"}, "value": 2,
        }
        assert snap["b.seconds"]["series"][0]["count"] == 1

    def test_default_registry_singleton(self):
        assert get_registry() is get_registry()


class TestSinks:
    def test_flush_without_sinks_is_free(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        assert not reg.has_sinks
        assert reg.flush() == 0

    def test_memory_sink(self):
        reg = MetricsRegistry()
        sink = MemorySink()
        reg.attach_sink(sink)
        reg.counter("x").inc(7)
        assert reg.flush() == 1
        assert sink.latest["x"]["series"][0]["value"] == 7
        reg.detach_sink(sink)
        assert not reg.has_sinks

    def test_json_file_sink(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("x").inc(3)
        path = tmp_path / "deep" / "snap.json"
        sink = JsonFileSink(path)
        reg.attach_sink(sink)
        reg.flush()
        data = json.loads(path.read_text())
        assert data["x"]["series"][0]["value"] == 3
        assert sink.exports == 1

    def test_line_sink_appends(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "journal.jsonl"
        reg.attach_sink(LineSink(path))
        reg.counter("x").inc()
        reg.flush()
        reg.flush()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["x"]["series"][0]["value"] == 1

    def test_null_sink(self):
        reg = MetricsRegistry()
        reg.attach_sink(NullSink())
        assert reg.flush() == 1


class TestTracer:
    def make_tracer(self):
        clock = {"now": 0.0}
        reg = MetricsRegistry()
        tracer = Tracer(clock=lambda: clock["now"], registry=reg)
        return tracer, clock, reg

    def test_span_duration_from_clock(self):
        tracer, clock, _ = self.make_tracer()
        with tracer.span("op") as span:
            clock["now"] += 2.5
        assert span.duration == 2.5

    def test_span_feeds_histogram(self):
        tracer, clock, reg = self.make_tracer()
        with tracer.span("op"):
            clock["now"] += 0.25
        h = reg.histogram("span.op.seconds")
        assert h.count == 1
        assert h.total == 0.25

    def test_nested_spans_record_parent(self):
        tracer, clock, _ = self.make_tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                clock["now"] += 1.0
        assert inner.parent is outer
        assert outer.parent is None

    def test_span_attrs(self):
        tracer, _, _ = self.make_tracer()
        with tracer.span("op", superstep=3) as span:
            span.set(messages=11)
        assert span.attrs == {"superstep": 3, "messages": 11}

    def test_spans_filter_and_ring_buffer(self):
        clock = {"now": 0.0}
        tracer = Tracer(clock=lambda: clock["now"],
                        registry=MetricsRegistry(), max_spans=3)
        for i in range(5):
            with tracer.span("a" if i % 2 else "b"):
                clock["now"] += 1.0
        assert len(tracer.spans()) == 3  # oldest rotated out
        assert all(s.name == "a" for s in tracer.spans("a"))
        tracer.clear()
        assert tracer.spans() == []

    def test_unfinished_span_duration_raises(self):
        tracer, _, _ = self.make_tracer()
        with tracer.span("op") as span:
            with pytest.raises(RuntimeError):
                _ = span.duration

    def test_default_tracer_wall_clock(self):
        tracer = get_tracer()
        with tracer.span("wall") as span:
            pass
        assert span.duration >= 0.0


class TestReport:
    def make_report(self):
        reg = MetricsRegistry()
        reg.counter("trunk.alloc.total", trunk=0).inc(5)
        reg.counter("trunk.alloc.total", trunk=1)  # never incremented
        reg.gauge("bsp.queue.depth").set(4)
        reg.histogram("net.round.elapsed.seconds").observe(0.001)
        return MetricsReport.from_registry(reg)

    def test_filter_by_prefix(self):
        report = self.make_report().filter("trunk.")
        assert list(report.snapshot) == ["trunk.alloc.total"]

    def test_nonzero_drops_idle_series(self):
        report = self.make_report().nonzero()
        assert len(report.snapshot["trunk.alloc.total"]["series"]) == 1

    def test_render_mentions_every_metric(self):
        text = self.make_report().render()
        for name in ("trunk.alloc.total", "bsp.queue.depth",
                     "net.round.elapsed.seconds"):
            assert name in text
        assert "count=1" in text  # histogram summary line

    def test_render_caps_series(self):
        reg = MetricsRegistry()
        for i in range(20):
            reg.counter("many", i=i).inc()
        text = MetricsReport.from_registry(reg).render(
            max_series_per_metric=4
        )
        assert "... 16 more series" in text

    def test_empty_report_renders_placeholder(self):
        assert MetricsReport({}).render() == "(no metrics recorded)"

    def test_series_count(self):
        assert self.make_report().series_count == 4
