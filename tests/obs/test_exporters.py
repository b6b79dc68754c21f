"""Round-trip tests for the machine-readable exporters.

The acceptance criterion: everything ``render_prometheus`` and the JSONL
dump emit must survive a parse back to the original values — the formats
are contracts, not pretty-printing.
"""

import json
import math

from repro.obs import (
    EventTracer,
    MetricsRegistry,
    SpanTable,
    Telemetry,
    events_to_jsonl,
    parse_jsonl,
    parse_prometheus,
    render_prometheus,
    run_summary,
    tracing,
)


def _loaded_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("repro_messages_total", help="messages by kind", kind="update").inc(42)
    reg.counter("repro_messages_total", kind="resync").inc(3)
    reg.gauge("repro_fleet_size").set(12)
    reg.gauge("repro_advertised_bound", stream="s-1").set(2.5)
    h = reg.histogram("repro_step_seconds", buckets=(0.001, 0.01, 0.1))
    for v in (0.0005, 0.002, 0.05, 3.0):
        h.observe(v)
    return reg


class TestPrometheusRoundTrip:
    def test_counters_and_gauges_round_trip(self):
        text = render_prometheus(_loaded_registry())
        samples = parse_prometheus(text)
        assert samples[("repro_messages_total", (("kind", "update"),))] == 42
        assert samples[("repro_messages_total", (("kind", "resync"),))] == 3
        assert samples[("repro_fleet_size", ())] == 12
        assert samples[("repro_advertised_bound", (("stream", "s-1"),))] == 2.5

    def test_histogram_series_round_trip(self):
        samples = parse_prometheus(render_prometheus(_loaded_registry()))
        assert samples[("repro_step_seconds_bucket", (("le", "0.001"),))] == 1
        assert samples[("repro_step_seconds_bucket", (("le", "0.01"),))] == 2
        assert samples[("repro_step_seconds_bucket", (("le", "0.1"),))] == 3
        assert samples[("repro_step_seconds_bucket", (("le", "+Inf"),))] == 4
        assert samples[("repro_step_seconds_count", ())] == 4
        assert samples[("repro_step_seconds_sum", ())] == 3.0525

    def test_help_and_type_comments_present(self):
        text = render_prometheus(_loaded_registry())
        assert "# HELP repro_messages_total messages by kind" in text
        assert "# TYPE repro_messages_total counter" in text
        assert "# TYPE repro_step_seconds histogram" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'quote " slash \\ newline \n end'
        reg.counter("repro_x_total", who=tricky).inc()
        samples = parse_prometheus(render_prometheus(reg))
        ((name, labels),) = list(samples)
        assert name == "repro_x_total"
        assert dict(labels)["who"] == tricky

    def test_infinite_gauge_round_trips(self):
        reg = MetricsRegistry()
        reg.gauge("repro_bound").set(math.inf)
        samples = parse_prometheus(render_prometheus(reg))
        assert samples[("repro_bound", ())] == math.inf

    def test_spans_exported_as_counters(self):
        spans = SpanTable()
        with spans.span("probe"):
            pass
        samples = parse_prometheus(render_prometheus(MetricsRegistry(), spans))
        assert samples[("repro_span_entries_total", (("span", "probe"),))] == 1
        assert samples[("repro_span_seconds_total", (("span", "probe"),))] >= 0


class TestJsonlRoundTrip:
    def test_events_round_trip(self):
        tracer = EventTracer()
        tracer.record(tracing.MSG_SENT, 7, stream_id="s0", msg="update")
        tracer.record(tracing.DEGRADE_EXIT, 9, stream_id="s0", duration=4)
        text = events_to_jsonl(tracer.events())
        rows = parse_jsonl(text)
        assert rows == [
            {"kind": "msg_sent", "tick": 7, "stream_id": "s0", "msg": "update"},
            {"kind": "degrade_exit", "tick": 9, "stream_id": "s0", "duration": 4},
        ]

    def test_durability_events_round_trip(self):
        tracer = EventTracer()
        tracer.record(tracing.CHECKPOINT_WRITE, 4000, generation=7, bytes=1024)
        tracer.record(tracing.RECOVERY_STAGE, 0, generation=7, stage="verifying")
        tracer.record(
            tracing.RECOVERY_FALLBACK, 0, generation=7, error="payload SHA-256"
        )
        rows = parse_jsonl(events_to_jsonl(tracer.events()))
        assert rows == [
            {"kind": "checkpoint_write", "tick": 4000, "bytes": 1024, "generation": 7},
            {"kind": "recovery_stage", "tick": 0, "generation": 7, "stage": "verifying"},
            {
                "kind": "recovery_fallback",
                "tick": 0,
                "error": "payload SHA-256",
                "generation": 7,
            },
        ]

    def test_empty_trace_is_empty_text(self):
        assert events_to_jsonl([]) == ""
        assert parse_jsonl("") == []

    def test_one_object_per_line(self):
        tracer = EventTracer()
        for tick in range(5):
            tracer.record(tracing.HEARTBEAT, tick)
        lines = events_to_jsonl(tracer.events()).splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["kind"] == "heartbeat" for line in lines)


class TestRunSummary:
    def test_summary_is_json_serializable_and_complete(self):
        tel = Telemetry(trace_capacity=2)
        tel.inc("repro_messages_total", kind="update")
        with tel.span("probe"):
            pass
        for tick in range(3):
            tel.event(tracing.HEARTBEAT, tick)
        summary = tel.summary()
        json.dumps(summary)  # must not raise
        assert summary["metrics"]["repro_messages_total"]["values"]["kind=update"] == 1
        assert summary["spans"]["probe"]["count"] == 1
        assert summary["events"] == {
            "recorded": 3,
            "retained": 2,
            "dropped": 1,
            "by_kind": {"heartbeat": 2},
        }

    def test_partial_summary_without_spans_or_tracer(self):
        summary = run_summary(MetricsRegistry())
        assert list(summary) == ["metrics"]

    def test_serving_metrics_round_trip(self):
        """The serving tier's whole vocabulary survives both exporters.

        A real QueryServer run (fresh serves, an overload burst, the
        transition events) is exported to Prometheus text and JSONL and
        parsed back; every counter, histogram, gauge and event must come
        back to the values the server recorded.
        """
        import asyncio

        from repro.serving import (
            AdmissionConfig,
            AggregateQuery,
            PointQuery,
            QueryServer,
            ServingStore,
        )

        tel = Telemetry()
        store = ServingStore({"s0": 0.5})
        for k in range(20):
            store.ingest("s0", k, float(k))
            store.advance_tick()
        server = QueryServer(store, AdmissionConfig(max_inflight=2), telemetry=tel)
        query = AggregateQuery("s0", "mean", 8)

        async def drive():
            await server.handle(PointQuery("s0"))
            await server.handle(query)  # fills the degradation cache
            store.advance_tick()  # a stale entry: degraded only under overload
            await asyncio.gather(*(server.handle(query) for _ in range(10)))

        asyncio.run(drive())

        samples = parse_prometheus(tel.render_prometheus())
        assert (
            samples[("repro_serving_requests_total", (("kind", "point"),))] == 1
        )
        n_agg = samples[("repro_serving_requests_total", (("kind", "aggregate"),))]
        assert n_agg == 11
        degraded = samples[("repro_serving_degraded_total", (("kind", "aggregate"),))]
        assert degraded == server.requests_degraded > 0
        assert samples[("repro_serving_inflight", ())] == 0
        assert (
            samples[
                ("repro_serving_latency_seconds_count", (("kind", "aggregate"),))
            ]
            == 11
        )
        # Span timings export as counters, one entry per fresh evaluation;
        # degraded serves and keep-hot cache hits both skip the span.  Two
        # fresh: the fill, and the first burst request served once
        # in-flight fell back to the limit (the stale entry is not served
        # without overload); the last one is a keep-hot hit on it.
        cache_hits = samples[
            ("repro_serving_cache_hits_total", (("kind", "aggregate"),))
        ]
        assert cache_hits == server.cache_hits > 0
        fresh_agg = n_agg - degraded - cache_hits
        assert fresh_agg == 2
        assert (
            samples[("repro_span_entries_total", (("span", "serving.aggregate"),))]
            == fresh_agg
        )

        rows = parse_jsonl(tel.events_jsonl())
        kinds = [row["kind"] for row in rows]
        assert kinds.count("overload_enter") == 1
        assert kinds.count("overload_exit") == 1
        enter = next(r for r in rows if r["kind"] == "overload_enter")
        assert enter["inflight"] > 2

    def test_dump_writes_all_three_files(self, tmp_path):
        tel = Telemetry()
        tel.inc("repro_ticks_total", 5)
        tel.event(tracing.MSG_SENT, 1, stream_id="s")
        paths = tel.dump(tmp_path / "out")
        assert sorted(p.name for p in paths.values()) == [
            "metrics.prom",
            "summary.json",
            "trace.jsonl",
        ]
        samples = parse_prometheus(paths["metrics"].read_text())
        assert samples[("repro_ticks_total", ())] == 5
        assert parse_jsonl(paths["trace"].read_text())[0]["kind"] == "msg_sent"
        assert json.loads(paths["summary"].read_text())["events"]["recorded"] == 1
