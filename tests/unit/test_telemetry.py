"""Unit tests for the telemetry building blocks (:mod:`repro.obs`).

Covers the pieces that must be exactly right for the integration layer to
be trustworthy: histogram bucket math and percentile interpolation, the
Chrome trace-event exporter's schema, clock-offset alignment when merging
exported tracer buffers, and the ``Pipeline(telemetry=...)`` coercion.
"""

import json

import pytest

from repro.obs.export import chrome_trace, jsonl_events, prometheus_text
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, TimeSeriesSampler
from repro.obs.telemetry import Telemetry, TelemetryConfig, coerce_telemetry
from repro.obs.tracer import SpanRecord, SpanTracer, merge_exports


class TestHistogram:
    def test_default_bounds_are_log_spaced_and_sorted(self):
        assert DEFAULT_BOUNDS[0] == pytest.approx(1e-6)
        for lower, upper in zip(DEFAULT_BOUNDS, DEFAULT_BOUNDS[1:]):
            assert upper == pytest.approx(2 * lower)
        assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)

    def test_observe_lands_in_the_covering_bucket(self):
        histogram = Histogram(bounds=(0.001, 0.01, 0.1))
        histogram.observe(0.0005)  # <= 0.001 -> bucket 0
        histogram.observe(0.001)  # boundary is inclusive (bisect_left)
        histogram.observe(0.05)  # <= 0.1 -> bucket 2
        histogram.observe(5.0)  # overflow bucket
        assert histogram.counts == [2, 0, 1, 1]
        assert histogram.total == 4
        assert histogram.sum_s == pytest.approx(0.0005 + 0.001 + 0.05 + 5.0)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram(bounds=(0.1, 0.01))

    def test_percentile_interpolates_within_bucket(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        for _ in range(10):
            histogram.observe(1.5)  # all ten samples in the (1.0, 2.0] bucket
        # The rank of p50 falls halfway through the bucket's count, so the
        # estimate is the linear interpolation between the bucket edges.
        assert histogram.percentile(0.5) == pytest.approx(1.5)
        assert histogram.percentile(1.0) == pytest.approx(2.0)

    def test_percentile_overflow_clamps_to_last_edge(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(100.0)
        assert histogram.percentile(0.99) == pytest.approx(1.0)

    def test_percentile_empty_and_invalid_q(self):
        histogram = Histogram()
        assert histogram.percentile(0.5) == 0.0
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_summary_and_mean(self):
        histogram = Histogram(bounds=(1.0, 2.0, 4.0))
        histogram.observe_many([0.5, 1.5, 3.0])
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["mean_s"] == pytest.approx(5.0 / 3)
        assert 0.0 < summary["p50_s"] <= 2.0
        assert summary["p95_s"] <= 4.0

    def test_export_roundtrip_and_merge(self):
        left = Histogram(bounds=(1.0, 2.0))
        left.observe_many([0.5, 1.5])
        right = Histogram.from_export(left.export())
        assert right.counts == left.counts
        assert right.total == left.total
        assert right.sum_s == pytest.approx(left.sum_s)
        right.merge(left)
        assert right.total == 2 * left.total
        with pytest.raises(ValueError, match="bounds"):
            right.merge(Histogram(bounds=(1.0,)))


class TestTracerMerge:
    def test_spans_align_via_clock_anchor(self):
        tracer = SpanTracer("worker-a", capacity=16)
        tracer.record("operator.work", "op", tracer.clock() - 0.01)
        (span,) = tracer.spans()
        # The wall-clock start equals the monotonic start shifted by the
        # tracer's own (wall - mono) anchor offset.
        raw = tracer.events[0]
        assert span.start_s == pytest.approx(
            raw[3] + tracer.wall_anchor - tracer.mono_anchor
        )
        assert span.duration_s == pytest.approx(0.01, rel=0.5)

    def test_merge_exports_aligns_different_monotonic_epochs(self):
        # Two workers whose monotonic clocks have wildly different epochs
        # but whose wall clocks agree: after the merge the event each
        # recorded "at wall time T" lands at the same start_s.
        a = SpanTracer("a")
        b = SpanTracer("b")
        a.wall_anchor, a.mono_anchor = 1000.0, 5.0
        b.wall_anchor, b.mono_anchor = 1000.0, 99905.0
        a.record("k", "x", started=6.0, duration=0.5)  # wall 1001.0
        b.record("k", "y", started=99906.0, duration=0.5)  # wall 1001.0 too
        merged = merge_exports([a.export(), b.export()])
        assert [span.start_s for span in merged] == [1001.0, 1001.0]
        assert {span.node for span in merged} == {"a", "b"}

    def test_merge_exports_sorts_by_start(self):
        tracer = SpanTracer("n")
        tracer.wall_anchor, tracer.mono_anchor = 0.0, 0.0
        tracer.record("k", "late", started=2.0, duration=0.1)
        tracer.record("k", "early", started=1.0, duration=0.1)
        merged = merge_exports([tracer.export()])
        assert [span.name for span in merged] == ["early", "late"]

    def test_ring_buffer_evicts_oldest(self):
        tracer = SpanTracer("n", capacity=3)
        for index in range(5):
            tracer.record("k", f"s{index}", started=float(index), duration=0.0)
        assert len(tracer) == 3
        assert [record[1] for record in tracer.events] == ["s2", "s3", "s4"]


class TestChromeTraceExporter:
    def _spans(self):
        return [
            SpanRecord("operator.work", "source", "spe1", 10.0, 0.002, count=3),
            SpanRecord("operator.work", "sink", "spe2", 10.001, 0.001),
            SpanRecord("channel.send", "a_to_b", "spe1", 10.0005, 0.0, count=4),
        ]

    def test_document_shape_and_event_schema(self):
        document = chrome_trace(self._spans())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        # The whole document must survive strict JSON (Perfetto ingests it).
        json.loads(json.dumps(document))
        for event in document["traceEvents"]:
            assert event["ph"] in ("X", "i", "M", "C")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)

    def test_metadata_names_every_node_and_kind_lane(self):
        document = chrome_trace(self._spans())
        meta = [e for e in document["traceEvents"] if e["ph"] == "M"]
        process_names = {
            e["args"]["name"] for e in meta if e["name"] == "process_name"
        }
        thread_names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert process_names == {"spe1", "spe2"}
        assert thread_names == {"operator.work", "channel.send"}

    def test_timestamps_relative_to_earliest_span(self):
        document = chrome_trace(self._spans())
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0
        by_name = {e["name"]: e for e in complete}
        assert by_name["sink"]["ts"] == pytest.approx(1000.0)  # 1 ms later, in us
        assert by_name["source"]["dur"] == pytest.approx(2000.0)

    def test_zero_duration_records_become_instants(self):
        document = chrome_trace(self._spans())
        instants = [e for e in document["traceEvents"] if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["name"] == "a_to_b"
        assert instants[0]["s"] == "t"

    def test_time_series_rows_become_counter_events(self):
        rows = [{"t_wall_s": 10.0, "queue_depth": {"c1": 7}, "heap_bytes": 1234}]
        document = chrome_trace(self._spans(), time_series=rows)
        counters = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {"queue_depth", "heap_bytes"}

    def test_empty_spans_with_time_series_keeps_small_timestamps(self):
        rows = [{"t_wall_s": 1.7e9, "queue_depth": {"c1": 1}}]
        document = chrome_trace([], time_series=rows)
        (counter,) = [e for e in document["traceEvents"] if e["ph"] == "C"]
        assert counter["ts"] == 0.0


class TestPrometheusExporter:
    def test_buckets_are_cumulative_with_inf(self):
        histogram = Histogram(bounds=(1.0, 2.0))
        histogram.observe_many([0.5, 1.5, 5.0])
        text = prometheus_text([], {"latency": histogram})
        lines = text.splitlines()
        buckets = [l for l in lines if l.startswith("repro_latency_seconds_bucket")]
        assert buckets == [
            'repro_latency_seconds_bucket{le="1"} 1',
            'repro_latency_seconds_bucket{le="2"} 2',
            'repro_latency_seconds_bucket{le="+Inf"} 3',
        ]
        assert "repro_latency_seconds_count 3" in lines

    def test_span_counters_grouped_by_kind_and_node(self):
        spans = [
            SpanRecord("operator.work", "a", "spe1", 0.0, 0.25, count=2),
            SpanRecord("operator.work", "b", "spe1", 1.0, 0.25, count=3),
        ]
        text = prometheus_text(spans)
        assert 'repro_spans_total{kind="operator.work",node="spe1"} 2' in text
        assert (
            'repro_span_seconds_total{kind="operator.work",node="spe1"} 0.500000000'
            in text
        )
        assert 'repro_span_items_total{kind="operator.work",node="spe1"} 5' in text

    def test_label_escaping(self):
        spans = [SpanRecord('k"ind', "n", 'no"de', 0.0, 0.1)]
        text = prometheus_text(spans)
        assert 'kind="k\\"ind"' in text
        assert 'node="no\\"de"' in text


class TestJsonlExporter:
    def test_one_object_per_line(self):
        spans = [
            SpanRecord("k", "a", "n", 1.0, 0.1, count=2),
            SpanRecord("k", "b", "n", 2.0, 0.0),
        ]
        lines = jsonl_events(spans).splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {
            "kind": "k",
            "name": "a",
            "node": "n",
            "start_s": 1.0,
            "duration_s": 0.1,
            "count": 2,
        }

    def test_empty(self):
        assert jsonl_events([]) == ""


class TestTimeSeriesSampler:
    def test_maybe_sample_is_throttled(self, monkeypatch):
        # A monotonic clock still below the interval (a freshly booted host)
        # must not swallow the first row.
        monkeypatch.setattr("repro.obs.metrics.time.monotonic", lambda: 5.0)
        sampler = TimeSeriesSampler(interval_s=3600.0)
        assert sampler.maybe_sample() is not None  # first row always lands
        assert sampler.maybe_sample() is None  # within the interval

    def test_sample_reads_channel_and_operator_state(self):
        class FakeChannel:
            name = "c1"
            watermark = 42.0

            def __len__(self):
                return 7

        class FakeOperator:
            name = "op"
            tuples_in = 10
            tuples_out = 4

        sampler = TimeSeriesSampler()
        row = sampler.sample([FakeChannel()], [FakeOperator()])
        assert row["queue_depth"] == {"c1": 7}
        assert row["watermark"] == {"c1": 42.0}
        assert row["operator_tuples"] == {"op": {"in": 10, "out": 4}}

    def test_non_finite_watermarks_are_skipped(self):
        class FakeChannel:
            name = "c1"
            watermark = float("inf")

            def __len__(self):
                return 0

        row = TimeSeriesSampler().sample([FakeChannel()], [])
        assert "watermark" not in row
        json.dumps(row)  # the row must be strict-JSON exportable


class TestCoercion:
    def test_disabled_values(self):
        assert coerce_telemetry(None) is None
        assert coerce_telemetry(False) is None

    def test_true_builds_default(self):
        telemetry = coerce_telemetry(True)
        assert isinstance(telemetry, Telemetry)
        assert telemetry.config.capacity == TelemetryConfig().capacity

    def test_config_and_instance_pass_through(self):
        config = TelemetryConfig(capacity=128)
        telemetry = coerce_telemetry(config)
        assert telemetry.config is config
        assert coerce_telemetry(telemetry) is telemetry

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="telemetry"):
            coerce_telemetry("yes")
