"""Tracing: deterministic sampling, span nesting, the ring buffer."""

import json
import pickle

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import TraceContext, Tracer


class TestSampling:
    def test_rate_one_samples_every_request(self):
        tracer = Tracer(sample_rate=1.0)
        contexts = [tracer.begin(f"r{i}") for i in range(10)]
        assert all(context is not None for context in contexts)
        assert tracer.sampled == tracer.requests == 10

    def test_rate_zero_samples_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert [tracer.begin(f"r{i}") for i in range(10)] == [None] * 10
        assert tracer.requests == 10 and tracer.sampled == 0

    def test_fractional_rate_is_deterministic(self):
        # the accumulator admits exactly one request in four at 0.25,
        # with no randomness: the pattern repeats identically
        tracer = Tracer(sample_rate=0.25)
        pattern = [tracer.begin(f"r{i}") is not None for i in range(8)]
        assert pattern == [False, False, False, True] * 2
        assert tracer.sampled == 2

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)

    def test_ring_buffer_is_bounded(self):
        tracer = Tracer(sample_rate=1.0, ring_size=3)
        for i in range(5):
            tracer.finish(tracer.begin(f"r{i}"))
        recent = tracer.recent()
        assert [entry["trace_id"] for entry in recent] == \
            ["r2", "r3", "r4"]
        assert tracer.summary()["sampled"] == 5


class TestSpans:
    def test_nested_spans_record_parents(self):
        context = TraceContext("t1")
        with context.span("outer"):
            with context.span("inner"):
                pass
        by_name = {span["name"]: span for span in context.spans}
        assert by_name["outer"]["parent_id"] is None
        assert by_name["inner"]["parent_id"] == \
            by_name["outer"]["span_id"]
        assert by_name["outer"]["duration"] >= \
            by_name["inner"]["duration"] >= 0.0

    def test_ambient_span_noop_without_activation(self):
        with obs_trace.span("orphan") as record:
            assert record is None

    def test_activate_routes_ambient_spans(self):
        context = TraceContext("t2")
        with obs_trace.activate(context):
            assert obs_trace.current_trace() is context
            with obs_trace.span("work", shard=3) as record:
                assert record["trace_id"] == "t2"
        assert obs_trace.current_trace() is None
        assert [span["name"] for span in context.spans] == ["work"]
        assert context.spans[0]["shard"] == 3

    def test_spans_are_pickle_and_json_safe(self):
        context = TraceContext("t3")
        with context.span("op"):
            pass
        span = context.spans[0]
        assert pickle.loads(pickle.dumps(span)) == span
        assert json.loads(json.dumps(span)) == span

    def test_to_dict_duration_is_root_span_duration(self):
        context = TraceContext("t6")
        with context.span("root"):
            with context.span("child"):
                pass
        root = next(span for span in context.spans
                    if span["parent_id"] is None)
        assert context.to_dict()["duration"] == root["duration"]
