"""Tests for span trees, the sampling policy and trace export."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import Span, Tracer, attribute_request, spans_from_chrome_trace


def make_request_span(start=0.0, wait=5.0, rounds=2):
    """A miniature read request tree like the DES engine produces."""
    root = Span("read_request", start, index=0, n_pages=1)
    root.span("queue_wait", start).end(start + wait)
    op = root.span("flash_read", start + wait, channel=1, lpn=42)
    t = start + wait
    for r in range(rounds):
        round_span = op.span("sensing_round", t, round=r)
        round_span.span("sense", t).end(t + 30.0)
        round_span.span("ldpc_decode", t + 30.0, iterations=4).end(t + 40.0)
        t += 40.0
        round_span.end(t)
    op.end(t)
    root.end(t)
    return root


class TestSpan:
    def test_nesting_and_walk(self):
        root = make_request_span()
        names = [span.name for span in root.walk()]
        assert names[0] == "read_request"
        assert names.count("sensing_round") == 2
        assert names.count("ldpc_decode") == 2

    def test_find(self):
        root = make_request_span(rounds=3)
        assert len(root.find("sensing_round")) == 3
        assert root.find("read_request") == [root]
        assert root.find("missing") == []

    def test_duration(self):
        root = make_request_span(start=10.0, wait=5.0, rounds=1)
        assert root.duration_us == pytest.approx(45.0)
        assert root.find("queue_wait")[0].duration_us == pytest.approx(5.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ConfigurationError):
            Span("bad", -1.0)

    def test_rejects_end_before_start(self):
        with pytest.raises(ConfigurationError):
            Span("bad", 10.0).end(5.0)

    def test_to_dict_roundtrips_through_json(self):
        out = json.loads(json.dumps(make_request_span().to_dict()))
        assert out["name"] == "read_request"
        assert out["children"][0]["name"] == "queue_wait"


class TestSamplingPolicy:
    def finish_stream(self, tracer, durations):
        for i, duration in enumerate(durations):
            span = tracer.begin_request("read_request", 100.0 * i)
            tracer.finish_request(span, 100.0 * i + duration)

    def test_head_sampling_keeps_every_nth(self):
        tracer = Tracer(sample_every=10, keep_slowest=0)
        self.finish_stream(tracer, [1.0] * 95)
        assert tracer.n_seen == 95
        assert len(tracer.spans) == 10  # seq 0, 10, ..., 90
        assert [span.attrs["seq"] for span in tracer.spans] == list(range(0, 100, 10))

    def test_reservoir_keeps_slowest(self):
        tracer = Tracer(sample_every=0, keep_slowest=3)
        self.finish_stream(tracer, [5.0, 50.0, 1.0, 40.0, 2.0, 30.0, 3.0])
        slowest = [span.duration_us for span in tracer.slowest()]
        assert slowest == [50.0, 40.0, 30.0]

    def test_slowest_survive_head_sampling(self):
        """The one slow request is off the head-sampling grid but kept."""
        durations = [1.0] * 1000
        durations[537] = 9_999.0
        tracer = Tracer(sample_every=100, keep_slowest=2)
        self.finish_stream(tracer, durations)
        kept_seqs = {span.attrs["seq"] for span in tracer.spans}
        assert 537 in kept_seqs
        assert tracer.slowest()[0].duration_us == pytest.approx(9_999.0)

    def test_deterministic_for_same_stream(self):
        durations = [float((7 * i) % 113) for i in range(500)]
        keeps = []
        for _ in range(2):
            tracer = Tracer(sample_every=50, keep_slowest=4)
            self.finish_stream(tracer, durations)
            keeps.append([span.attrs["seq"] for span in tracer.spans])
        assert keeps[0] == keeps[1]

    def test_ties_broken_by_arrival_order(self):
        tracer = Tracer(sample_every=0, keep_slowest=2)
        self.finish_stream(tracer, [10.0, 10.0, 10.0, 10.0])
        # Later equal-duration requests evict earlier ones (entry > heap
        # root compares seq on equal duration), deterministically; ties
        # then list in arrival order.
        assert [span.attrs["seq"] for span in tracer.slowest()] == [2, 3]

    def test_rejects_keeping_nothing(self):
        with pytest.raises(ConfigurationError):
            Tracer(sample_every=0, keep_slowest=0)

    def test_rejects_unended_span(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            tracer.finish_request(tracer.begin_request("r", 0.0))


class TestExport:
    def test_jsonl_one_tree_per_line(self, tmp_path):
        tracer = Tracer(sample_every=1, keep_slowest=0)
        for i in range(3):
            tracer.finish_request(make_request_span(start=100.0 * i))
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            tree = json.loads(line)
            assert tree["name"] == "read_request"
            assert "children" in tree

    def test_chrome_trace_structure(self, tmp_path):
        tracer = Tracer(sample_every=1, keep_slowest=0)
        tracer.finish_request(make_request_span(rounds=2))
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path, process_name="test-sim")
        trace = json.loads(path.read_text())
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        names = [e["name"] for e in complete]
        # The acceptance shape: queue wait, sensing rounds and the LDPC
        # decode all nest under the request span on one tid.
        assert "read_request" in names
        assert "queue_wait" in names
        assert names.count("sensing_round") == 2
        assert names.count("ldpc_decode") == 2
        assert len({e["tid"] for e in complete}) == 1
        for event in complete:
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
        metadata = [e for e in events if e["ph"] == "M"]
        assert any(e["args"].get("name") == "test-sim" for e in metadata)

    def test_empty_tracer_exports(self, tmp_path):
        tracer = Tracer()
        assert tracer.to_jsonl() == ""
        trace = tracer.chrome_trace()
        assert [e["ph"] for e in trace["traceEvents"]] == ["M"]


def make_parallel_span(start=0.0):
    """Two overlapping channel ops — the case time-sorting mis-nests."""
    root = Span("read_request", start, index=7, n_pages=2)
    root.span("queue_wait", start).end(start + 10.0)
    a = root.span("flash_read", start + 10.0, channel=1, lpn=1)
    ra = a.span("sensing_round", start + 10.0, round=0)
    ra.span("sense", start + 10.0).end(start + 30.0)
    ra.span("ldpc_decode", start + 30.0, iterations=3).end(start + 40.0)
    ra.end(start + 40.0)
    rb = a.span("sensing_round", start + 40.0, round=1)
    rb.span("sense", start + 40.0).end(start + 50.0)
    rb.end(start + 50.0)
    a.end(start + 50.0)
    b = root.span("flash_read", start + 20.0, channel=2, lpn=2)
    b.span("sensing_round", start + 20.0, round=0).end(start + 60.0)
    b.end(start + 60.0)
    root.end(start + 60.0)
    return root


class TestChromeRoundTrip:
    def export(self, *roots):
        tracer = Tracer(sample_every=1, keep_slowest=0)
        for root in roots:
            tracer.finish_request(root)
        return tracer, json.loads(json.dumps(tracer.chrome_trace()))

    def test_every_complete_event_carries_ts_dur_tid(self):
        _, trace = self.export(make_parallel_span())
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert complete
        for event in complete:
            assert {"ts", "dur", "tid"} <= set(event)

    def test_nesting_reconstructed(self):
        live = make_parallel_span()
        _, trace = self.export(live)
        (rebuilt,) = spans_from_chrome_trace(trace)
        assert [s.name for s in rebuilt.walk()] == [
            s.name for s in live.walk()
        ]
        for got, want in zip(rebuilt.walk(), live.walk()):
            assert got.start_us == pytest.approx(want.start_us)
            assert got.duration_us == pytest.approx(want.duration_us)
            assert got.attrs.get("channel") == want.attrs.get("channel")
            assert got.attrs.get("round") == want.attrs.get("round")

    def test_multiple_requests_split_by_tid(self):
        first = make_parallel_span()
        second = make_parallel_span(start=1000.0)
        _, trace = self.export(first, second)
        rebuilt = spans_from_chrome_trace(trace)
        assert len(rebuilt) == 2
        assert [root.attrs["seq"] for root in rebuilt] == [0, 1]

    def test_attribution_matches_live_trees(self):
        """Attributing an exported-then-reconstructed trace gives the
        same blame as attributing the live span trees."""
        live = make_parallel_span()
        _, trace = self.export(live)
        (rebuilt,) = spans_from_chrome_trace(trace)
        want = attribute_request(live)
        got = attribute_request(rebuilt)
        assert got.duration_us == pytest.approx(want.duration_us)
        assert got.off_path_us == pytest.approx(want.off_path_us)
        for cause in want.causes:
            assert got.causes[cause] == pytest.approx(
                want.causes[cause]
            ), cause

    def test_missing_fields_rejected(self):
        trace = {"traceEvents": [{"name": "x", "ph": "X", "ts": 0.0}]}
        with pytest.raises(ConfigurationError):
            spans_from_chrome_trace(trace)

    def test_metadata_events_ignored(self):
        assert spans_from_chrome_trace(
            {"traceEvents": [{"name": "process_name", "ph": "M"}]}
        ) == []
