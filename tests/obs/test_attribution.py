"""Tests for critical-path latency attribution and blame tables."""

import json

import numpy as np
import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.errors import ConfigurationError
from repro.ftl.config import SsdConfig
from repro.obs import (
    CAUSES,
    AttributionReport,
    Tracer,
    attribute_request,
    diff_reports,
)
from repro.obs.attribution import BAND_EDGES
from repro.obs.tracing import Span
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel, observe
from repro.traces.schema import TraceRecord


def flash_read_op(
    parent,
    channel,
    start,
    rounds_us,
    post_read_us=0.0,
    uncorrectable=False,
):
    """One flash_read op with per-round (sense, transfer, decode) triples."""
    op = parent.span("flash_read", start, channel=channel, lpn=1)
    if uncorrectable:
        op.attrs["uncorrectable"] = True
    t = start
    for r, (sense, transfer, decode) in enumerate(rounds_us):
        round_span = op.span("sensing_round", t, round=r)
        round_span.span("sense", t).end(t + sense)
        round_span.span("transfer", t + sense).end(t + sense + transfer)
        round_span.span("ldpc_decode", t + sense + transfer, iterations=3).end(
            t + sense + transfer + decode
        )
        t += sense + transfer + decode
        round_span.end(t)
    if post_read_us:
        op.span("post_read", t).end(t + post_read_us)
        t += post_read_us
    op.end(t)
    return op


def assert_exact(record):
    assert record.attributed_us == pytest.approx(record.duration_us, rel=1e-9)


class TestRequestAttribution:
    def test_single_read_decomposes_exactly(self):
        root = Span("read_request", 0.0, seq=3)
        root.span("queue_wait", 0.0).end(20.0)
        flash_read_op(
            root, 0, 20.0, [(30.0, 10.0, 20.0), (10.0, 3.0, 2.0)],
            post_read_us=5.0,
        )
        root.end(100.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.seq == 3
        assert record.causes["queue_wait"] == pytest.approx(20.0)
        assert record.causes["sense"] == pytest.approx(30.0)
        assert record.causes["transfer"] == pytest.approx(10.0)
        assert record.causes["ldpc_decode"] == pytest.approx(20.0)
        assert record.causes["retry"] == pytest.approx(15.0)
        assert record.causes["post_read"] == pytest.approx(5.0)
        assert record.retry_rounds == 1
        assert not record.uncorrectable
        assert record.off_path_us == 0.0

    def test_critical_channel_only_is_blamed(self):
        """The slower channel is attributed; the faster one is off-path."""
        root = Span("read_request", 0.0, seq=0)
        flash_read_op(root, 0, 10.0, [(20.0, 5.0, 25.0)])  # ends at 60
        flash_read_op(root, 1, 20.0, [(40.0, 10.0, 30.0)])  # ends at 100
        root.end(100.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.n_channels == 2
        # Critical channel 1 starts at 20: its pre-service gap is wait.
        assert record.causes["queue_wait"] == pytest.approx(20.0)
        assert record.causes["sense"] == pytest.approx(40.0)
        assert record.off_path_us == pytest.approx(50.0)

    def test_critical_tie_breaks_to_smallest_channel(self):
        root = Span("read_request", 0.0, seq=0)
        flash_read_op(root, 1, 0.0, [(30.0, 5.0, 15.0)])  # ends at 50
        flash_read_op(root, 0, 0.0, [(10.0, 5.0, 35.0)])  # ends at 50 too
        root.end(50.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["sense"] == pytest.approx(10.0)  # channel 0's

    def test_gc_stall_on_critical_channel(self):
        root = Span("read_request", 0.0, seq=0)
        root.span("gc_stall", 5.0, channel=0, drained_us=0.0).end(15.0)
        flash_read_op(root, 0, 15.0, [(10.0, 5.0, 10.0)])
        root.end(40.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["gc_stall"] == pytest.approx(10.0)
        assert record.causes["queue_wait"] == pytest.approx(5.0)

    def test_off_critical_stall_not_blamed(self):
        root = Span("read_request", 0.0, seq=0)
        root.span("gc_stall", 0.0, channel=1, drained_us=0.0).end(10.0)
        flash_read_op(root, 1, 10.0, [(5.0, 1.0, 4.0)])  # ends at 20
        flash_read_op(root, 0, 0.0, [(20.0, 5.0, 15.0)])  # ends at 40
        root.end(40.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["gc_stall"] == 0.0

    def test_uncorrectable_retry_rounds_reblamed(self):
        root = Span("read_request", 0.0, seq=0)
        flash_read_op(
            root, 0, 0.0,
            [(10.0, 2.0, 8.0), (5.0, 1.0, 4.0), (5.0, 1.0, 4.0)],
            uncorrectable=True,
        )
        root.end(40.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.uncorrectable
        assert record.causes["retry"] == 0.0
        assert record.causes["uncorrectable"] == pytest.approx(20.0)
        # The first round still charges its media/decode components.
        assert record.causes["sense"] == pytest.approx(10.0)

    def test_buffer_hit_and_write(self):
        hit = Span("read_request", 0.0, seq=0)
        hit.span("buffer_hit_read", 5.0, channel=2, lpn=1).end(7.0)
        hit.end(7.0)
        record = attribute_request(hit)
        assert_exact(record)
        assert record.buffer_hit
        assert record.causes["buffer_hit"] == pytest.approx(2.0)
        assert record.causes["queue_wait"] == pytest.approx(5.0)

        write = Span("write_request", 0.0, seq=1)
        write.span("buffered_write", 1.0, channel=0, lpn=2).end(4.0)
        write.end(4.0)
        record = attribute_request(write)
        assert_exact(record)
        assert record.is_write
        assert record.causes["buffered_write"] == pytest.approx(3.0)

    def test_wait_span_overlapping_the_stall(self):
        """A queue-wait span covering the GC stall counts it once."""
        root = Span("write_request", 0.0, seq=0)
        root.span("queue_wait", 0.0).end(30.0)  # overlaps the stall
        root.span("gc_stall", 20.0, channel=0).end(30.0)
        root.span("buffered_write", 30.0, channel=0, lpn=1).end(90.0)
        root.end(90.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["queue_wait"] == pytest.approx(20.0)
        assert record.causes["gc_stall"] == pytest.approx(10.0)
        assert record.causes["buffered_write"] == pytest.approx(60.0)
        assert record.causes["service"] == 0.0

    def test_gaps_between_ops_become_other(self):
        root = Span("read_request", 0.0, seq=0)
        flash_read_op(root, 0, 0.0, [(5.0, 1.0, 4.0)])  # ends at 10
        flash_read_op(root, 0, 15.0, [(5.0, 1.0, 4.0)])  # gap of 5
        root.end(28.0)  # tail gap of 3
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["other"] == pytest.approx(8.0)

    def test_no_ops_is_all_queue_wait(self):
        root = Span("read_request", 0.0, seq=0)
        root.end(12.0)
        record = attribute_request(root)
        assert_exact(record)
        assert record.causes["queue_wait"] == pytest.approx(12.0)

    def test_unended_root_rejected(self):
        with pytest.raises(ConfigurationError):
            attribute_request(Span("read_request", 0.0))


def tiny_system(name="flexlevel", shared_policy=None, fault_injector=None, pe=6000):
    ssd = SsdConfig(
        n_blocks=64,
        pages_per_block=16,
        gc_free_block_threshold=2,
        initial_pe_cycles=pe,
    )
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=16
    )
    return build_system(
        name, config, level_adjust=shared_policy, fault_injector=fault_injector
    )


def mixed_trace(n=300, period_us=400.0):
    return [
        TraceRecord(i * period_us, (i * 7) % 80, 1 + i % 3, i % 4 == 0)
        for i in range(n)
    ]


def run_des(shared_policy, fault_injector=None, name="flexlevel"):
    system = tiny_system(name, shared_policy, fault_injector)
    tracer = Tracer(sample_every=1, keep_slowest=0)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.1,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
        observers=observe(tracer=tracer),
    )
    result = engine.run(mixed_trace(), "t")
    return result, tracer


class TestEngineIntegration:
    def test_des_every_request_exact(self, shared_policy):
        _, tracer = run_des(shared_policy)
        for span in tracer.spans:
            assert_exact(attribute_request(span))

    def test_blame_reconciles_with_response_histograms(self, shared_policy):
        """With sample_every=1 the report covers exactly the recorded
        requests, so total blame equals the histograms' summed latency."""
        result, tracer = run_des(shared_policy)
        report = AttributionReport.from_spans(tracer.spans)
        assert report.n_requests == result.n_requests
        recorded = result.read_hist.sum + result.write_hist.sum
        assert report.total_us == pytest.approx(recorded, rel=0.01)

    def test_band_fractions_sum_to_one(self, shared_policy):
        _, tracer = run_des(shared_policy)
        report = AttributionReport.from_spans(tracer.spans)
        for band in report.to_dict()["bands"].values():
            if band["n_requests"]:
                total = sum(band["blame_fraction"].values())
                assert total == pytest.approx(1.0, rel=1e-9)

    def test_report_json_is_deterministic(self, shared_policy):
        dumps = []
        for _ in range(2):
            _, tracer = run_des(shared_policy)
            report = AttributionReport.from_spans(tracer.spans)
            dumps.append(
                json.dumps(report.to_dict(include_requests=True), sort_keys=True)
            )
        assert dumps[0] == dumps[1]

    def test_faulty_run_blames_uncorrectable(self, shared_policy):
        from repro.faults import FaultConfig, FaultInjector

        system = tiny_system(
            "baseline",
            shared_policy,
            FaultInjector(
                FaultConfig(enabled=True, initial_bad_block_rate=0.0).scaled(100)
            ),
            pe=16000,
        )
        tracer = Tracer(sample_every=1, keep_slowest=0)
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.0,
            n_channels=2,
            retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
            observers=observe(tracer=tracer),
        )
        result = engine.run(mixed_trace(400), "t")
        report = AttributionReport.from_spans(tracer.spans)
        for record in report.requests:
            assert_exact(record)
        assert result.uncorrectable_reads > 0
        # Uncorrectable ops on the critical path mark their request;
        # ops absorbed by channel parallelism do not.
        assert 0 < report.uncorrectable_requests <= result.uncorrectable_reads

    def test_queue_engine_trees_attribute_exactly(self, shared_policy):
        """One channel without retry: the single FIFO queue's trees."""
        system = tiny_system("flexlevel", shared_policy)
        tracer = Tracer(sample_every=1, keep_slowest=0)
        engine = DesSimulationEngine(
            system,
            warmup_fraction=0.1,
            n_channels=1,
            retry_model=None,
            observers=observe(tracer=tracer),
        )
        result = engine.run(mixed_trace(), "t")
        report = AttributionReport.from_spans(tracer.spans)
        for record in report.requests:
            assert_exact(record)
        assert report.overall.blame_us["sense"] > 0.0
        assert report.overall.blame_us["retry"] == 0.0
        assert report.overall.blame_us["service"] == 0.0
        assert report.off_path_us == 0.0
        recorded = result.read_hist.sum + result.write_hist.sum
        assert report.total_us == pytest.approx(recorded, rel=0.01)


def event_and_tree_runs(shared_policy, faults, crash_us):
    """One run observed twice: span trees (tracer ``a``) and the serve
    attribution observer's childless, attributed roots (tracer ``b``).

    A flexlevel drive with post-read work charged on every flash read
    (no shipped system charges any), multi-page requests over four
    channels and read retry; ``faults`` adds uncorrectable reads on a
    worn drive, otherwise write-heavy traffic makes GC stall requests.
    """
    from repro.faults import FaultConfig, FaultInjector
    from repro.sim.des.observers import AttributionObserver, TracerObserver

    ssd = SsdConfig(
        n_blocks=64,
        pages_per_block=16,
        gc_free_block_threshold=2,
        initial_pe_cycles=16000 if faults else 6000,
    )
    config = SystemConfig(
        ssd=ssd, footprint_pages=int(ssd.logical_pages * 0.4), buffer_pages=8
    )
    injector = (
        FaultInjector(
            FaultConfig(enabled=True, initial_bad_block_rate=0.0).scaled(100)
        )
        if faults
        else None
    )
    system = build_system(
        "flexlevel", config, level_adjust=shared_policy, fault_injector=injector
    )
    after_read = system._after_read
    system._after_read = lambda *args: after_read(*args) + 3.25
    writes_of_five = 3 if faults else 4
    trace = [
        TraceRecord(i * 120.0, (i * 29) % 300, 1 + i % 4, i % 5 < writes_of_five)
        for i in range(400)
    ]
    trees = Tracer(sample_every=1, keep_slowest=0)
    roots = Tracer(sample_every=1, keep_slowest=0)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.1,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=11)),
        observers=(TracerObserver(trees), AttributionObserver(roots)),
    )
    result = engine.run(trace, "t", crash_us=crash_us)
    return result, trees.spans, roots.spans


class TestEventAttribution:
    """Attributing from run events equals attributing the span tree."""

    @pytest.mark.parametrize(
        "faults, crash_us", [(True, 30_000.0), (False, None)]
    )
    def test_equals_tree_attribution_bit_for_bit(
        self, shared_policy, faults, crash_us
    ):
        result, trees, roots = event_and_tree_runs(
            shared_policy, faults, crash_us
        )
        assert result.crashed == (crash_us is not None)
        assert len(roots) == len(trees) > 0
        for tree, root in zip(trees, roots):
            assert root.children == []
            assert (root.name, root.start_us, root.end_us, root.attrs) == (
                tree.name, tree.start_us, tree.end_us, tree.attrs
            )
            assert (
                attribute_request(tree).to_dict()
                == attribute_request(root).to_dict()
            )
        records = [attribute_request(root) for root in roots]
        covered = {
            "retry": any(r.retry_rounds for r in records),
            "multi_channel": any(r.n_channels > 1 for r in records),
            "post_read": any(r.causes["post_read"] > 0.0 for r in records),
            "uncorrectable": any(r.uncorrectable for r in records),
            "gc_stall": any(r.causes["gc_stall"] > 0.0 for r in records),
        }
        expected = {"retry", "multi_channel", "post_read"}
        expected.add("uncorrectable" if faults else "gc_stall")
        assert expected <= {name for name, seen in covered.items() if seen}


class TestReportShape:
    def test_empty_report(self):
        report = AttributionReport.from_spans([])
        assert report.n_requests == 0
        out = report.to_dict()
        assert out["total_us"] == 0.0
        assert list(out["causes"]) == list(CAUSES)

    def test_band_of_uses_thresholds(self):
        spans = []
        for i in range(100):
            root = Span("read_request", 0.0, seq=i)
            root.end(float(i + 1))
            spans.append(root)
        report = AttributionReport.from_spans(spans)
        assert report.band_of(1.0) == "p0_50"
        assert report.band_of(report.thresholds_us["p99"] + 1.0) == "p99_plus"
        counted = sum(band.n_requests for band in report.bands.values())
        assert counted == report.n_requests

    def test_diff_reports_deltas(self):
        def one_request_report(duration, wait):
            root = Span("read_request", 0.0, seq=0)
            root.span("buffer_hit_read", wait, channel=0, lpn=1).end(duration)
            root.end(duration)
            return AttributionReport.from_spans([root])

        cand = one_request_report(100.0, 50.0)
        base = one_request_report(80.0, 20.0)
        diff = diff_reports(cand, base)
        assert diff["total_us_delta"] == pytest.approx(20.0)
        delta = diff["bands"]["all"]["blame_fraction_delta"]
        assert delta["queue_wait"] == pytest.approx(0.5 - 0.25)
        # Dict form works too (the --vs JSON artifact path).
        assert diff_reports(cand.to_dict(), base.to_dict()) == diff

    def test_band_edges_match_one_percentile_per_edge(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 17, 200, 1001):
            spans = []
            for i, duration in enumerate(rng.exponential(300.0, n)):
                root = Span("read_request", 0.0, seq=i)
                root.end(float(duration))
                spans.append(root)
            report = AttributionReport.from_spans(spans)
            durations = [span.duration_us for span in spans]
            assert list(report.thresholds_us.values()) == [
                float(np.percentile(durations, q)) for q in BAND_EDGES
            ]
