"""Media telemetry: accumulator semantics, determinism, non-interference.

The invariants pinned here are the acceptance criteria of the channel
observability layer:

* :class:`ChannelTelemetry` accumulation is exact (per-block arrays,
  per-mode/per-channel aggregates, sensing configs, tenants, retires);
* attaching telemetry never perturbs simulated-time outputs — the
  DES engine's summary and the FTL's BER/levels memoization hit rates
  are byte-identical with and without the sink (the estimator draws
  from its own generator);
* same-seed runs export byte-identical ``repro.channel/1`` artifacts
  with equal fingerprints, and the observed BER converges to the
  analytic prediction per cell mode;
* artifact totals close exactly against the engine's registry counters
  and the windowed ``channel.*`` series exist;
* the bit-accurate decoders (bit-flip, min-sum, sum-product, BCH)
  report real corrected-bit counts through ``on_decode``.
"""

import json

import numpy as np
import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.core.level_adjust import CellMode
from repro.ecc.bch import BchCode
from repro.ecc.ldpc.code import LdpcCode
from repro.ecc.ldpc.decoder import BitFlipDecoder, MinSumDecoder
from repro.ecc.ldpc.qc import qc_construction
from repro.ecc.ldpc.sensing import SensingLevelPolicy
from repro.ecc.ldpc.sum_product import SumProductDecoder
from repro.errors import ConfigurationError, DecodingFailure
from repro.ftl.config import SsdConfig
from repro.obs import MetricsRegistry
from repro.obs.channel import (
    CHANNEL_SCHEMA,
    ChannelTelemetry,
    channel_fingerprint,
    diff_channel_artifacts,
    render_block_heatmap,
)
from repro.obs.monitor.rules import default_rules
from repro.obs.timeseries import WindowedRecorder
from repro.sim import DesSimulationEngine, ReadRetryConfig, ReadRetryModel, observe
from repro.traces.workloads import make_workload

# ---------------------------------------------------------------------------
# Accumulator unit tests
# ---------------------------------------------------------------------------


def test_on_read_accumulates_per_block_and_per_mode():
    telemetry = ChannelTelemetry(4, page_bits=1024, seed=1)
    observed = telemetry.on_read(
        block=2,
        mode="normal",
        raw_ber=5e-3,
        provisioned_levels=0,
        required_levels=0,
        pe_cycles=1000.0,
        age_hours=24.0,
        channel=1,
        rounds=2,
        tenant="t0",
    )
    assert observed >= 0
    assert telemetry.reads[2] == 1
    assert telemetry.bits_read[2] == 1024
    assert telemetry.observed_errors[2] == observed
    assert telemetry.retry_rounds[2] == 2
    assert telemetry.last_pe[2] == 1000.0
    assert telemetry.last_mode[2] == 0
    assert telemetry.events == 1
    modes = telemetry.observed_vs_analytic()
    assert modes["normal"]["reads"] == 1
    assert modes["normal"]["analytic_ber"] == pytest.approx(5e-3)
    mix = telemetry.channel_mix()
    assert mix["1"]["reads"] == 1 and mix["1"]["retry_rounds"] == 2
    assert telemetry.to_dict()["tenants"] == {"t0": {"1": 1}}


def test_reads_match_a_plain_recount():
    """Seeded reads, positional and by keyword, with modes given as
    enum members, names and codes in any order, against a recount from
    the list of reads; the draws come from an independent generator
    with the telemetry's seed."""
    rng = np.random.default_rng(5)
    modes = (CellMode.NORMAL, CellMode.REDUCED, "slc", 0, "REDUCED", CellMode.SLC)
    codes = {CellMode.NORMAL: 0, CellMode.REDUCED: 1, "slc": 2, 0: 0, "REDUCED": 1,
             CellMode.SLC: 2}
    telemetry = ChannelTelemetry(8, page_bits=4096, seed=11, trajectory_cap=0)
    draws = np.random.default_rng(11)
    reads = []
    for i in range(600):
        read = (
            int(rng.integers(-1, 10)), modes[rng.integers(len(modes))],
            float(rng.uniform(1e-4, 2e-2)), int(rng.integers(0, 4)),
            int(rng.integers(0, 4)), float(rng.uniform(0.0, 1e4)),
            float(rng.uniform(0.0, 500.0)), int(rng.integers(0, 4)),
            int(rng.integers(0, 3)), bool(rng.random() < 0.1),
        )
        block, mode, ber, levels, required, pe, age, channel, rounds, bad = read
        if i % 2:
            observed = telemetry.on_read(*read)
        else:
            observed = telemetry.on_read(
                block=block, mode=mode, raw_ber=ber,
                provisioned_levels=np.int64(levels),
                required_levels=np.int64(required), pe_cycles=pe,
                age_hours=age, channel=np.int64(channel), rounds=rounds,
                uncorrectable=bad,
            )
        assert observed == int(draws.binomial(4096, ber))
        reads.append((read, observed))

    in_range = [(r, o) for r, o in reads if 0 <= r[0] < 8]
    for b in range(8):
        mine = [(r, o) for r, o in in_range if r[0] == b]
        assert telemetry.reads[b] == len(mine)
        assert telemetry.bits_read[b] == 4096 * len(mine)
        assert telemetry.observed_errors[b] == sum(o for _, o in mine)
        assert telemetry.analytic_ber_sum[b] == sum((r[2] for r, _ in mine), 0.0)
        assert telemetry.retry_rounds[b] == sum(r[8] for r, _ in mine)
        assert telemetry.uncorrectable[b] == sum(r[9] for r, _ in mine)
        assert telemetry.pe_sum[b] == sum((r[5] for r, _ in mine), 0.0)
        assert telemetry.age_sum[b] == sum((r[6] for r, _ in mine), 0.0)
        assert telemetry.last_pe[b] == (mine[-1][0][5] if mine else 0.0)
        assert telemetry.last_mode[b] == (codes[mine[-1][0][1]] if mine else -1)
    assert telemetry.events == len(reads)
    assert telemetry.aggregate_only_reads == len(reads) - len(in_range)

    names = {0: "normal", 1: "reduced", 2: "slc"}
    by_mode = telemetry.observed_vs_analytic()
    for code, name in names.items():
        mine = [(r, o) for r, o in reads if codes[r[1]] == code]
        assert by_mode[name]["reads"] == len(mine)
        assert by_mode[name]["bits"] == 4096 * len(mine)
        assert by_mode[name]["observed_errors"] == sum(o for _, o in mine)
        assert by_mode[name]["analytic_ber"] == sum((r[2] for r, _ in mine), 0.0) / len(mine)
        assert by_mode[name]["retry_rounds"] == sum(r[8] for r, _ in mine)
        assert by_mode[name]["uncorrectable"] == sum(r[9] for r, _ in mine)
    assert telemetry.channel_mix() == {
        str(c): {
            "reads": sum(1 for r, _ in reads if r[7] == c),
            "observed_errors": sum(o for r, o in reads if r[7] == c),
            "retry_rounds": sum(r[8] for r, _ in reads if r[7] == c),
            "uncorrectable": sum(r[9] for r, _ in reads if r[7] == c),
        }
        for c in range(4)
    }
    payload = telemetry.to_dict()
    assert payload["required_levels_histogram"] == {
        str(n): sum(1 for r, _ in reads if r[4] == n) for n in range(4)
    }
    configs = {
        (entry["mode"], entry["provisioned_levels"]): entry["reads"]
        for entry in payload["sensing_configs"]
    }
    assert configs == {
        (names[code], n): count
        for code in names
        for n in range(4)
        if (count := sum(1 for r, _ in reads if codes[r[1]] == code and r[3] == n))
    }


def test_out_of_range_block_feeds_aggregates_only():
    telemetry = ChannelTelemetry(2, page_bits=512, seed=1)
    telemetry.on_read(
        block=-1, mode="slc", raw_ber=1e-3,
        provisioned_levels=0, required_levels=0,
    )
    telemetry.on_read(
        block=99, mode="slc", raw_ber=1e-3,
        provisioned_levels=0, required_levels=0,
    )
    assert telemetry.aggregate_only_reads == 2
    assert int(telemetry.reads.sum()) == 0
    assert telemetry.observed_vs_analytic()["slc"]["reads"] == 2
    assert telemetry.to_dict()["totals"]["reads"] == 2


def test_constructor_and_mode_validation():
    with pytest.raises(ConfigurationError):
        ChannelTelemetry(0)
    with pytest.raises(ConfigurationError):
        ChannelTelemetry(4, page_bits=0)
    with pytest.raises(ConfigurationError):
        ChannelTelemetry(4, trajectory_cap=-1)
    telemetry = ChannelTelemetry(4)
    with pytest.raises(ConfigurationError):
        telemetry.on_read(
            block=0, mode="qlc", raw_ber=1e-3,
            provisioned_levels=0, required_levels=0,
        )
    with pytest.raises(ConfigurationError):
        telemetry.on_read(
            block=0, mode=7, raw_ber=1e-3,
            provisioned_levels=0, required_levels=0,
        )


def test_erase_and_retire_tracking():
    telemetry = ChannelTelemetry(4)
    telemetry.on_erase(1, pe_cycles=4321.0)
    telemetry.on_erase(1)
    telemetry.on_retire(3, "erase_fail")
    telemetry.on_retire(3, "erase_fail")
    telemetry.on_erase(99)  # out of range: ignored, no crash
    assert telemetry.erases[1] == 2
    assert telemetry.last_pe[1] == 4321.0
    assert telemetry.retired[3] == 1
    payload = telemetry.to_dict()
    assert payload["totals"]["erases"] == 2
    assert payload["totals"]["retired_blocks"] == 1
    assert payload["retire_reasons"] == {"erase_fail": 2}


def test_trajectory_sampling_is_bounded_and_deterministic():
    telemetry = ChannelTelemetry(8, trajectory_cap=3)
    for i in range(10):
        telemetry.on_read(
            block=i % 8, mode="normal", raw_ber=1e-3,
            provisioned_levels=1, required_levels=1,
            iterations=(5, 9),
        )
    assert len(telemetry.trajectories) == 3
    assert telemetry.trajectories[0]["iterations"] == [5, 9]
    assert all(t["converged"] for t in telemetry.trajectories)


def test_block_stats_returns_safe_copies():
    telemetry = ChannelTelemetry(4, page_bits=1000)
    telemetry.on_read(
        block=0, mode="reduced", raw_ber=1e-2,
        provisioned_levels=2, required_levels=2, pe_cycles=2000.0,
    )
    stats = telemetry.block_stats()
    assert stats["analytic_ber"][0] == pytest.approx(1e-2)
    assert stats["observed_ber"][1] == 0.0  # unread block, no div-by-zero
    assert stats["mean_pe"][0] == pytest.approx(2000.0)
    stats["reads"][0] = 777  # mutating the copy never corrupts state
    assert telemetry.reads[0] == 1


def test_estimator_is_seeded_and_reproducible():
    a = ChannelTelemetry(2, page_bits=4096, seed=11)
    b = ChannelTelemetry(2, page_bits=4096, seed=11)
    draws_a = [
        a.on_read(block=0, mode="normal", raw_ber=5e-3,
                  provisioned_levels=0, required_levels=0)
        for _ in range(20)
    ]
    draws_b = [
        b.on_read(block=0, mode="normal", raw_ber=5e-3,
                  provisioned_levels=0, required_levels=0)
        for _ in range(20)
    ]
    assert draws_a == draws_b
    c = ChannelTelemetry(2, page_bits=4096, seed=12)
    draws_c = [
        c.on_read(block=0, mode="normal", raw_ber=5e-3,
                  provisioned_levels=0, required_levels=0)
        for _ in range(20)
    ]
    assert draws_a != draws_c


def test_sensing_config_stats_carry_llr_tables():
    telemetry = ChannelTelemetry(4)
    telemetry.on_read(
        block=0, mode="normal", raw_ber=4e-3,
        provisioned_levels=2, required_levels=2,
    )
    (entry,) = telemetry.sensing_config_stats()
    assert entry["mode"] == "normal"
    assert entry["provisioned_levels"] == 2
    assert entry["mean_raw_ber"] == pytest.approx(4e-3)
    # 2 extra levels → 2 + 2 sensing regions, all finite magnitudes.
    assert len(entry["llr_magnitudes"]) == 4
    assert all(m > 0 for m in entry["llr_magnitudes"])


def test_calibration_notes_accumulate():
    telemetry = ChannelTelemetry(2)
    telemetry.note_required_levels(4e-3, 1)
    telemetry.note_required_levels(6e-3, 1)
    cal = telemetry.to_dict()["calibration"]
    assert cal["1"]["probes"] == 2
    assert cal["1"]["mean_raw_ber"] == pytest.approx(5e-3)


# ---------------------------------------------------------------------------
# Artifact: fingerprint, heatmap, diff
# ---------------------------------------------------------------------------


def _small_artifact(seed=3):
    telemetry = ChannelTelemetry(8, page_bits=2048, seed=seed)
    for i in range(32):
        telemetry.on_read(
            block=i % 8, mode="normal" if i % 3 else "reduced",
            raw_ber=3e-3 + (i % 4) * 1e-3,
            provisioned_levels=i % 3, required_levels=i % 3,
            rounds=i % 2, channel=i % 2,
        )
    return telemetry.to_dict()


def test_fingerprint_stable_and_excludes_embedded_key():
    payload = _small_artifact()
    assert payload["schema"] == CHANNEL_SCHEMA
    stored = payload["fingerprint"]
    assert channel_fingerprint(payload) == stored
    rehydrated = json.loads(json.dumps(payload))
    assert channel_fingerprint(rehydrated) == stored
    mutated = json.loads(json.dumps(payload))
    mutated["totals"]["reads"] += 1
    assert channel_fingerprint(mutated) != stored


def test_same_seed_artifacts_identical():
    assert _small_artifact(seed=5) == _small_artifact(seed=5)
    assert (
        _small_artifact(seed=5)["fingerprint"]
        != _small_artifact(seed=6)["fingerprint"]
    )


def test_heatmap_shapes_and_scaling():
    rows = render_block_heatmap(np.array([0.0, 1.0, 2.0, 4.0]), width=2)
    assert len(rows) == 2 and all(len(r) == 2 for r in rows)
    assert rows[0][0] == " "  # zero maps to the lightest glyph
    assert rows[1][1] == "@"  # peak maps to the darkest
    all_zero = render_block_heatmap(np.zeros(4), width=4)
    assert all_zero == ["    "]
    with pytest.raises(ConfigurationError):
        render_block_heatmap(np.zeros(4), width=0)
    with pytest.raises(ConfigurationError):
        render_block_heatmap(np.zeros(4), glyphs="x")


def test_diff_requires_matching_schema():
    good = _small_artifact()
    with pytest.raises(ConfigurationError):
        diff_channel_artifacts(good, {"schema": "bogus"})
    diff = diff_channel_artifacts(good, good)
    assert diff["schema"] == "repro.channel-diff/1"
    shares = diff["sensing_level_shares"]
    assert all(entry["delta"] == 0.0 for entry in shares.values())
    assert sum(e["left_share"] for e in shares.values()) == pytest.approx(1.0)
    assert diff["totals"]["reads"]["delta"] == 0


# ---------------------------------------------------------------------------
# Decoder hooks: real corrected-bit counts
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def qc_code():
    return LdpcCode(qc_construction(rows=3, cols=11, z=11))


def _noisy_llrs(code, n_errors, rng):
    cw = code.encode(rng.integers(0, 2, code.k).astype(np.uint8))
    llrs = (1.0 - 2.0 * cw) * 6.0
    llrs[:n_errors] *= -1
    return cw, llrs


@pytest.mark.parametrize("decoder_cls", [MinSumDecoder, SumProductDecoder])
def test_soft_decoders_report_real_corrected_bits(decoder_cls, qc_code, rng):
    telemetry = ChannelTelemetry(2)
    decoder = decoder_cls(qc_code)
    decoder.bind_telemetry(telemetry)
    cw, llrs = _noisy_llrs(qc_code, 2, rng)
    result = decoder.decode(llrs)
    assert result.converged
    assert np.array_equal(result.codeword, cw)
    (family,) = telemetry.decoder_stats
    stats = telemetry.decoder_stats[family]
    assert stats["decodes"] == 1 and stats["converged"] == 1
    assert stats["corrected_bits"] == 2  # the two flipped channel bits
    assert stats["codeword_bits"] == qc_code.n
    assert stats["iterations"] == result.iterations


def test_bitflip_decoder_reports_corrected_bits(qc_code, rng):
    telemetry = ChannelTelemetry(2)
    decoder = BitFlipDecoder(qc_code)
    decoder.bind_telemetry(telemetry)
    cw = qc_code.encode(rng.integers(0, 2, qc_code.k).astype(np.uint8))
    noisy = cw.copy()
    noisy[0] ^= 1
    result = decoder.decode(noisy)
    stats = telemetry.decoder_stats["ldpc.bitflip"]
    assert stats["decodes"] == 1
    if result.converged:
        assert stats["corrected_bits"] == int(
            np.count_nonzero(noisy != result.codeword)
        )


def test_registry_histogram_replaces_iterations_counter(qc_code, rng):
    registry = MetricsRegistry()
    decoder = MinSumDecoder(qc_code)
    decoder.bind_registry(registry)
    _, llrs = _noisy_llrs(qc_code, 1, rng)
    decoder.decode(llrs)
    snap = registry.snapshot()
    # Streaming histogram: explain/manifests get percentiles, and the
    # .sum preserves the retired counter's total.
    for key in ("count", "sum", "p50", "p95", "p99"):
        assert f"ecc.ldpc.iterations.{key}" in snap
    assert snap["ecc.ldpc.iterations.count"] == 1
    assert snap["ecc.ldpc.decodes"] == 1


def test_bch_decode_reports_success_and_failure():
    telemetry = ChannelTelemetry(2)
    code = BchCode(m=10, t=12, shortened_k=256)
    code.bind_telemetry(telemetry)
    rng = np.random.default_rng(5)
    message = rng.integers(0, 2, code.message_length).astype(np.uint8)
    cw = code.encode(message)
    noisy = cw.copy()
    noisy[:3] ^= 1
    assert np.array_equal(code.decode(noisy), message)
    stats = telemetry.decoder_stats["bch"]
    assert stats["converged"] == 1 and stats["corrected_bits"] == 3
    hopeless = cw.copy()
    flip = rng.choice(code.codeword_length, size=2 * code.t + 5, replace=False)
    hopeless[flip] ^= 1
    with pytest.raises(DecodingFailure):
        code.decode(hopeless)
    stats = telemetry.decoder_stats["bch"]
    assert stats["decodes"] == 2 and stats["failures"] == 1


def test_monte_carlo_probe_feeds_telemetry(qc_code):
    telemetry = ChannelTelemetry(2)
    policy = SensingLevelPolicy()
    rng = np.random.default_rng(9)
    levels = policy.monte_carlo_required_levels(
        2e-3, qc_code, rng, n_frames=4, telemetry=telemetry
    )
    assert 0 <= levels <= 7
    cal = telemetry.to_dict()["calibration"]
    assert cal[str(levels)]["probes"] == 1
    assert telemetry.decoder_stats["ldpc.minsum"]["decodes"] >= 4


# ---------------------------------------------------------------------------
# Engine integration: non-interference, determinism, closure
# ---------------------------------------------------------------------------


def _des_engine(telemetry=None, registry=None, recorder=None):
    ssd_config = SsdConfig(
        n_blocks=128, pages_per_block=64, initial_pe_cycles=6000
    )
    workload = make_workload("fin-2", ssd_config.logical_pages)
    trace = workload.generate(1_500, seed=7)
    config = SystemConfig(
        ssd=ssd_config, footprint_pages=workload.footprint_pages,
        buffer_pages=512,
    )
    system = build_system("flexlevel", config)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.25,
        n_channels=4,
        retry_model=ReadRetryModel(ReadRetryConfig(seed=2015)),
        observers=observe(
            registry=registry, recorder=recorder, channel_telemetry=telemetry
        ),
    )
    return engine, trace


def _run(telemetry=None, registry=None, recorder=None):
    engine, trace = _des_engine(telemetry, registry, recorder)
    return engine, engine.run(trace, "fin-2")


def test_telemetry_never_touches_simulated_outputs():
    bare_engine, bare = _run()
    telemetry = ChannelTelemetry(128, seed=2015)
    attached_engine, attached = _run(telemetry=telemetry)
    dump = lambda r: json.dumps(r.summary(), sort_keys=True)  # noqa: E731
    assert dump(bare) == dump(attached)
    assert bare.retry_rounds_histogram == attached.retry_rounds_histogram
    assert telemetry.events > 0


def test_cache_hit_parity_attached_vs_detached():
    # Satellite check: BER/levels memoization behaviour is identical
    # with telemetry attached — the estimator never consults the
    # policy caches nor the simulation RNG streams.
    bare_engine, _ = _run()
    attached_engine, _ = _run(telemetry=ChannelTelemetry(128, seed=2015))
    bare_stats = bare_engine.system.ssd.stats
    attached_stats = attached_engine.system.ssd.stats
    assert bare_stats.ber_cache_hits == attached_stats.ber_cache_hits
    assert bare_stats.ber_cache_misses == attached_stats.ber_cache_misses
    assert bare_stats.ber_cache_hit_rate() == pytest.approx(
        attached_stats.ber_cache_hit_rate()
    )


def test_same_seed_runs_export_identical_artifacts():
    a = ChannelTelemetry(128, seed=2015)
    b = ChannelTelemetry(128, seed=2015)
    _run(telemetry=a)
    _run(telemetry=b)
    pa, pb = a.to_dict(), b.to_dict()
    assert pa == pb
    assert pa["fingerprint"] == pb["fingerprint"]


def test_totals_close_against_registry_counters():
    telemetry = ChannelTelemetry(128, seed=2015)
    registry = MetricsRegistry()
    _run(telemetry=telemetry, registry=registry)
    totals = telemetry.to_dict()["totals"]
    snap = registry.snapshot()
    assert totals["sensing_escalations"] == snap["sim.read.retry_rounds"]
    assert totals["uncorrectable"] == snap.get("sim.uncorrectable.reads", 0)
    assert totals["reads"] == snap["channel.reads"]
    assert totals["observed_errors"] == snap["channel.observed_errors"]


def test_windowed_channel_series_populated():
    telemetry = ChannelTelemetry(128, seed=2015)
    recorder = WindowedRecorder(window_us=1000.0)
    _run(telemetry=telemetry, recorder=recorder)
    names = recorder.series_names()
    assert "channel.observed_errors" in names
    assert "channel.sensing.levels" in names


def test_observed_ber_converges_to_analytic():
    telemetry = ChannelTelemetry(128, seed=2015)
    _run(telemetry=telemetry)
    modes = telemetry.observed_vs_analytic()
    assert modes  # at least one cell mode exercised
    for mode, stats in modes.items():
        if stats["reads"] >= 200:
            assert stats["relative_error"] < 0.05, mode


def test_gc_erases_reach_telemetry():
    # Write-heavy config on a tiny SSD forces GC; its erases must land
    # in the telemetry's per-block erase counters.
    ssd_config = SsdConfig(n_blocks=16, pages_per_block=32)
    workload = make_workload("web-1", ssd_config.logical_pages)
    trace = workload.generate(3_000, seed=3)
    config = SystemConfig(
        ssd=ssd_config, footprint_pages=workload.footprint_pages,
        buffer_pages=64,
    )
    system = build_system("flexlevel", config)
    telemetry = ChannelTelemetry(16, seed=1)
    engine = DesSimulationEngine(
        system,
        warmup_fraction=0.1,
        n_channels=2,
        retry_model=None,
        observers=observe(channel_telemetry=telemetry),
    )
    engine.run(trace, "web-1")
    if system.ssd.stats.erase_blocks:
        assert int(telemetry.erases.sum()) == system.ssd.stats.erase_blocks


def test_default_rules_include_channel_drift_detectors():
    names = {rule.name for rule in default_rules()}
    assert {"ber_drift", "sensing_escalation"} <= names
