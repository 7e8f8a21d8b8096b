"""Pinned digests of small seeded runs that exercise the read and GC paths.

Hot-path optimisations (Bloom hashing, memoised read-service lookups,
whole-array decoders, array-native garbage collection) must leave every
simulated output unchanged.  Each simulation run's ``result.summary()``
and the SSD's ``SsdStats.snapshot()`` (BER-cache hits and misses,
promotions, demotions, the extra-level histogram, GC and fault
counters) are hashed and compared against digests recorded before those
optimisations; the ECC run hashes cold BER values and every decoded
frame, and the direct FTL stream hashes the final mapping, the erase
counts and the durable record log.  Floats are canonicalised to 12
significant digits so a last-ulp difference between numpy builds cannot
flip a digest, while any behavioural change still does.

:class:`TestCommandGoldens` pins the Fig. 6/7 driver and the
``simulate``/``crash``/``profile``/``monitor``/``explain`` commands bit
for bit (``float.hex`` digests, artifact fingerprints and file hashes),
as recorded while a separate single-queue engine still existed; the
``trace``/``channel``/``metrics ls``/``serve`` outputs and every
command's manifest ``config_hash`` were recorded while each command
still built its run by hand.

:class:`TestObserverDigests` pins runs with every observer attached: a
DES run with a windowed recorder, health monitor, channel telemetry,
registry and tracer; a serve run with its recorder and monitor, crash
free and cut; and a ``run_with_crashes`` sweep on one and four
channels.  Observers are advanced with the event loop's virtual time,
so these digests pin *when* queue-pair submissions flush and windows
close, not only what the simulation computed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.analysis.calibration import calibrated_analyzer
from repro.analysis.experiments import SystemExperimentConfig, run_workload_matrix
from repro.baselines.systems import SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan
from repro.ecc.bch import BchCode
from repro.ecc.ldpc import (
    LdpcCode,
    MinSumDecoder,
    NandReadChannel,
    SensingLevelPolicy,
    SumProductDecoder,
)
from repro.core.level_adjust import CellMode
from repro.errors import DecodingFailure
from repro.faults import FaultConfig, FaultInjector, PowerConfig
from repro.ftl.config import SsdConfig
from repro.ftl.recovery import RecoveryConfig, RecoveryManager, recovery_fingerprint
from repro.ftl.ssd import Ssd
from repro.ftl.wear_leveling import WearLeveler
from repro.obs import (
    HealthMonitor,
    MetricsRegistry,
    MonitorConfig,
    Tracer,
    WindowedRecorder,
)
from repro.obs.channel import ChannelTelemetry
from repro.serve import ServeEngine, build_artifact, parse_mix
from repro.sim import DesSimulationEngine, run_with_crashes, observe
from repro.traces.workloads import make_workload

#: Digests recorded on the implementation before the read-path lookups.
DES_SUMMARY_DIGEST = "937a2e1f06d66545"
DES_STATS_DIGEST = "c73a4e2a243acf05"
SERVE_SUMMARY_DIGEST = "264c12ea2cc71654"
SERVE_STATS_DIGEST = "f09f0d1b80e6ddd6"
#: Recorded on the scalar (per-check, per-power) decoders.
ECC_DIGEST = "fef52fec24d4675d"
#: Recorded on the per-block Python GC loops (victim scan, relocation).
GC_DES_SUMMARY_DIGEST = "1d40bd2d255f866a"
GC_DES_STATS_DIGEST = "eaad5735d2981d0b"
FTL_STREAM_DIGEST = "fc5f190f911c62c9"
#: Recorded while a separate single-queue engine still existed: the
#: Fig. 6/7 driver ran on it, and the CLI runs passed ``--engine des``
#: (the single-queue CLI digest ran ``--engine queue``).
MATRIX_DIGEST = "145d6329d392ba4f"
SIMULATE_DIGEST = "e551e00f2ed1aff6"
SINGLE_QUEUE_SIMULATE_DIGEST = "6ebedef9f5cfd628"
CRASH_FINGERPRINT = "10de2958893a6d7d"
PROFILE_FINGERPRINT = "c0f421fd8f8ff436"
MONITOR_DIGEST = "6708e038c7804d3f"
EXPLAIN_DIGEST = "aa3c8cd702f304c0"
#: Recorded before the commands' run plumbing moved into one replay
#: path: the remaining artifact bytes, and every command's manifest
#: ``config_hash`` (a drifted run config changes it).
TRACE_CHROME_DIGEST = "466d2f2ce043c723"
TRACE_JSONL_DIGEST = "7bf5226d9de8716f"
CHANNEL_DIGEST = "0a6b9e12ad062783"
METRICS_LS_DIGEST = "740e07d4b60184e4"
SERVE_DIGEST = "154dbe00ed5e3e63"
CONFIG_HASHES = {
    "simulate": "acfd5ddaecd88bc3",
    "crash": "c71295325a4050d3",
    "profile": "441f8c7cfc2593e2",
    "monitor": "f745c55ac962191b",
    "explain": "a013adb25762b66b",
    "trace": "d38a7b6893950c95",
    "channel": "cd47e2ce5666cca0",
    "serve": "cf2b23054bc648f0",
}
#: Recorded with the observers advanced on every page-op completion and
#: GC drain event.
OBSERVED_DES_DIGEST = "b0704d22c80c36e4"
OBSERVED_SERVE_DIGESTS = {
    None: "f7a00b19ac6dc75d",
    150_000.0: "b7ed03a4cdeab57d",
    480_000.0: "26b72bb6608fe286",
    910_000.0: "8e2a951135c24ffd",
}
CRASH_SWEEP_DIGESTS = {1: "727bc42b63ee0b91", 4: "3bcb02d2abdfb11d"}
#: Summary keys only a multi-channel retry model reports; the
#: single-queue digest covers every other key.
DES_ONLY_KEYS = frozenset(
    {
        "n_channels",
        "makespan_us",
        "mean_channel_utilization",
        "mean_retry_rounds",
        "uncorrectable_reads",
        "uncorrectable_rate",
        "stats.mean_retry_rounds",
    }
)


def digest(payload: dict) -> str:
    """16-hex-digit SHA-256 of a canonicalised flat dictionary."""
    canonical = {
        str(key): format(value, ".12g") if isinstance(value, float) else value
        for key, value in payload.items()
    }
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def hex_digest(payload: dict) -> str:
    """16-hex-digit SHA-256 with floats as ``float.hex`` (bit-exact)."""
    canonical = {
        str(key): value.hex() if isinstance(value, float) else value
        for key, value in payload.items()
    }
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def json_digest(*bodies) -> str:
    """16-hex-digit SHA-256 of JSON bodies (floats by ``repr``: bit-exact)."""
    text = json.dumps(bodies, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _virtual_metrics(registry: MetricsRegistry) -> dict:
    """The registry snapshot without its wall-clock gauges."""
    return {
        key: value
        for key, value in registry.snapshot().items()
        if not key.startswith("sim.wall.")
    }


def _file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _config_hash(manifest_path) -> str:
    return json.loads(manifest_path.read_text())["config_hash"]


def _sidecar_hash(out) -> str:
    """The ``config_hash`` of the manifest written beside artifact ``out``."""
    return _config_hash(out.with_name(out.stem + "_manifest.json"))


def _cli(capsys, *argv: str) -> str:
    """Run one ``repro`` command; returns its stdout."""
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _flexlevel(buffer_pages: int):
    ssd = SsdConfig(n_blocks=64, pages_per_block=64)
    config = SystemConfig(
        ssd=ssd,
        footprint_pages=ssd.logical_pages,
        buffer_pages=buffer_pages,
        hotness_window=64,
        reduced_pool_fraction=0.01,
    )
    # A private policy: its cache counters must not depend on which
    # other tests warmed a shared one.
    return build_system("flexlevel", config, level_adjust=LevelAdjustPolicy())


def des_run():
    """Flexlevel on web-1 through the DES engine: retry on, 4 channels."""
    system = _flexlevel(buffer_pages=32)
    records = make_workload("web-1", system.config.ssd.logical_pages).generate(
        2000, seed=3
    )
    engine = DesSimulationEngine(system, n_channels=4)
    return engine.run(records, workload_name="web-1"), system


def serve_run():
    """``repro serve`` under WFQ: three 1x fin-2 tenants, one 10x."""
    system = _flexlevel(buffer_pages=64)
    specs = parse_mix("fin-2:3,fin-2:1:10", n_requests=150, slo_us=2000.0)
    engine = ServeEngine(system, specs, seed=11, scheduler="wfq", n_channels=4)
    return engine.run(), system


def _gc_heavy_config(n_blocks: int = 64):
    """prj-1 on a drive whose reduced-mode writes keep GC busy."""
    ssd = SsdConfig(n_blocks=n_blocks, pages_per_block=64, over_provisioning=0.35)
    workload = make_workload("prj-1", ssd.logical_pages)
    config = SystemConfig(
        ssd=ssd,
        footprint_pages=workload.footprint_pages,
        buffer_pages=32,
        hotness_window=64,
    )
    return config, workload


def gc_des_run():
    """LevelAdjust-only on prj-1 through DES at 64 blocks: every write
    lands in reduced mode, so GC runs on most writes (write
    amplification ~6.5)."""
    config, workload = _gc_heavy_config()
    system = build_system("leveladjust-only", config, level_adjust=LevelAdjustPolicy())
    records = workload.generate(4000, seed=5)
    engine = DesSimulationEngine(system, n_channels=4)
    return engine.run(records, workload_name="prj-1"), system


def ftl_stream_run() -> tuple[Ssd, dict]:
    """A direct ``Ssd`` write stream over every GC side path.

    Mixed normal/reduced/SLC writes and trims on a drive with a wear
    leveler, an enabled fault injector (manufacture-bad blocks, program
    and erase failures, so blocks are retired with live data on them)
    and a recovery manager recording every program, erase, trim and
    retirement.
    """
    config = SsdConfig(
        n_blocks=64, pages_per_block=16, gc_free_block_threshold=2, initial_pe_cycles=6000
    )
    faults = FaultConfig(
        enabled=True,
        seed=7,
        initial_bad_block_rate=0.03,
        program_fail_base=1e-3,
        erase_fail_base=2e-3,
        spare_block_fraction=0.2,
        scrub_enabled=False,
    )
    manager = RecoveryManager(RecoveryConfig(checkpoint_interval_us=200_000.0), config)
    prefill = int(config.logical_pages * 0.7)
    ssd = Ssd(
        config,
        prefill_pages=prefill,
        reduced_prefix_pages=prefill // 4,
        initial_age_hours=12.0,
        wear_leveler=WearLeveler(spread_threshold=3, check_interval=2),
        fault_injector=FaultInjector(faults),
        recovery=manager,
    )
    rng = np.random.default_rng(17)
    modes = (CellMode.NORMAL, CellMode.REDUCED, CellMode.SLC)
    now = 0.0
    for _ in range(6000):
        now += 250.0
        draw = rng.random()
        if draw < 0.03:
            ssd.trim(int(rng.integers(prefill)))
            continue
        lpn = int(rng.integers(prefill // 3 if draw < 0.8 else prefill))
        ssd.host_write(lpn, modes[int(rng.choice(3, p=[0.7, 0.28, 0.02]))], now)
    log = [
        [type(record).__name__, *(getattr(record, name) for name in record.__slots__)]
        for record in manager._log
    ]
    mapping = sorted(manager.scan_at(now).mapping().items())
    payload = {
        **ssd.stats.snapshot(),
        "l2p": hashlib.sha256(ssd._l2p.tobytes()).hexdigest(),
        "block_erase": hashlib.sha256(ssd._block_erase.tobytes()).hexdigest(),
        "recovery": recovery_fingerprint({"log": log, "mapping": mapping}),
    }
    return ssd, payload


def _frame(bits: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(bits, dtype=np.uint8).tobytes()).hexdigest()[:16]


def ecc_run() -> dict:
    """The bit-accurate read path on a small seeded grid.

    Per (mode, P/E, age) point: the cold BER, the sensing ladder's extra
    levels, LDPC frames through min-sum and sum-product, and BCH frames
    at that BER.  Harder channels than the grid's own (LDPC at 2-4 %
    raw BER, BCH overloaded past ``t``) add multi-iteration decodes and
    decoding failures to the digest.
    """
    rng = np.random.default_rng(13)
    analyzers = {
        "normal": calibrated_analyzer(normal_mlc_plan()),
        "reduced": calibrated_analyzer(
            reduced_plan("nunma3"), coding=ReduceCodeCoding()
        ),
    }
    code = LdpcCode.regular(n=256, wc=3, wr=8, seed=21)
    decoders = {
        "minsum": MinSumDecoder(code, max_iterations=20),
        "sumproduct": SumProductDecoder(code, max_iterations=20),
    }
    bch = BchCode(m=8, t=6, shortened_k=128)
    sensing = SensingLevelPolicy()
    payload: dict = {}
    for mode, analyzer in analyzers.items():
        for pe in (2000.0, 6000.0):
            for age in (24.0, 720.0):
                point = f"{mode}/{pe:g}/{age:g}"
                ber = analyzer.bit_error_rate(
                    pe_cycles=pe, t_hours=age, include_c2c=False
                ).total
                levels = sensing.required_levels(ber)
                payload[f"{point}/ber"] = ber
                payload[f"{point}/levels"] = levels
                channels = {
                    "grid": NandReadChannel(ber, extra_levels=levels),
                    "hard": NandReadChannel(0.02 + 0.01 * levels, extra_levels=2),
                }
                for label, channel in channels.items():
                    for frame in range(2):
                        sent = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
                        llrs = channel.llrs_for(channel.transmit(sent, rng))
                        for name, decoder in decoders.items():
                            key = f"{point}/{label}/{frame}/{name}"
                            try:
                                result = decoder.decode(llrs)
                                payload[key] = (
                                    f"{_frame(result.codeword)}:{result.iterations}"
                                )
                            except DecodingFailure as failure:
                                payload[key] = f"fail:{failure.iterations}"
                for frame, extra in enumerate((0, bch.t + 1, bch.t + 4)):
                    message = rng.integers(0, 2, bch.message_length, dtype=np.uint8)
                    codeword = bch.encode(message)
                    payload[f"{point}/bch/{frame}/parity"] = _frame(codeword)
                    flips = rng.random(bch.codeword_length) < ber
                    flips[rng.choice(bch.codeword_length, extra, replace=False)] = True
                    try:
                        payload[f"{point}/bch/{frame}"] = _frame(
                            bch.decode(codeword ^ flips)
                        )
                    except DecodingFailure:
                        payload[f"{point}/bch/{frame}"] = "fail"
    return payload


class TestRunDigests:
    def test_des_run_is_unchanged(self):
        result, system = des_run()
        stats = system.ssd.stats.snapshot()
        assert stats["promotions"] > 0 and stats["demotions"] > 0
        assert digest(result.summary()) == DES_SUMMARY_DIGEST
        assert digest(stats) == DES_STATS_DIGEST

    def test_serve_run_is_unchanged(self):
        result, system = serve_run()
        summary = {**result.fleet_summary(), **result.sim.summary()}
        stats = system.ssd.stats.snapshot()
        assert stats["promotions"] > 0
        assert digest(summary) == SERVE_SUMMARY_DIGEST
        assert digest(stats) == SERVE_STATS_DIGEST

    def test_ecc_run_is_unchanged(self):
        payload = ecc_run()
        ldpc = [v for k, v in payload.items() if k.endswith(("minsum", "sumproduct"))]
        assert any(v.startswith("fail:") for v in ldpc)
        assert any(not v.startswith("fail") and not v.endswith(":1") for v in ldpc)
        assert "fail" in payload.values()  # an overloaded BCH frame
        assert digest(payload) == ECC_DIGEST

    def test_gc_des_run_is_unchanged(self):
        result, system = gc_des_run()
        stats = system.ssd.stats.snapshot()
        assert stats["write_amplification"] > 5.0
        assert stats["erase_blocks"] > 500
        assert digest(result.summary()) == GC_DES_SUMMARY_DIGEST
        assert digest(stats) == GC_DES_STATS_DIGEST

    def test_ftl_stream_is_unchanged(self):
        ssd, payload = ftl_stream_run()
        stats = ssd.stats
        assert stats.program_fail_events > 0 and stats.erase_fail_events > 0
        assert stats.wear_level_moves > 0 and stats.trimmed_pages > 0
        assert not ssd.read_only
        assert digest(payload) == FTL_STREAM_DIGEST


def matrix_payload() -> dict:
    """The Fig. 6/7 driver on all 7 workloads x 4 systems at 64 blocks
    (10 of the 28 pairs garbage-collect): means plus every stats key."""
    payload = {}
    for run in run_workload_matrix(SystemExperimentConfig(n_blocks=64, n_requests=3000)):
        stats = dict(run.stats)
        # The one key the single-queue driver did not report.
        assert stats.pop("mean_retry_rounds") == 0.0
        prefix = f"{run.workload}/{run.system}"
        payload[f"{prefix}/mean"] = run.mean_response_us
        payload[f"{prefix}/read"] = run.mean_read_response_us
        for key, value in stats.items():
            payload[f"{prefix}/{key}"] = value
    return payload


class TestCommandGoldens:
    """The driver and CLI outputs of the two-engine tree, pinned bit for bit."""

    common = ("--requests", "1200", "--blocks", "128")

    def test_workload_matrix_is_unchanged(self):
        assert hex_digest(matrix_payload()) == MATRIX_DIGEST

    def simulate_rows(self, capsys, tmp_path, *extra):
        out = _cli(
            capsys, "simulate", "fin-2", "--json", *self.common,
            "--out-dir", str(tmp_path), *extra,
        )
        return json.loads(out)["rows"]

    def test_simulate_summaries_are_unchanged(self, capsys, tmp_path):
        rows = self.simulate_rows(capsys, tmp_path)
        payload = {
            f"{row['system']}/{key}": value
            for row in rows
            for key, value in row["summary"].items()
        }
        assert hex_digest(payload) == SIMULATE_DIGEST
        manifest = tmp_path / "manifest_simulate_fin-2_des.json"
        assert _config_hash(manifest) == CONFIG_HASHES["simulate"]

    def test_one_channel_without_retry_is_the_single_queue(self, capsys, tmp_path):
        rows = self.simulate_rows(capsys, tmp_path, "--channels", "1", "--no-retry")
        payload = {
            f"{row['system']}/{key}": value
            for row in rows
            for key, value in row["summary"].items()
            if key not in DES_ONLY_KEYS
        }
        assert all(row["summary"]["stats.mean_retry_rounds"] == 0.0 for row in rows)
        assert hex_digest(payload) == SINGLE_QUEUE_SIMULATE_DIGEST

    def test_crash_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "crash.json"
        _cli(
            capsys, "crash", "prj-1", "--at-us", "150000", "--requests", "1500",
            "--blocks", "64", "--checkpoint-interval-us", "50000", "--out", str(out),
        )
        body = json.loads(out.read_text())
        assert body["crashes"] == 1
        assert body["fingerprint"] == CRASH_FINGERPRINT
        assert _sidecar_hash(out) == CONFIG_HASHES["crash"]

    def test_profile_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        _cli(capsys, "profile", "fin-2", "--mode", "instrument", *self.common, "--out", str(out))
        assert json.loads(out.read_text())["fingerprint"] == PROFILE_FINGERPRINT
        assert _sidecar_hash(out) == CONFIG_HASHES["profile"]

    def test_monitor_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "monitor.json"
        _cli(
            capsys, "monitor", "fin-2", "--requests", "1500", "--blocks", "128",
            "--pe", "16000", "--faults", "--fault-scale", "100", "--seed", "42",
            "--out", str(out),
        )
        assert json.loads(out.read_text())["monitor"]["n_alerts"] > 0
        assert _file_digest(out) == MONITOR_DIGEST
        assert _sidecar_hash(out) == CONFIG_HASHES["monitor"]

    def test_explain_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "explain.json"
        _cli(capsys, "explain", "fin-2", *self.common, "--out", str(out))
        assert _file_digest(out) == EXPLAIN_DIGEST
        assert _sidecar_hash(out) == CONFIG_HASHES["explain"]

    def test_trace_files_are_unchanged(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        _cli(
            capsys, "trace", "fin-2", *self.common, "--sample-every", "50",
            "--format", "both", "--out", str(out),
        )
        assert _file_digest(out) == TRACE_CHROME_DIGEST
        assert _file_digest(out.with_suffix(".jsonl")) == TRACE_JSONL_DIGEST
        assert _sidecar_hash(out) == CONFIG_HASHES["trace"]

    def test_channel_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "channel.json"
        _cli(
            capsys, "channel", "fin-2", *self.common, "--seed", "7",
            "--vs", "baseline", "--out", str(out),
        )
        assert "vs" in json.loads(out.read_text())
        assert _file_digest(out) == CHANNEL_DIGEST
        assert _sidecar_hash(out) == CONFIG_HASHES["channel"]

    def test_metrics_listing_is_unchanged(self, capsys):
        # No --requests: the listing runs at the command's own default.
        out = _cli(capsys, "metrics", "ls", "fin-2", "--blocks", "128", "--json")
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == METRICS_LS_DIGEST

    def test_serve_artifact_is_unchanged(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        printed = _cli(
            capsys, "serve", "--mix", "fin-2:2,fin-2:1:10", "--requests", "100",
            "--blocks", "128", "--scheduler", "wfq", "--json", "--out", str(out),
        )
        assert printed.encode() == out.read_bytes()
        assert _file_digest(out) == SERVE_DIGEST
        assert _sidecar_hash(out) == CONFIG_HASHES["serve"]


#: Narrow windows: many closes per run, so a shifted close shows.
OBSERVER_WINDOW_US = 250.0


def observed_des_run() -> str:
    """GC-heavy, fault-injected DES run with every observer attached."""
    config, workload = _gc_heavy_config()
    faults = FaultConfig(enabled=True, seed=9).scaled(100.0)
    system = build_system(
        "leveladjust-only",
        config,
        level_adjust=LevelAdjustPolicy(),
        fault_injector=FaultInjector(faults),
    )
    registry = MetricsRegistry()
    tracer = Tracer(sample_every=1, keep_slowest=0)
    recorder = WindowedRecorder(window_us=OBSERVER_WINDOW_US)
    monitor = HealthMonitor(
        recorder,
        registry=registry,
        tracer=tracer,
        config=MonitorConfig(slo_us=2000.0, warmup_windows=4),
    ).attach()
    telemetry = ChannelTelemetry(
        config.ssd.n_blocks, page_bits=config.ssd.page_size_bytes * 8, seed=4
    )
    engine = DesSimulationEngine(
        system,
        n_channels=4,
        observers=observe(
            registry=registry,
            tracer=tracer,
            recorder=recorder,
            channel_telemetry=telemetry,
        ),
    )
    result = engine.run(workload.generate(1500, seed=8), workload_name="prj-1")
    assert monitor.n_alerts > 0
    return json_digest(
        result.summary(),
        recorder.to_dict(),
        monitor.to_dict(),
        telemetry.to_dict(),
        _virtual_metrics(registry),
    )


def observed_serve_run(crash_us: float | None) -> str:
    """``repro serve`` with its recorder and monitor, optionally cut."""
    system = _flexlevel(buffer_pages=64)
    specs = parse_mix("fin-2:3,fin-2:1:10", n_requests=200, slo_us=2000.0)
    registry = MetricsRegistry()
    recorder = WindowedRecorder(window_us=OBSERVER_WINDOW_US)
    engine = ServeEngine(
        system,
        specs,
        seed=11,
        scheduler="wfq",
        n_channels=4,
        registry=registry,
        recorder=recorder,
        monitor_config=MonitorConfig(warmup_windows=4),
    )
    result = engine.run(crash_us=crash_us)
    assert result.sim.crashed == (crash_us is not None)
    return json_digest(
        build_artifact(result),
        recorder.to_dict(),
        result.monitor.to_dict(),
        _virtual_metrics(registry),
    )


#: Power cuts of the crash sweep (virtual us).
CRASH_CUTS_US = (150_000.0, 1_234_567.0, 2_900_000.5, 4_400_000.0)


def crash_sweep(n_channels: int) -> str:
    """``run_with_crashes`` at each cut, with a recorder and monitor."""
    config, workload = _gc_heavy_config(n_blocks=48)
    records = workload.generate(1200, seed=6)
    digests = []
    for cut_us in CRASH_CUTS_US:
        registry = MetricsRegistry()
        recorder = WindowedRecorder(window_us=OBSERVER_WINDOW_US)
        monitor = HealthMonitor(recorder, registry=registry).attach()
        run = run_with_crashes(
            "leveladjust-only",
            config,
            records,
            PowerConfig(enabled=True, at_us=cut_us),
            n_channels=n_channels,
            retry=n_channels > 1,
            workload_name="prj-1",
            registry=registry,
            recorder=recorder,
        )
        assert run.crashes == 1
        digests.append(
            json_digest(
                run.to_dict(),
                run.final.summary(),
                recorder.to_dict(),
                monitor.to_dict(),
                _virtual_metrics(registry),
            )
        )
    return json_digest(digests)


class TestObserverDigests:
    """Observer-attached runs, pinned byte for byte."""

    def test_observed_des_run_is_unchanged(self):
        assert observed_des_run() == OBSERVED_DES_DIGEST

    @pytest.mark.parametrize("crash_us", sorted(OBSERVED_SERVE_DIGESTS, key=str))
    def test_observed_serve_run_is_unchanged(self, crash_us):
        assert observed_serve_run(crash_us) == OBSERVED_SERVE_DIGESTS[crash_us]

    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_crash_sweep_is_unchanged(self, n_channels):
        assert crash_sweep(n_channels) == CRASH_SWEEP_DIGESTS[n_channels]
