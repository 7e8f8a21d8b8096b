"""Pinned digests of small seeded runs that exercise the read path.

Read-path optimisations (Bloom hashing, memoised read-service lookups,
whole-array decoders) must leave every simulated output unchanged.  Each
simulation run's ``result.summary()`` and the SSD's
``SsdStats.snapshot()`` (BER-cache hits and misses, promotions,
demotions, the extra-level histogram) are hashed and compared against
digests recorded before those optimisations; the ECC run hashes cold
BER values and every decoded frame.  Floats are canonicalised to 12
significant digits so a last-ulp difference between numpy builds cannot
flip a digest, while any behavioural change still does.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.analysis.calibration import calibrated_analyzer
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
from repro.errors import DecodingFailure
from repro.ftl.config import SsdConfig
from repro.serve import ServeEngine, parse_mix
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

#: Digests recorded on the implementation before the read-path lookups.
DES_SUMMARY_DIGEST = "937a2e1f06d66545"
DES_STATS_DIGEST = "c73a4e2a243acf05"
SERVE_SUMMARY_DIGEST = "264c12ea2cc71654"
SERVE_STATS_DIGEST = "f09f0d1b80e6ddd6"
#: Recorded on the scalar (per-check, per-power) decoders.
ECC_DIGEST = "fef52fec24d4675d"


def digest(payload: dict) -> str:
    """16-hex-digit SHA-256 of a canonicalised flat dictionary."""
    canonical = {
        str(key): format(value, ".12g") if isinstance(value, float) else value
        for key, value in payload.items()
    }
    text = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


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
