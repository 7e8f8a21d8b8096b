"""Pinned digests of two small seeded runs that exercise the read path.

Read-path optimisations (Bloom hashing, memoised read-service lookups)
must leave every simulated output unchanged.  Each run's
``result.summary()`` and the SSD's ``SsdStats.snapshot()`` (BER-cache
hits and misses, promotions, demotions, the extra-level histogram) are
hashed and compared against digests recorded before those
optimisations.  Floats are canonicalised to 12 significant digits so a
last-ulp difference between numpy builds cannot flip a digest, while any
behavioural change still does.
"""

from __future__ import annotations

import hashlib
import json

from repro.baselines.systems import SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.ftl.config import SsdConfig
from repro.serve import ServeEngine, parse_mix
from repro.sim import DesSimulationEngine
from repro.traces.workloads import make_workload

#: Digests recorded on the implementation before the read-path lookups.
DES_SUMMARY_DIGEST = "937a2e1f06d66545"
DES_STATS_DIGEST = "c73a4e2a243acf05"
SERVE_SUMMARY_DIGEST = "264c12ea2cc71654"
SERVE_STATS_DIGEST = "f09f0d1b80e6ddd6"


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
