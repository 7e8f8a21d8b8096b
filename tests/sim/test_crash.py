"""End-to-end crash → recover → resume tests (repro.sim.crash).

The headline property: at every seeded crash point, the recovered
mapping equals the committed prefix of an uncrashed reference run of
the same (trace, config, seed) — and ``recover`` itself cross-checks
the two remount paths (journal replay vs full OOB scan) and verifies
no acknowledged write is lost, raising on violation, so simply
completing the sweep exercises the crash invariant.
"""

import json

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.faults.power import PowerConfig
from repro.ftl.config import SsdConfig
from repro.ftl.recovery import RecoveryConfig, RecoveryManager
from repro.sim.crash import recover, run_with_crashes
from repro.sim.des import DesSimulationEngine, ReadRetryModel
from repro.traces.schema import TraceRecord

RECOVERY = RecoveryConfig(checkpoint_interval_us=5_000.0)

#: Engine layouts: the single FIFO queue without read retry, and four
#: channels with the default retry model.
LAYOUTS = {
    "queue": {"n_channels": 1, "retry": False},
    "des": {"n_channels": 4, "retry": True},
}


def small_config(buffer_pages=16):
    ssd = SsdConfig(n_blocks=64, pages_per_block=16, gc_free_block_threshold=2)
    return SystemConfig(
        ssd=ssd,
        footprint_pages=int(ssd.logical_pages * 0.4),
        buffer_pages=buffer_pages,
        hotness_window=64,
    )


def write_heavy_trace(n=400, footprint=100):
    return [
        TraceRecord(i * 200.0, (i * 13) % footprint, 1, i % 4 != 0)
        for i in range(n)
    ]


def make_engine(name, system):
    layout = LAYOUTS[name]
    return DesSimulationEngine(
        system,
        warmup_fraction=0.0,
        n_channels=layout["n_channels"],
        retry_model=ReadRetryModel() if layout["retry"] else None,
    )


def reference_medium(engine_name, trace):
    """The uncrashed oracle: same trace, no cut, manager log kept."""
    config = small_config()
    manager = RecoveryManager(RECOVERY, config.ssd)
    system = build_system("flexlevel", config, recovery=manager)
    make_engine(engine_name, system).run(trace, "ref")
    return manager


# Seeded sweep: K crash points spread over the run span (the trace
# spans 80 ms; points avoid 0 and the tail where the run has drained).
CRASH_POINTS = [7_321.0, 14_900.0, 26_017.0, 39_500.0, 51_113.0, 63_777.0]


class TestCrashPointSweep:
    @pytest.mark.parametrize("engine_name", ["queue", "des"])
    def test_recovered_mapping_is_committed_prefix_of_reference(
        self, engine_name
    ):
        trace = write_heavy_trace()
        ref = reference_medium(engine_name, trace)
        for T in CRASH_POINTS:
            config = small_config()
            manager = RecoveryManager(RECOVERY, config.ssd)
            system = build_system("flexlevel", config, recovery=manager)
            result = make_engine(engine_name, system).run(
                trace, "t", crash_us=T
            )
            assert result.crashed and result.crash_us == T
            # recover() raises on remount divergence or a lost acked
            # write; the sweep passing at every point IS the invariant.
            outcome = recover(system, T, system_name="flexlevel")
            assert outcome.report.scan_matches_replay
            # Determinism makes the reference's durable prefix at T
            # byte-identical to the crashed run's recovered state.
            assert outcome.state.mapping() == ref.scan_at(T).mapping()
            assert outcome.state.versions() == ref.scan_at(T).versions()

    @pytest.mark.parametrize("engine_name", ["queue", "des"])
    def test_resumed_run_completes_the_trace(self, engine_name):
        trace = write_heavy_trace()
        run = run_with_crashes(
            "flexlevel",
            small_config(),
            trace,
            PowerConfig(enabled=True, at_us=26_017.0),
            recovery=RECOVERY,
            **LAYOUTS[engine_name],
        )
        assert run.crashes == 1
        assert not run.final.crashed
        assert run.final_system is not None
        assert run.final_system.ssd.recovery is not None
        report = run.reports[0]
        assert report.strategy == "journal"
        assert report.recovery_time_us > 0.0


class TestRateModeCycles:
    def test_repeated_cuts_recover_and_finish(self):
        run = run_with_crashes(
            "flexlevel",
            small_config(),
            write_heavy_trace(),
            PowerConfig(enabled=True, rate_per_s=60.0, seed=5, max_crashes=3),
            recovery=RECOVERY,
            **LAYOUTS["queue"],
        )
        assert 1 <= run.crashes <= 3
        assert not run.final.crashed
        cuts = [c.result.crash_us for c in run.cycles if c.outcome is not None]
        assert cuts == sorted(cuts)

    def test_resume_false_stops_after_first_recovery(self):
        run = run_with_crashes(
            "flexlevel",
            small_config(),
            write_heavy_trace(),
            PowerConfig(enabled=True, at_us=26_017.0),
            recovery=RECOVERY,
            **LAYOUTS["queue"],
            resume=False,
        )
        assert run.crashes == 1
        assert len(run.cycles) == 1
        assert run.final.crashed


class TestDeterminism:
    @pytest.mark.parametrize("engine_name", ["queue", "des"])
    def test_same_seed_same_artifact(self, engine_name):
        """The whole-run artifact — every crash point, every remount
        report, every fingerprint — is byte-stable under a fixed
        (trace, config, SPO seed)."""

        def one_run():
            return run_with_crashes(
                "flexlevel",
                small_config(),
                write_heavy_trace(),
                PowerConfig(
                    enabled=True, rate_per_s=40.0, seed=9, max_crashes=4
                ),
                recovery=RECOVERY,
                **LAYOUTS[engine_name],
            ).to_dict()

        a, b = one_run(), one_run()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        assert a["fingerprint"] == b["fingerprint"]

    def test_different_spo_seed_moves_the_cuts(self):
        def fp(seed):
            return run_with_crashes(
                "flexlevel",
                small_config(),
                write_heavy_trace(),
                PowerConfig(
                    enabled=True, rate_per_s=40.0, seed=seed, max_crashes=4
                ),
                recovery=RECOVERY,
                **LAYOUTS["queue"],
            ).to_dict()["fingerprint"]

        assert fp(9) != fp(10)
