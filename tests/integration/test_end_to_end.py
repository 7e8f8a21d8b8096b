"""Integration tests spanning multiple subsystems."""

import numpy as np
import pytest

from repro.baselines.systems import SystemConfig, build_system, system_names
from repro.core.level_adjust import CellMode
from repro.ftl.config import SsdConfig
from repro.sim import DesSimulationEngine
from repro.traces.synthetic import SyntheticWorkload
from repro.traces.io import read_trace_csv, write_trace_csv


@pytest.fixture(scope="module")
def ssd_config():
    return SsdConfig(n_blocks=128, pages_per_block=32, initial_pe_cycles=6000)


@pytest.fixture(scope="module")
def workload(ssd_config):
    return SyntheticWorkload(
        name="integration",
        footprint_pages=int(ssd_config.logical_pages * 0.4),
        read_fraction=0.75,
        read_zipf_s=1.0,
        write_zipf_s=0.9,
        mean_interarrival_us=1500.0,
    )


@pytest.fixture(scope="module")
def trace(workload):
    return workload.generate(8000, seed=42)


@pytest.fixture(scope="module")
def results(ssd_config, workload, trace, shared_policy):
    out = {}
    for name in system_names():
        config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=workload.footprint_pages,
            buffer_pages=128,
            hotness_window=512,
        )
        system = build_system(name, config, level_adjust=shared_policy)
        engine = DesSimulationEngine(
            system, warmup_fraction=0.25, n_channels=1, retry_model=None
        )
        out[name] = (system, engine.run(trace, "integration"))
    return out


class TestFourSystemComparison:
    def test_all_systems_complete(self, results):
        for name, (_, result) in results.items():
            assert result.n_requests == 6000, name

    def test_paper_ordering_flexlevel_beats_adaptive(self, results):
        """The headline: FlexLevel <= LDPC-in-SSD < baseline."""
        baseline = results["baseline"][1].mean_response_us()
        ldpc = results["ldpc-in-ssd"][1].mean_response_us()
        flex = results["flexlevel"][1].mean_response_us()
        assert ldpc < baseline
        assert flex <= ldpc * 1.05  # at worst on par at this small scale

    def test_flexlevel_reduces_mean_sensing_levels(self, results):
        ldpc = results["ldpc-in-ssd"][1].stats["mean_extra_levels"]
        flex = results["flexlevel"][1].stats["mean_extra_levels"]
        assert flex < ldpc

    def test_flexlevel_migrates_and_stays_bounded(self, results, ssd_config):
        system, result = results["flexlevel"]
        assert system.ssd.stats.promotions > 0
        pool_cap = system.access_eval.pool.max_pages
        assert result.stats["reduced_logical_pages"] <= pool_cap + 1

    def test_flexlevel_write_overhead_over_ldpc(self, results):
        """Fig. 7(a): migrations add writes — overhead exists but is
        far below the LevelAdjust-only regime."""
        ldpc = results["ldpc-in-ssd"][1].stats["total_program_pages"]
        flex = results["flexlevel"][1].stats["total_program_pages"]
        assert flex >= ldpc

    def test_leveladjust_only_reads_fastest_but_writes_hurt(self, results):
        la_stats = results["leveladjust-only"][1].stats
        ldpc_stats = results["ldpc-in-ssd"][1].stats
        assert la_stats["mean_extra_levels"] == 0.0
        assert la_stats["erase_blocks"] >= ldpc_stats["erase_blocks"]

    def test_mapping_integrity_after_full_run(self, results):
        for name, (system, _) in results.items():
            ssd = system.ssd
            mapped = ssd._l2p >= 0
            ppns = ssd._l2p[mapped]
            assert (ssd._p2l[ppns] == np.flatnonzero(mapped)).all(), name
            assert ssd._page_valid[ppns].all(), name


class TestTraceFileWorkflow:
    def test_trace_roundtrip_through_simulation(
        self, tmp_path, ssd_config, workload, shared_policy
    ):
        trace = workload.generate(500, seed=7)
        path = tmp_path / "workload.csv"
        write_trace_csv(path, trace)
        loaded = list(read_trace_csv(path))
        config = SystemConfig(
            ssd=ssd_config, footprint_pages=workload.footprint_pages, buffer_pages=32
        )
        system = build_system("flexlevel", config, level_adjust=shared_policy)
        engine = DesSimulationEngine(
            system, warmup_fraction=0.0, n_channels=1, retry_model=None
        )
        result = engine.run(loaded, "file")
        assert result.n_requests == 500


class TestModeRoundTripOnDevice:
    def test_flexlevel_promotion_changes_physical_mode(
        self, ssd_config, shared_policy
    ):
        config = SystemConfig(
            ssd=ssd_config,
            footprint_pages=100,
            buffer_pages=8,
            hotness_window=5,
        )
        system = build_system("flexlevel", config, level_adjust=shared_policy)
        # find an old (slow) page and hammer it
        target = None
        for lpn in range(100):
            info = system.ssd.read_info(lpn, 0.0)
            if shared_policy.extra_levels(info.mode, info.pe_cycles, info.age_hours) > 0:
                target = lpn
                break
        assert target is not None
        for _ in range(25):
            system.serve_read_page(target, 0.0)
        assert system.ssd.mode_of(target) is CellMode.REDUCED
        # after promotion the page reads at base latency
        fast = system.serve_read_page(target, 0.0)
        assert fast == pytest.approx(system.latency.read_latency_us(0))
