"""The shared replay builder (repro.sim.replay).

Every trace-replay command builds its run through :class:`Replay`, so a
replay through it must equal one assembled by hand, and its manifest
config must carry the run arguments and the fault config.
"""

import pytest

from repro.baselines.systems import SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.ftl.config import SsdConfig
from repro.sim.des import DesSimulationEngine, ReadRetryModel
from repro.sim.replay import Replay
from repro.traces.workloads import make_workload


def test_replay_equals_a_hand_built_run():
    run = Replay("web-1", 800, blocks=64, seed=3, channels=2, warmup_fraction=0.1)
    ssd = SsdConfig(n_blocks=64, pages_per_block=64, initial_pe_cycles=6000.0)
    workload = make_workload("web-1", ssd.logical_pages)
    trace = workload.generate(800, seed=3)
    system = build_system(
        "flexlevel",
        SystemConfig.for_run(ssd, workload.footprint_pages, 800),
        level_adjust=LevelAdjustPolicy(),
    )
    engine = DesSimulationEngine(
        system, warmup_fraction=0.1, n_channels=2, retry_model=ReadRetryModel()
    )
    expected = engine.run(trace, "web-1").summary()
    assert run.trace == trace
    assert run.replay("flexlevel").summary() == expected


def test_inputs_are_built_on_first_use():
    run = Replay("no-such-workload", 100)
    builder = run.begin("repro test", system="flexlevel")
    assert builder.config["workload"] == "no-such-workload"
    with pytest.raises(ConfigurationError, match="unknown workload"):
        run.trace
    with pytest.raises(ConfigurationError, match="unknown system"):
        Replay("fin-2", 100, blocks=64).replay("warp")


def test_manifest_config_carries_run_arguments_and_faults():
    faults = FaultConfig(enabled=True, seed=5)
    run = Replay("fin-2", 100, blocks=64, pe=16000.0, retry=False, faults=faults)
    manifest = run.begin("repro test", system="baseline").finish()
    assert manifest.config == {
        "workload": "fin-2",
        "requests": 100,
        "blocks": 64,
        "pe": 16000.0,
        "seed": 1,
        "engine": "des",
        "channels": 4,
        "retry": False,
        "system": "baseline",
        "faults": faults.to_dict(),
    }
    assert Replay("fin-2", 100).begin("repro test").finish().fault_config is None


def test_a_tenant_mix_run_spans_the_whole_drive():
    run = Replay(None, 400, blocks=64)
    assert run.system_config.footprint_pages == run.ssd_config.logical_pages
    assert run.system("flexlevel").ssd.fault_injector is None
