"""Experiment drivers: one function per paper table/figure.

Each driver returns plain data structures (dicts / lists) that the
benchmark harness prints in the paper's layout and EXPERIMENTS.md
records.  All drivers run on the calibrated device models
(:mod:`repro.analysis.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.calibration import calibrated_analyzer
from repro.baselines.systems import SystemConfig, build_system, system_names
from repro.core.level_adjust import LevelAdjustPolicy
from repro.core.nunma import basic_reduced_plan
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan
from repro.ecc.ldpc.sensing import SensingLevelPolicy
from repro.ftl.config import SsdConfig
from repro.ftl.lifetime import lifetime_ratio
from repro.sim.des import DesSimulationEngine
from repro.traces.workloads import make_workload, workload_names
from repro.units import DAY, MONTH, WEEK

#: Table 4 / 5 axes.
PE_GRID = (2000, 3000, 4000, 5000, 6000)
TIME_GRID = ((1 * DAY, "1 day"), (2 * DAY, "2 days"), (WEEK, "1 week"), (MONTH, "1 month"))

#: Paper Table 4 reference values (baseline rows) for the comparison report.
PAPER_TABLE4_BASELINE = {
    (2000, 24.0): 0.000638, (2000, 48.0): 0.000715, (2000, 168.0): 0.00103, (2000, 720.0): 0.00184,
    (3000, 24.0): 0.00146, (3000, 48.0): 0.00169, (3000, 168.0): 0.00260, (3000, 720.0): 0.00459,
    (4000, 24.0): 0.00229, (4000, 48.0): 0.00284, (4000, 168.0): 0.00456, (4000, 720.0): 0.00778,
    (5000, 24.0): 0.00359, (5000, 48.0): 0.00457, (5000, 168.0): 0.00699, (5000, 720.0): 0.0120,
    (6000, 24.0): 0.00484, (6000, 48.0): 0.00613, (6000, 168.0): 0.00961, (6000, 720.0): 0.0161,
}

#: Paper Table 5 (required extra soft-sensing levels, baseline MLC).
PAPER_TABLE5 = {
    (3000, 0.0): 0, (3000, 24.0): 0, (3000, 48.0): 0, (3000, 168.0): 0, (3000, 720.0): 1,
    (4000, 0.0): 0, (4000, 24.0): 0, (4000, 48.0): 0, (4000, 168.0): 1, (4000, 720.0): 4,
    (5000, 0.0): 0, (5000, 24.0): 0, (5000, 48.0): 1, (5000, 168.0): 2, (5000, 720.0): 4,
    (6000, 0.0): 0, (6000, 24.0): 1, (6000, 48.0): 2, (6000, 168.0): 4, (6000, 720.0): 6,
}


def _analyzers():
    coding = ReduceCodeCoding()
    analyzers = {"baseline": calibrated_analyzer(normal_mlc_plan())}
    for config in ("nunma1", "nunma2", "nunma3"):
        analyzers[config] = calibrated_analyzer(reduced_plan(config), coding=coding)
    return analyzers


# --- device-level experiments ------------------------------------------------------


def run_fig5_c2c_ber() -> dict[str, float]:
    """Fig. 5: interference-only BER of baseline vs the NUNMA configs."""
    return {name: an.c2c_ber().total for name, an in _analyzers().items()}


def run_table4_retention_ber(
    pe_grid: tuple[int, ...] = PE_GRID,
    time_grid=TIME_GRID,
) -> dict[str, dict[tuple[int, float], float]]:
    """Table 4: retention BER per scheme, P/E count and storage time."""
    results: dict[str, dict[tuple[int, float], float]] = {}
    for name, analyzer in _analyzers().items():
        table: dict[tuple[int, float], float] = {}
        for pe in pe_grid:
            for hours, _ in time_grid:
                table[(pe, hours)] = analyzer.retention_ber(pe, hours).total
        results[name] = table
    return results


def run_table5_sensing_levels(
    pe_grid: tuple[int, ...] = (3000, 4000, 5000, 6000),
) -> dict[tuple[int, float], int]:
    """Table 5: extra soft-sensing levels demanded by the baseline MLC."""
    analyzer = calibrated_analyzer(normal_mlc_plan())
    policy = SensingLevelPolicy()
    table: dict[tuple[int, float], int] = {}
    for pe in pe_grid:
        for hours in (0.0, 24.0, 48.0, 168.0, 720.0):
            ber = analyzer.retention_ber(pe, hours).total if hours else analyzer.bit_error_rate(
                pe_cycles=pe, t_hours=0.0, include_c2c=False
            ).total
            table[(pe, hours)] = policy.required_levels(ber)
    return table


def run_per_level_error_shares(pe: int = 5000, t_hours: float = MONTH) -> dict[int, float]:
    """§4.2's observation: error shares per Vth level under basic
    LevelAdjust (paper: 78 % at level 2, 15 % at level 1)."""
    analyzer = calibrated_analyzer(basic_reduced_plan(), coding=ReduceCodeCoding())
    return analyzer.retention_ber(pe, t_hours).per_level


# --- system-level experiments ------------------------------------------------------


@dataclass(frozen=True)
class SystemExperimentConfig:
    """Shared knobs for the Fig. 6 / Fig. 7 trace simulations."""

    n_blocks: int = 256
    pages_per_block: int = 64
    n_requests: int = 40_000
    buffer_pages: int = 512
    warmup_fraction: float = 0.25
    seed: int = 1
    initial_pe_cycles: float = 6000.0

    def ssd_config(self, pe_cycles: float | None = None) -> SsdConfig:
        return SsdConfig(
            n_blocks=self.n_blocks,
            pages_per_block=self.pages_per_block,
            initial_pe_cycles=pe_cycles if pe_cycles is not None else self.initial_pe_cycles,
        )


@dataclass
class SystemRun:
    """One (workload, system) simulation result."""

    workload: str
    system: str
    mean_response_us: float
    mean_read_response_us: float
    stats: dict[str, float] = field(default_factory=dict)


def run_workload_matrix(
    config: SystemExperimentConfig | None = None,
    workloads: tuple[str, ...] | None = None,
    systems: tuple[str, ...] | None = None,
    pe_cycles: float | None = None,
    policy: LevelAdjustPolicy | None = None,
) -> list[SystemRun]:
    """Run every (workload, system) pair once; the Fig. 6 / 7 substrate."""
    config = config or SystemExperimentConfig()
    workloads = workloads or workload_names()
    systems = systems or system_names()
    policy = policy or LevelAdjustPolicy()
    ssd_config = config.ssd_config(pe_cycles)
    runs: list[SystemRun] = []
    for workload_name in workloads:
        workload = make_workload(workload_name, ssd_config.logical_pages)
        trace = workload.generate(config.n_requests, seed=config.seed)
        for system_name in systems:
            system_config = SystemConfig(
                ssd=ssd_config,
                footprint_pages=workload.footprint_pages,
                buffer_pages=config.buffer_pages,
            )
            system = build_system(system_name, system_config, level_adjust=policy)
            # One channel, no read retry: the single FIFO queue whose
            # per-request queueing turns read-latency differences into
            # the paper's response-time gaps.
            engine = DesSimulationEngine(
                system,
                warmup_fraction=config.warmup_fraction,
                n_channels=1,
                retry_model=None,
            )
            result = engine.run(trace, workload_name)
            runs.append(
                SystemRun(
                    workload=workload_name,
                    system=system_name,
                    mean_response_us=result.mean_response_us(),
                    mean_read_response_us=result.mean_read_response_us(),
                    stats=dict(result.stats),
                )
            )
    return runs


def normalized_response_times(runs: list[SystemRun]) -> dict[str, dict[str, float]]:
    """Fig. 6(a): per-workload response times normalized to the baseline."""
    by_workload: dict[str, dict[str, float]] = {}
    for run in runs:
        by_workload.setdefault(run.workload, {})[run.system] = run.mean_response_us
    normalized: dict[str, dict[str, float]] = {}
    for workload, values in by_workload.items():
        base = values["baseline"]
        normalized[workload] = {name: value / base for name, value in values.items()}
    return normalized


def run_fig6a(config: SystemExperimentConfig | None = None) -> dict[str, dict[str, float]]:
    """Fig. 6(a): normalized overall response time, all four systems."""
    return normalized_response_times(run_workload_matrix(config))


def run_fig6b(
    config: SystemExperimentConfig | None = None,
    pe_grid: tuple[int, ...] = (4000, 5000, 6000),
) -> dict[int, float]:
    """Fig. 6(b): FlexLevel's response-time reduction vs LDPC-in-SSD as a
    function of P/E count (paper: 21 % -> 33 % from 4000 to 6000)."""
    config = config or SystemExperimentConfig()
    reductions: dict[int, float] = {}
    for pe in pe_grid:
        runs = run_workload_matrix(
            config, systems=("ldpc-in-ssd", "flexlevel"), pe_cycles=pe
        )
        ratios = []
        by_workload: dict[str, dict[str, float]] = {}
        for run in runs:
            by_workload.setdefault(run.workload, {})[run.system] = run.mean_response_us
        for values in by_workload.values():
            ratios.append(values["flexlevel"] / values["ldpc-in-ssd"])
        reductions[pe] = 1.0 - float(np.mean(ratios))
    return reductions


def run_fig7_endurance(
    config: SystemExperimentConfig | None = None,
    pe_budget: float = 10_000.0,
    activation_pe: float = 4000.0,
) -> dict[str, dict[str, float]]:
    """Fig. 7: write / erase count increases and lifetime of FlexLevel
    relative to LDPC-in-SSD, per workload (simulated at 6000 P/E)."""
    runs = run_workload_matrix(config, systems=("ldpc-in-ssd", "flexlevel"))
    by_workload: dict[str, dict[str, dict[str, float]]] = {}
    for run in runs:
        by_workload.setdefault(run.workload, {})[run.system] = run.stats
    report: dict[str, dict[str, float]] = {}
    for workload, stats in by_workload.items():
        ldpc = stats["ldpc-in-ssd"]
        flex = stats["flexlevel"]
        ldpc_programs = ldpc["total_program_pages"]
        if ldpc_programs > 0:
            write_increase = flex["total_program_pages"] / ldpc_programs - 1.0
        else:
            # Degenerate short runs where nothing was flushed: report the
            # migrations as an infinite relative increase, or zero when
            # FlexLevel also wrote nothing.
            write_increase = float("inf") if flex["total_program_pages"] else 0.0
        ldpc_erases = ldpc["erase_blocks"]
        flex_erases = flex["erase_blocks"]
        if ldpc_erases > 0:
            erase_increase = flex_erases / ldpc_erases - 1.0
        else:
            # Write-light workloads (web) erase nothing without FlexLevel;
            # report the absolute count as the relative-to-nothing marker.
            erase_increase = float("inf") if flex_erases else 0.0
        finite_erase = erase_increase if np.isfinite(erase_increase) else 1.0
        report[workload] = {
            "write_increase": write_increase,
            "erase_increase": erase_increase,
            "lifetime_ratio": lifetime_ratio(
                max(finite_erase, 0.0), activation_pe=activation_pe, pe_budget=pe_budget
            ),
        }
    return report


def run_capacity_loss(
    config: SystemExperimentConfig | None = None,
) -> dict[str, dict[str, float]]:
    """§5's capacity claim: AccessEval turns the raw 25 % density loss
    into a small bounded fraction of total capacity."""
    config = config or SystemExperimentConfig()
    runs = run_workload_matrix(config, systems=("flexlevel",))
    report: dict[str, dict[str, float]] = {}
    logical = config.ssd_config().logical_pages
    for run in runs:
        reduced = run.stats["reduced_logical_pages"]
        report[run.workload] = {
            "reduced_fraction": reduced / logical,
            # The paper's accounting: reduced-state data loses 25 % of
            # the space it occupies (2 cells hold 3 bits instead of 4).
            "capacity_loss_fraction": 0.25 * reduced / logical,
        }
    report["bound"] = {
        "reduced_fraction": 0.25,
        # 64 GB of a 256 GB drive at 25 % loss = 6.25 % (paper: "6 %").
        "capacity_loss_fraction": 0.25 * 0.25,
    }
    return report
