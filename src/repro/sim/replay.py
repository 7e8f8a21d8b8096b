"""One trace replay, built from the run arguments every command shares.

A drive of ``blocks`` 64-page blocks at ``pe`` P/E cycles, one paper
workload's seeded trace, the systems configured for that run, its fault
schedule and manifest, and a DES engine with the run's channels, warmup
and read-retry model: :class:`Replay` builds each in one place, so a
command only picks its observers and its rendering.  Imported by name,
never by :mod:`repro.sim`, so start-up loads nothing new.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

from repro.baselines import SystemConfig, build_system
from repro.core.level_adjust import LevelAdjustPolicy
from repro.faults import FaultConfig, FaultInjector, PowerConfig
from repro.ftl import SsdConfig
from repro.obs.manifest import ManifestBuilder
from repro.sim.crash import CrashRunResult, run_with_crashes
from repro.sim.des import DesSimulationEngine, ReadRetryModel, observe
from repro.sim.results import DesSimulationResult
from repro.traces import make_workload


@dataclass
class Replay:
    """The shared run arguments of one replay, and what they build.

    Inputs are built on first use, so :meth:`begin` costs nothing.
    ``workload=None`` is a tenant-mix run (``repro serve``): no trace,
    and the footprint is the whole drive.
    """

    workload: str | None
    requests: int
    blocks: int = 256
    pe: float = 6000.0
    seed: int = 1
    channels: int = 4
    retry: bool = True
    warmup_fraction: float = 0.25
    faults: FaultConfig | None = None

    @cached_property
    def ssd_config(self) -> SsdConfig:
        return SsdConfig(
            n_blocks=self.blocks, pages_per_block=64, initial_pe_cycles=self.pe
        )

    @cached_property
    def _workload(self):
        return make_workload(self.workload, self.ssd_config.logical_pages)

    @cached_property
    def trace(self) -> list:
        return self._workload.generate(self.requests, seed=self.seed)

    @cached_property
    def system_config(self) -> SystemConfig:
        footprint = (
            self.ssd_config.logical_pages
            if self.workload is None
            else self._workload.footprint_pages
        )
        return SystemConfig.for_run(self.ssd_config, footprint, self.requests)

    def config(self, **extra: Any) -> dict[str, Any]:
        """The manifest's JSON-serialisable run configuration.

        ``engine`` is a constant: it keeps every recorded config hash.
        """
        return {
            "workload": self.workload,
            "requests": self.requests,
            "blocks": self.blocks,
            "pe": self.pe,
            "seed": self.seed,
            "engine": "des",
            "channels": self.channels,
            "retry": self.retry,
            **extra,
        }

    def begin(self, command: str, **extra: Any) -> ManifestBuilder:
        """Start the run manifest; the fault config joins the hashed config."""
        builder = ManifestBuilder.begin(
            command, self.config(**extra), seed=self.seed
        )
        if self.faults is not None:
            builder.set_fault_config(self.faults.to_dict())
        return builder

    def system(self, name: str, policy: LevelAdjustPolicy | None = None):
        """One storage system, with a fresh fault injector when faults are on.

        Every system of a run sees the same fault schedule, drawn from
        the same seeded streams.  ``policy`` defaults to a private
        LevelAdjustPolicy.
        """
        return build_system(
            name,
            self.system_config,
            level_adjust=policy or LevelAdjustPolicy(),
            fault_injector=(
                FaultInjector(self.faults) if self.faults is not None else None
            ),
        )

    def engine(
        self,
        system_name: str,
        policy: LevelAdjustPolicy | None = None,
        **instruments: Any,
    ) -> DesSimulationEngine:
        """A fresh system on the run's engine, not yet run.

        ``instruments`` (registry, tracer, recorder, channel_telemetry)
        are attached as observers (:func:`repro.sim.observe`).
        """
        return DesSimulationEngine(
            self.system(system_name, policy),
            warmup_fraction=self.warmup_fraction,
            n_channels=self.channels,
            retry_model=ReadRetryModel() if self.retry else None,
            observers=observe(**instruments),
        )

    def replay(self, system_name: str, **instruments: Any) -> DesSimulationResult:
        """Replay the trace on a fresh ``system_name`` (see :meth:`engine`)."""
        return self.engine(system_name, **instruments).run(
            self.trace, self.workload
        )

    def with_crashes(
        self, system_name: str, power: PowerConfig, **kwargs: Any
    ) -> CrashRunResult:
        """Replay under seeded power cuts (:func:`repro.sim.run_with_crashes`)."""
        return run_with_crashes(
            system_name,
            self.system_config,
            self.trace,
            power,
            fault_config=self.faults,
            warmup_fraction=self.warmup_fraction,
            n_channels=self.channels,
            retry=self.retry,
            workload_name=self.workload,
            **kwargs,
        )


__all__ = ["Replay"]
