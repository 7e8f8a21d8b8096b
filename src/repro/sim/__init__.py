"""Trace-driven simulation and result aggregation.

:class:`~repro.sim.des.DesSimulationEngine` is the one engine: a
discrete-event, multi-channel model with read retry.  With
``n_channels=1`` and ``retry_model=None`` it is the single FIFO queue
the paper's Fig. 6 / Fig. 7 response-time gaps come from.
"""

from repro.sim.results import DEFAULT_SAMPLE_CAP, DesSimulationResult
from repro.sim.des import (
    DesSimulationEngine,
    ReadRetryConfig,
    ReadRetryModel,
    RetryOutcome,
    RunObserver,
    observe,
)
from repro.sim.crash import (
    CrashCycle,
    CrashRunResult,
    RecoveryOutcome,
    recover,
    run_with_crashes,
)

__all__ = [
    "DEFAULT_SAMPLE_CAP",
    "DesSimulationEngine",
    "DesSimulationResult",
    "ReadRetryConfig",
    "ReadRetryModel",
    "RetryOutcome",
    "RunObserver",
    "observe",
    "CrashCycle",
    "CrashRunResult",
    "RecoveryOutcome",
    "recover",
    "run_with_crashes",
]
