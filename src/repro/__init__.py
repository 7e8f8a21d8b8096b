"""FlexLevel reproduction (DAC 2015).

A full implementation of the FlexLevel NAND flash storage system and
every substrate its evaluation depends on.  Subpackage map:

* :mod:`repro.device` — NAND reliability physics and the BER engine,
* :mod:`repro.ecc` — BCH and LDPC codecs, the soft-sensing channel and
  the read-latency model,
* :mod:`repro.core` — the paper's contribution (ReduceCode, two-step
  programming, NUNMA, LevelAdjust, AccessEval),
* :mod:`repro.ftl` — the page-mapped SSD simulator,
* :mod:`repro.sim` — the trace-driven engine,
* :mod:`repro.traces` — trace formats and the synthetic paper workloads,
* :mod:`repro.baselines` — the compared storage systems,
* :mod:`repro.analysis` — calibration and the per-table/figure
  experiment drivers.

The most common entry points are re-exported here.
"""

from repro.analysis.calibration import calibrated_analyzer
from repro.baselines.systems import SystemConfig, build_system, system_names
from repro.core.level_adjust import CellMode, LevelAdjustPolicy
from repro.core.reduce_code import ReduceCodeCoding
from repro.device.voltages import normal_mlc_plan, reduced_plan
from repro.ecc.ldpc.latency import ReadLatencyModel
from repro.ecc.ldpc.sensing import SensingLevelPolicy
from repro.ftl.config import SsdConfig
from repro.sim.des import DesSimulationEngine
from repro.traces.workloads import make_workload, workload_names

__version__ = "1.0.0"

__all__ = [
    "calibrated_analyzer",
    "SystemConfig",
    "build_system",
    "system_names",
    "CellMode",
    "LevelAdjustPolicy",
    "ReduceCodeCoding",
    "normal_mlc_plan",
    "reduced_plan",
    "ReadLatencyModel",
    "SensingLevelPolicy",
    "SsdConfig",
    "DesSimulationEngine",
    "make_workload",
    "workload_names",
    "__version__",
]
