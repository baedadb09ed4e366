"""Model-based differential testing for the temporal engine.

``repro.sim`` pits the real engine against an independent in-memory
oracle (:mod:`repro.sim.oracle`) on seeded random TQuel workloads
(:mod:`repro.sim.generator`), across the access-method x atomic config
matrix (:mod:`repro.sim.harness`).  Diverging workloads are
minimized by :mod:`repro.sim.shrink` and written as runnable ``.tquel``
case files (:mod:`repro.sim.corpus`).  ``python -m repro.sim`` drives it
all from the command line.
"""

from repro.sim.generator import (
    DB_TYPES,
    PROFILES,
    Workload,
    WorkloadGenerator,
    generate_workload,
)
from repro.sim.harness import (
    CONFIG_MATRIX,
    Config,
    Divergence,
    RunReport,
    run_seed,
    run_workload,
)
from repro.sim.oracle import Oracle, OracleError, OracleResult
from repro.sim.shrink import shrink_workload

__all__ = [
    "CONFIG_MATRIX",
    "Config",
    "DB_TYPES",
    "Divergence",
    "Oracle",
    "OracleError",
    "OracleResult",
    "PROFILES",
    "RunReport",
    "Workload",
    "WorkloadGenerator",
    "generate_workload",
    "run_seed",
    "run_workload",
    "shrink_workload",
]
