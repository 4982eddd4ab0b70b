"""Staged, cached, parallel execution of the reproduction pipeline.

* :mod:`repro.runner.keys` -- stable stage-invocation identities.
* :mod:`repro.runner.cache` -- memory + on-disk JSON result cache.
* :mod:`repro.runner.backends` -- the disk-tier backend: a local
  directory with checksums, gzip, and single-flight locks.
* :mod:`repro.runner.stages` -- the pipeline stages + grid points.
* :mod:`repro.runner.sweep` -- grid expansion, dedup, process fan-out,
  checkpoint/resume journaling.
* :mod:`repro.runner.faults` -- retry/backoff/deadline policies,
  per-point failure records, deterministic fault injection.
* :mod:`repro.runner.report` -- figure/table rendering from the cache.
* :mod:`repro.runner.cli` -- ``python -m repro``
  (run / sweep / report / cache / check / lint).

See ``docs/ARCHITECTURE.md`` for the module map and the cache-key flow
through the stages.  The benchmark of record is ``perfbench/run.py``
(see ``perfbench/METRICS.md``).
"""

from .backends import (
    CACHE_FORMAT_VERSION,
    CorruptEntry,
    LocalDirBackend,
    default_backend,
)
from .cache import CacheStats, StageCache
from .faults import (
    FaultAction,
    FaultPlan,
    InjectedFault,
    PointFailure,
    PointTimeout,
    RetryPolicy,
    SweepAborted,
    execute_point,
    set_fault_plan,
)
from .keys import StageKey
from .stages import (
    PointResult,
    PointSpec,
    compute_scaling,
    default_cache,
    reset_default_cache,
    run_point,
)
from .sweep import (
    SMALL_SIM_SIZES,
    GridSpec,
    SweepResult,
    SweepRunner,
    fig6_grid,
    fig6x_grid,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CorruptEntry",
    "LocalDirBackend",
    "StageCache",
    "StageKey",
    "default_backend",
    "FaultAction",
    "FaultPlan",
    "InjectedFault",
    "PointFailure",
    "PointTimeout",
    "RetryPolicy",
    "SweepAborted",
    "execute_point",
    "set_fault_plan",
    "PointResult",
    "PointSpec",
    "compute_scaling",
    "default_cache",
    "reset_default_cache",
    "run_point",
    "GridSpec",
    "SweepResult",
    "SweepRunner",
    "fig6_grid",
    "fig6x_grid",
    "SMALL_SIM_SIZES",
]
