"""Matrix-generation pipeline: incremental structure reuse, caching, parallelism.

This package turns the LP hot path of Algorithms 1 and 3 into a staged
pipeline:

* :mod:`repro.pipeline.fingerprint` — canonical content-addressed keys for
  forests and shared constraint structures;
* :mod:`repro.pipeline.cache` — an LRU :class:`MatrixCache` with hit/miss
  statistics (the engine's forest, prepared-level and LP caches);
* :mod:`repro.pipeline.executor` — process-parallel fan-out of independent
  per-sub-tree robust generations with deterministic, order-stable results.

The structural half of the incremental story lives in
:class:`repro.core.lp.ConstraintStructure`, which the LP builds once per
location set and refreshes per iteration.  See PERFORMANCE.md for the
architecture overview and the perf harness.
"""

from repro.pipeline.cache import CacheStats, MatrixCache
from repro.pipeline.executor import (
    PreparedProblem,
    RobustGenerationTask,
    execute_robust_task,
    execute_robust_task_group,
    run_robust_task_groups,
    run_robust_tasks,
)
from repro.pipeline.fingerprint import (
    FINGERPRINT_VERSION,
    array_digest,
    fingerprint_fields,
    structure_fingerprint,
)

__all__ = [
    "CacheStats",
    "MatrixCache",
    "PreparedProblem",
    "RobustGenerationTask",
    "execute_robust_task",
    "execute_robust_task_group",
    "run_robust_task_groups",
    "run_robust_tasks",
    "FINGERPRINT_VERSION",
    "array_digest",
    "fingerprint_fields",
    "structure_fingerprint",
]
