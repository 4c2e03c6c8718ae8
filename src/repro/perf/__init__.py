"""`repro.perf`: parallel batch running and the regression benchmark.

- **parallel batch running** (`parallel_map` over
  `repro.perf.pool.PersistentPool`): an order-preserving map across
  long-lived, warm-once worker processes, used by the survey and
  report fan-outs (``--jobs N``) and, via `repro.serve.shard`, by the
  multi-process service.
- `repro.perf.bench` (imported lazily by the CLI, since it depends on
  the analyzers) times corpus and blowup-family workloads with the
  analyzers' eval memo (`repro.analysis.common.WorkBudgetMixin`,
  ``cache=True``) on and off and writes ``BENCH_perf.json``.
"""

from repro.perf.batch import effective_jobs, parallel_map
from repro.perf.pool import (
    PersistentPool,
    WorkerCrashed,
    get_pool,
    shutdown_pools,
    warm_analysis_caches,
)

__all__ = [
    "PersistentPool",
    "WorkerCrashed",
    "effective_jobs",
    "get_pool",
    "parallel_map",
    "shutdown_pools",
    "warm_analysis_caches",
]
