"""`repro.serve`: the analysis-as-a-service layer.

A stdlib-only HTTP/JSON server that keeps the paper's interpreters and
analyzers warm in one long-lived process:

- :mod:`repro.serve.codes` — the structured error vocabulary shared by
  the service's JSON payloads and the CLI's exit codes;
- :mod:`repro.serve.jobs` — request validation and in-process
  execution (the same code path the server workers run);
- :mod:`repro.serve.cache` — the cross-request LRU result cache;
- :mod:`repro.serve.pipeline` — the one request pipeline both worker
  models run (prepare → caches → execute → serialize → timing);
- :mod:`repro.serve.pool` — the bounded request queue + worker pool
  (thread mode); :mod:`repro.serve.shard` — the analysis shard
  processes (process mode);
- :mod:`repro.serve.server` — ``POST /v1/analyze``, ``POST /v1/run``,
  ``POST /v1/compare``, ``GET /healthz``, ``GET /metricsz``;
- :mod:`repro.serve.transport` — the HTTP/1.0 transport under it
  (handler threads that accept directly, one-pass request reads, one
  write per reply);
- :mod:`repro.serve.client` — a retrying client with exponential
  backoff + jitter on ``overloaded`` and connection errors;
- :mod:`repro.serve.accesslog` — the JSONL access log (one record per
  request, trace-id linked, slow requests carry their full spans);
- :mod:`repro.serve.loadgen` — the closed/open-loop load generator
  behind ``repro loadgen`` and ``BENCH_serve.json``;
- :mod:`repro.serve.smoke` — the end-to-end smoke harness CI runs.

See ``docs/SERVICE.md`` for the wire protocol and
``docs/OBSERVABILITY.md`` for tracing, the access log, and loadgen.
"""

from repro.serve.accesslog import AccessLog, read_access_log
from repro.serve.cache import ResultCache
from repro.serve.client import RetryPolicy, ServiceClient, ServiceError
from repro.serve.codes import (
    CODES,
    ErrorCode,
    ServeError,
    classify_exception,
    exit_code_for,
)
from repro.serve.jobs import cache_key, execute_request
from repro.serve.loadgen import run_loadgen, validate_loadgen
from repro.serve.pool import WorkerPool
from repro.serve.server import AnalysisService

__all__ = [
    "AccessLog",
    "AnalysisService",
    "CODES",
    "ErrorCode",
    "ResultCache",
    "RetryPolicy",
    "ServeError",
    "ServiceClient",
    "ServiceError",
    "WorkerPool",
    "cache_key",
    "classify_exception",
    "execute_request",
    "exit_code_for",
    "read_access_log",
    "run_loadgen",
    "validate_loadgen",
]
