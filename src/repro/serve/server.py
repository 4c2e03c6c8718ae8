"""The HTTP/JSON front end.

`repro.serve.transport` accepts connections and reads each HTTP/1.0
request on a handler thread; `AnalysisService.route` maps it to a reply
(a plain function of method, path, headers and body, testable without
a socket).  A handler thread validates the request, probes the
cross-request result cache, and enqueues a job on the bounded worker
pool, waiting on its completion event.  The routes:

- ``POST /v1/analyze`` — one analyzer on one program;
- ``POST /v1/run``     — one concrete interpreter;
- ``POST /v1/compare`` — the `repro.api.run_comparison` report;
- ``POST /v1/lint``    — the `repro.lint` diagnostics report;
- ``POST /v1/batch``   — many of the above through one dispatch, in
  order, each with its own status;
- ``GET  /v1/corpus``  — valid ``corpus`` program names;
- ``GET  /healthz``    — liveness, version, pid, uptime, queue depth,
  drain state (plus per-shard pids in process mode);
- ``GET  /metricsz``   — the `repro.obs` Metrics snapshot (with
  p50/p90/p99 histogram quantiles), cache and queue statistics; with
  ``?format=prom``, the same registry in Prometheus text exposition.

Every POST body runs through one pipeline
(`repro.serve.pipeline.RequestPipeline`: prepare → response caches →
execute → serialize → cache put → ``server_timing``), over one of two
transports that only move requests and replies:

- ``worker_model="thread"`` (default): the handler thread answers cache
  hits itself and hands the execute step of a miss to the bounded
  in-process `WorkerPool`;
- ``worker_model="process"``: requests are consistent-hash sharded on
  their cache key across N warm-forked analysis processes
  (`repro.serve.shard.ShardedExecutor`), each running the caches and
  the execute step inline, so CPU-bound analysis scales past the GIL
  and each shard's response LRU + plan cache stays hot.  Responses
  are byte-identical to thread mode (test-enforced).

Every POST carries a request-scoped trace (`repro.obs.trace`): the
handler begins a trace from the incoming ``traceparent`` header (or
mints a fresh one), the worker pool or shard carries the context
across its hop, and the response echoes the trace via a
``traceparent`` header.  With ``"server_timing": true`` in the request
body, the response embeds a stage breakdown (prepare, queue wait, plan
compile, analyze, serialize).  When an access log is configured, each
POST writes one JSONL record tied to the same trace id.

Graceful drain (SIGTERM/SIGINT via `run_until_signal`, or `drain()`
programmatically): stop accepting new work (``overloaded``), finish
everything queued and in flight, close the listening socket and join
every handler thread, flush the JSONL trace sink and the access log,
exit 0.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from functools import partial
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.corpus.programs import corpus_listing
from repro.incr.store import open_store
from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink
from repro.serve.accesslog import AccessLog
from repro.serve.codes import ServeError
from repro.serve.jobs import ServiceDefaults
from repro.serve.pipeline import Reply, RequestPipeline, error_reply
from repro.serve.pool import WorkerPool
from repro.serve.shard import ShardedExecutor
from repro.serve.transport import JSON_TYPE, HttpTransport, RouteReply

_POST_ROUTES = {
    "/v1/analyze": "analyze",
    "/v1/run": "run",
    "/v1/compare": "compare",
    "/v1/lint": "lint",
}

#: Upper bound on ``POST /v1/batch`` fan-out per request.
MAX_BATCH_REQUESTS = 64


class _LockedSink:
    """Serializes a shared trace sink across worker threads."""

    def __init__(self, sink: Sink) -> None:
        self._sink = sink
        self._lock = threading.Lock()
        self.enabled = sink.enabled

    def emit(self, event) -> None:
        with self._lock:
            self._sink.emit(event)

    def close(self) -> None:
        with self._lock:
            self._sink.close()


def _dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False)


class AnalysisService:
    """One service instance: request pipeline + executor + HTTP server.

    ``port=0`` binds an ephemeral port; read the resolved one from
    ``.port`` after construction.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8184,
        workers: int = 4,
        queue_size: int = 64,
        cache_size: int = 256,
        defaults: ServiceDefaults | None = None,
        trace: Sink = NULL_SINK,
        metrics: Metrics | None = None,
        verbose: bool = False,
        access_log: "str | Path | AccessLog | None" = None,
        slow_threshold_s: float | None = 1.0,
        worker_model: str = "thread",
        incr_store: "str | None" = None,
    ) -> None:
        if worker_model not in ("thread", "process"):
            raise ValueError(
                "worker_model must be 'thread' or 'process', "
                f"got {worker_model!r}"
            )
        if worker_model == "process" and trace.enabled:
            # Shards have no way to reach this process's sink, so the
            # promised events would silently never arrive.
            raise ValueError(
                "a trace sink (--trace) needs worker_model='thread' "
                "(--worker-model thread): shard processes cannot write "
                "to it"
            )
        self.defaults = defaults or ServiceDefaults()
        self.metrics = metrics if metrics is not None else Metrics()
        self.trace = _LockedSink(trace)
        if isinstance(access_log, (str, Path)):
            access_log = AccessLog(
                access_log, slow_threshold_s=slow_threshold_s
            )
        self.access_log = access_log
        self.worker_model = worker_model
        # The dispatcher keeps its own connection for introspection
        # (`/healthz`, `/metricsz`) in both modes; thread mode also
        # executes through it.  Shards open their own after forking.
        self.incr_store = open_store(incr_store)
        if worker_model == "process":
            # Shard processes must fork before this process grows
            # threads (the HTTP handler threads): forking
            # a threaded parent risks inheriting held locks.
            self.executor: "WorkerPool | ShardedExecutor" = (
                ShardedExecutor(
                    shards=workers,
                    queue_size=queue_size,
                    cache_size=cache_size,
                    defaults=self.defaults,
                    metrics=self.metrics,
                    incr_store=incr_store,
                )
            )
            # The shards own the caches and the store connections the
            # lookup and execute steps use; this pipeline only
            # prepares (through its memo), so its response LRU stays
            # empty.
            self.pipeline = RequestPipeline(
                self.defaults, self.metrics, cache_size
            )
            self._respond = self.executor.respond
        else:
            self.executor = WorkerPool(
                workers=workers,
                queue_size=queue_size,
                metrics=self.metrics,
            )
            self.pipeline = RequestPipeline(
                self.defaults,
                self.metrics,
                cache_size,
                trace=self.trace,
                incr_store=self.incr_store,
            )
            # Hits are answered on the handler thread; only a miss's
            # execute step moves to a worker.
            self._respond = partial(
                self.pipeline.respond, run=self.executor.call
            )
        self.started_at = time.monotonic()
        self._drained = threading.Event()
        self.transport = HttpTransport(host, port, self.route, verbose)
        self.host, self.port = self.transport.host, self.transport.port

    # -- routing ---------------------------------------------------------

    def route(
        self, method: str, path: str, headers: dict, body: bytes
    ) -> RouteReply:
        """One HTTP request, as the transport read it (``headers`` with
        lowercased names), to ``(status, body, content_type,
        extra_headers)``."""
        self._count("serve.requests.total")
        if method == "GET":
            return self._route_get(path)
        if method == "POST":
            return self._route_post(path, headers, body)
        status, text = self._error_response(
            ServeError("not_found", f"no such endpoint: {method} {path}")
        )
        return status, text, JSON_TYPE, ()

    def _route_get(self, path: str) -> RouteReply:
        parts = urlsplit(path)
        if parts.path == "/healthz":
            return 200, _dumps(self.health()), JSON_TYPE, ()
        if parts.path == "/metricsz":
            if parse_qs(parts.query).get("format", [""])[-1] == "prom":
                return (
                    200,
                    self.metrics_prometheus(),
                    "text/plain; version=0.0.4; charset=utf-8",
                    (),
                )
            return 200, _dumps(self.metricsz()), JSON_TYPE, ()
        if parts.path == "/v1/corpus":
            return 200, _dumps(corpus_listing()), JSON_TYPE, ()
        status, text = self._error_response(
            ServeError("not_found", f"no such endpoint: GET {path}")
        )
        return status, text, JSON_TYPE, ()

    def _route_post(self, path: str, headers: dict, body: bytes) -> RouteReply:
        ctx = obs_trace.begin_trace(headers.get("traceparent"))
        root_span_id = None
        kind = _POST_ROUTES.get(path)
        with obs_trace.activate(ctx):
            if kind is None and path != "/v1/batch":
                status, text = self._error_response(
                    ServeError("not_found", f"no such endpoint: POST {path}")
                )
            else:
                try:
                    payload = json.loads(
                        body.decode("utf-8") if body else "{}"
                    )
                except (ValueError, UnicodeDecodeError) as exc:
                    status, text = self._error_response(
                        ServeError(
                            "bad_request",
                            f"request body is not valid JSON: {exc}",
                        )
                    )
                else:
                    with obs_trace.span("request", route=path) as root:
                        root_span_id = root.span_id
                        if kind is None:
                            status, text = self.process_batch(payload)
                        else:
                            status, text = self.process(kind, payload)
        traceparent = obs_trace.format_traceparent(
            ctx.trace_id, root_span_id or obs_trace.new_span_id()
        )
        return status, text, JSON_TYPE, (("traceparent", traceparent),)

    # -- request processing -------------------------------------------

    def process(self, kind: str, payload: dict) -> tuple[int, str]:
        """Run one POST body through the request pipeline; returns
        ``(http_status, response_body)``."""
        ctx = obs_trace.current()
        if ctx is None:
            # In-process callers (tests, smoke) skip the HTTP handler;
            # give them a trace anyway so logs and timings still work.
            ctx = obs_trace.begin_trace()
        with obs_trace.activate(ctx):
            reply = self.pipeline.handle(kind, payload, self._respond)
            self._log_access(kind, reply, ctx)
        return reply.status, reply.body

    def process_batch(self, payload: dict) -> tuple[int, str]:
        """``POST /v1/batch``: many request bodies through one
        dispatch.  Items run concurrently — across the shard processes
        in process mode, across the worker pool in thread mode — and
        come back in input order, each with its own status and body
        (one bad item does not fail its neighbours)."""
        self._count("serve.requests.batch")
        if not isinstance(payload, dict):
            return self._error_response(
                ServeError("bad_request", "batch body must be an object")
            )
        items = payload.get("requests")
        if not isinstance(items, list) or not items:
            return self._error_response(
                ServeError(
                    "bad_request",
                    "batch body needs a non-empty 'requests' array",
                )
            )
        if len(items) > MAX_BATCH_REQUESTS:
            return self._error_response(
                ServeError(
                    "bad_request",
                    f"batch is limited to {MAX_BATCH_REQUESTS} "
                    f"requests, got {len(items)}",
                )
            )
        for position, item in enumerate(items):
            if (
                not isinstance(item, dict)
                or item.get("kind") not in _POST_ROUTES.values()
                or not isinstance(item.get("body"), dict)
            ):
                return self._error_response(
                    ServeError(
                        "bad_request",
                        f"batch item {position} must be "
                        "{'kind': analyze|run|compare|lint, "
                        "'body': {...}}",
                    )
                )
        results: list = [None] * len(items)

        def run_item(position: int, item: dict) -> None:
            status, body = self.process(item["kind"], item["body"])
            try:
                decoded = json.loads(body)
            except ValueError:
                decoded = {"ok": False, "raw": body}
            results[position] = {"status": status, "body": decoded}

        threads = [
            threading.Thread(
                target=run_item,
                args=(position, item),
                name=f"repro-serve-batch-{position}",
            )
            for position, item in enumerate(items)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return 200, _dumps({
            "ok": True,
            "kind": "batch",
            "count": len(items),
            "results": results,
        })

    def _log_access(
        self, kind: str, reply: Reply, ctx: "obs_trace.TraceContext"
    ) -> None:
        """One access-log record per request, from its trace (a
        shard's spans have joined it by now)."""
        if self.access_log is None:
            return
        trace = ctx.trace
        prep = reply.prep
        spec = prep.spec if prep is not None else {}
        try:
            self.access_log.record(
                trace_id=ctx.trace_id,
                route=f"/v1/{kind}",
                kind=kind,
                status=reply.status,
                error=reply.error,
                cache=reply.cache,
                analyzer=spec.get("analyzer"),
                engine=spec.get("engine"),
                domain=spec.get("domain"),
                corpus=spec.get("corpus"),
                queue_wait_s=trace.duration_of("queue.wait"),
                exec_s=trace.duration_of("execute"),
                total_s=round(reply.total_s, 6),
                request=prep.replay_payload()
                if prep is not None
                else None,
                spans=trace.as_dicts(),
            )
        except Exception:  # logging must never fail a request
            self._count("serve.access_log.errors")

    def _error_response(self, error: ServeError) -> tuple[int, str]:
        self._count(f"serve.responses.error.{error.code}")
        return error_reply(error)

    # -- introspection -------------------------------------------------

    def health(self) -> dict:
        """The ``/healthz`` body.  Process mode adds per-shard worker
        pids, queue depths, and liveness."""
        uptime = round(time.monotonic() - self.started_at, 3)
        return {
            "status": "draining" if self.executor.draining else "ok",
            "version": __version__,
            "pid": os.getpid(),
            "worker_model": self.worker_model,
            **self.executor.describe(),
            "uptime_s": uptime,
            # pre-v2 spelling, kept for old scrapers
            "uptime_seconds": uptime,
            "incr_store": self._incr_store_health()
            if self.incr_store is not None
            else None,
        }

    def _incr_store_health(self) -> dict:
        """The dispatcher-side view of the shared store file for
        ``/healthz`` (cheap: one connection, no shard round-trips)."""
        summary = self.incr_store.summary()
        return {
            "path": summary["path"],
            "bytes": summary["bytes"],
            "entries": summary["entries"],
            "generation": summary["generation"],
        }

    def _incr_store_block(self, shards: "list[dict] | None" = None) -> dict:
        """The ``/metricsz`` ``incr_store`` block: the shared file's
        summary plus runtime counters — this process's own in thread
        mode, aggregated over the shard replies in process mode."""
        block = self.incr_store.summary()
        if shards is not None:
            # Runtime counters live in the shard processes; the
            # dispatcher's own connection only reads.  Sum them so the
            # top-level block keeps one hit-rate, like ``cache``.
            totals = dict.fromkeys(("hits", "misses", "puts", "errors"), 0)
            for shard in shards:
                stats = shard.get("incr_store") or {}
                for name in totals:
                    totals[name] += int(stats.get(name, 0))
            block.update(totals)
        return block

    def metricsz(self) -> dict:
        """The ``/metricsz`` JSON body (histograms carry p50/p90/p99).

        Process mode aggregates the shard-local result caches into the
        top-level ``cache`` block (so dashboards keep one hit-rate),
        merges the shards' metrics (``analysis.*``, ``perf.*``,
        ``serve.cache.*`` counters, gauges and histograms) into
        ``metrics``, and reports each shard's cache and plan cache
        under ``shards``.  ``cache.prepare_memo`` carries the
        ``serve.prepare.memo.*`` counters; in process mode they sum
        the dispatcher's prepares and the shards' re-prepares."""
        from repro.machine.absplan import PLAN_CACHE

        executor = self.executor.snapshot()
        # Process mode: the instruments the shards collected.
        metrics = self.metrics.merged(executor.pop("shard_metrics", {}))
        body = {
            "metrics": metrics.snapshot(quantiles=True),
            "worker_model": self.worker_model,
            # replaced by the shards' caches in process mode
            "cache": self.pipeline.cache.snapshot(),
            "plan_cache": PLAN_CACHE.snapshot(),
            **executor,
        }
        counters = body["metrics"]["counters"]
        body["cache"]["prepare_memo"] = {
            outcome: counters.get(f"serve.prepare.memo.{outcome}", 0)
            for outcome in ("hits", "misses")
        }
        body["incr_store"] = (
            self._incr_store_block(body.get("shards"))
            if self.incr_store is not None
            else None
        )
        return body

    def metrics_prometheus(self) -> str:
        """The ``/metricsz?format=prom`` text body.  Queue state is
        folded into gauges at scrape time so the exposition is
        self-contained."""
        executor = self.executor.snapshot()
        self.metrics.gauge("serve.queue.depth").set(
            self.executor.queue_depth
        )
        self.metrics.gauge("serve.inflight").set(self.executor.inflight)
        self.metrics.gauge("serve.uptime.seconds").set(
            round(time.monotonic() - self.started_at, 3)
        )
        if self.incr_store is not None:
            block = self._incr_store_block(executor.get("shards"))
            for name in (
                "bytes", "entries", "generation", "gc_runs",
                "hits", "misses", "puts", "errors",
            ):
                self.metrics.gauge(f"serve.incr_store.{name}").set(
                    block.get(name, 0)
                )
        metrics = self.metrics.merged(executor.get("shard_metrics", {}))
        return metrics.to_prometheus()

    def _count(self, name: str) -> None:
        self.metrics.counter(name).inc()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- lifecycle -----------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: finish in-flight work, stop accepting and
        join the HTTP handler threads, flush the trace sink.
        Idempotent."""
        if self._drained.is_set():
            return True
        clean = self.executor.drain(timeout=timeout)
        self.transport.close()
        self.trace.close()
        if self.access_log is not None:
            self.access_log.close()
        if self.incr_store is not None:
            self.incr_store.close()
        self._drained.set()
        return clean

    def run_until_signal(self) -> int:
        """Block until SIGTERM/SIGINT, then drain; the CLI's serve
        loop.  Returns the process exit code (0 on a clean drain)."""
        stop = threading.Event()

        def request_stop(signum, frame):  # pragma: no cover - signal
            stop.set()

        previous = {
            signum: signal.signal(signum, request_stop)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            # Poll so the main thread keeps servicing signal handlers.
            while not stop.wait(0.2):
                pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
        clean = self.drain()
        return 0 if clean else 1
