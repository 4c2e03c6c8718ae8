"""The one request pipeline behind ``repro serve``.

Every ``POST /v1/<kind>`` body goes through the same steps:

    prepare (memoized) → response LRU → persistent response tier →
    execute → serialize → cache put → ``server_timing`` splice

with error classification and the per-request metrics
(``serve.request.seconds``, ``serve.queue.wait.seconds``,
``serve.responses.*``) recorded once, here.  `RequestPipeline.handle`
is the dispatcher's half (prepare, splice, metrics) and
`RequestPipeline.respond` the half that owns the caches (lookup,
execute, serialize, put).  The worker models are two transports for
the second half:

- thread mode runs ``respond`` on the HTTP handler thread, so cache
  hits never queue, and hands only the execute step to a
  `repro.serve.pool.WorkerPool` thread;
- process mode ships the request to its shard
  (`repro.serve.shard`), whose own pipeline runs ``respond`` inline;
  the shard's spans come back and join the request's trace.

The pool and the shards only move requests and replies, so the two
worker models answer byte-identically (test-enforced).

`RequestPipeline.prepare` is the one caller of
`repro.serve.jobs.prepare_request` here.  It keeps a bounded LRU memo
from ``(kind, sorted-key JSON of the decoded body)`` to the
`PreparedRequest`, so a body seen before skips parse, A-normalize and
the canonical key.  The memo is exact: `prepare_request` is a pure
function of the kind, the body and the frozen `ServiceDefaults`, and
nothing downstream writes to a prepared request.  Only successful
prepares are stored, so a bad body re-raises its error every time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink
from repro.serve.cache import PersistentResponseTier, ResultCache
from repro.serve.codes import classify_exception
from repro.serve.jobs import (
    Deadline,
    PreparedRequest,
    ServiceDefaults,
    execute_prepared,
    prepare_request,
)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False)


def error_reply(exc: BaseException) -> tuple[int, str]:
    """The ``(http_status, body)`` of a failed request."""
    error = classify_exception(exc)
    return error.error_code.http_status, _dumps(error.payload())


def _error_code_of(body: str) -> str:
    """The structured error code inside an error body (``internal``
    when the body is not the expected shape)."""
    try:
        return json.loads(body)["error"]["code"]
    except Exception:
        return "internal"


def splice_server_timing(
    body: str, ctx: "obs_trace.TraceContext", cache: str, total_s: float
) -> str:
    """Embed the per-request stage breakdown into a success body.

    Cached bodies are stored *without* timings (they are per-request,
    the result is not), so the splice happens after the cache — hit
    and miss responses share one entry and the no-timing response
    stays byte-identical to the in-process API.
    """
    trace = ctx.trace
    timing = {
        "trace_id": ctx.trace_id,
        "cache": cache,
        "total_s": round(total_s, 6),
    }
    for field_name, span_name in (
        ("prepare_s", "prepare"),
        ("queue_wait_s", "queue.wait"),
        ("plan_compile_s", "plan.compile"),
        ("analyze_s", "execute"),
        ("serialize_s", "serialize"),
    ):
        duration = trace.duration_of(span_name)
        timing[field_name] = (
            None if duration is None else round(duration, 6)
        )
    try:
        payload = json.loads(body)
        payload["server_timing"] = timing
        return _dumps(payload)
    except (ValueError, TypeError):  # body must never be lost
        return body


@dataclass
class Reply:
    """One finished request: what the client gets, plus what the
    access log records about it."""

    status: int
    body: str
    prep: PreparedRequest | None
    cache: str
    total_s: float
    #: The structured error code (None on success).
    error: str | None


class RequestPipeline:
    """The defaults, prepare memo, response caches (the in-memory LRU
    and, with an incr store, the persistent response tier), trace sink,
    and metrics one serve process answers requests with.
    ``cache_size`` bounds the prepare memo and the response LRU alike
    (0 turns both off)."""

    def __init__(
        self,
        defaults: ServiceDefaults,
        metrics: Metrics,
        cache_size: int,
        trace: Sink = NULL_SINK,
        incr_store=None,
    ) -> None:
        self.defaults = defaults
        self.metrics = metrics
        self.trace = trace
        self.cache = ResultCache(cache_size, metrics=metrics, trace=trace)
        self._memo_size = cache_size
        self._memo: "OrderedDict[tuple[str, str], PreparedRequest]" = (
            OrderedDict()
        )
        self._memo_lock = threading.Lock()
        self.tier = (
            PersistentResponseTier(incr_store)
            if incr_store is not None
            else None
        )

    def prepare(self, kind: str, payload: dict) -> PreparedRequest:
        """`prepare_request` for a decoded JSON body, answered from the
        memo when the same ``kind`` and body were prepared before.

        A miss records its result only once the prepare succeeds; a
        body `json.dumps` cannot encode is prepared without the memo.
        Hits and misses count as ``serve.prepare.memo.hits`` /
        ``.misses``.
        """
        if self._memo_size == 0:
            return prepare_request(kind, payload, self.defaults)
        try:
            memo_key = (kind, json.dumps(payload, sort_keys=True))
        except (TypeError, ValueError):
            return prepare_request(kind, payload, self.defaults)
        with self._memo_lock:
            prep = self._memo.get(memo_key)
            if prep is not None:
                self._memo.move_to_end(memo_key)
        if prep is not None:
            self.metrics.counter("serve.prepare.memo.hits").inc()
            return prep
        self.metrics.counter("serve.prepare.memo.misses").inc()
        prep = prepare_request(kind, payload, self.defaults)
        with self._memo_lock:
            self._memo[memo_key] = prep
            if len(self._memo) > self._memo_size:
                self._memo.popitem(last=False)
        return prep

    def handle(self, kind: str, payload: dict, respond: Callable) -> Reply:
        """One POST body, start to finish, under the active trace.

        ``respond(prep, payload, deadline) -> (status, body, hit)`` is
        the transport for the lookup and execute steps: this
        pipeline's own `respond`, or a shard's.  It gets the raw
        ``payload`` too, for a transport that re-prepares it on the
        far side.
        """
        started = time.perf_counter()
        prep = None
        hit = False
        try:
            # On a memo hit the span has no ``prepare.*`` children.
            with obs_trace.span("prepare", kind=kind):
                prep = self.prepare(kind, payload)
            status, body, hit = respond(
                prep, payload, Deadline(self.defaults.timeout_seconds)
            )
        except Exception as exc:
            status, body = error_reply(exc)
        total_s = time.perf_counter() - started
        cache = (
            "hit" if hit
            else "miss" if prep is not None and prep.cacheable
            else "bypass"
        )
        ctx = obs_trace.current()
        if status == 200 and prep.server_timing and ctx is not None:
            body = splice_server_timing(body, ctx, cache, total_s)
        error = None if status == 200 else _error_code_of(body)
        self.metrics.counter(
            "serve.responses.ok" if error is None
            else f"serve.responses.error.{error}"
        ).inc()
        self.metrics.histogram("serve.request.seconds").observe(total_s)
        wait = None if ctx is None else ctx.trace.duration_of("queue.wait")
        if wait is not None:
            self.metrics.histogram("serve.queue.wait.seconds").observe(wait)
        return Reply(status, body, prep, cache, total_s, error)

    def respond(
        self,
        prep: PreparedRequest,
        payload: dict,
        deadline: Deadline,
        run: Callable | None = None,
    ) -> tuple[int, str, bool]:
        """Answer a prepared request from the caches, or execute it
        and fill them; returns ``(200, body, hit)`` and raises the
        execute step's `ServeError`.  ``run(step, deadline)`` moves
        the execute step elsewhere (a pool thread); None runs it
        here."""
        lru_key = prep.key
        if prep.cacheable:
            if self.tier is not None:
                # Folding the store generation into the in-memory key
                # invalidates LRU entries when a gc rewrites the store.
                lru_key = self.tier.lru_key(prep.key)
            with obs_trace.span("cache.lookup", kind=prep.kind):
                body = self.cache.get(lru_key)
                if body is None and self.tier is not None:
                    body = self.tier.get(prep.key)
                    if body is not None:
                        self.cache.put(lru_key, body)
            if body is not None:
                return 200, body, True
        step = partial(self._execute, prep, lru_key)
        body = step(deadline) if run is None else run(step, deadline)
        return 200, body, False

    def _execute(
        self, prep: PreparedRequest, lru_key: str | None, deadline: Deadline
    ) -> str:
        deadline.check()
        response = execute_prepared(
            prep,
            deadline=deadline,
            trace=self.trace,
            metrics=self.metrics,
        )
        with obs_trace.span("serialize"):
            body = _dumps(response)
        if prep.cacheable:
            self.cache.put(lru_key, body)
            if self.tier is not None:
                self.tier.put(prep.key, body)
        return body
