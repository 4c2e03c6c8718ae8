"""Multi-process analysis shards for the serve layer.

The thread-mode service executes analysis on worker *threads*, so the
GIL caps CPU-bound throughput at roughly one core.  `ShardedExecutor`
promotes execution to N long-lived worker *processes* on the
`repro.perf.pool` warm-fork substrate:

- **Consistent-hash sharding.**  The dispatcher routes each request by
  its canonical cache key (`repro.serve.jobs.prepare_request` — the
  sha256 of the sorted spec): ``int(key[:16], 16) % shards``.  The
  same program × options always lands on the same shard, so that
  shard's response LRU and `PLAN_CACHE` stay hot; uncacheable
  requests (debug hooks) round-robin.
- **Shard-local state.**  Each shard owns its own `ResultCache`,
  `Metrics` registry, and (fork-inherited, then privately growing)
  `PLAN_CACHE`.  Responses are produced by the exact same
  ``prepare → cache → execute → serialize`` pipeline as thread mode,
  so sharded bodies are byte-identical to single-process ones
  (test-enforced).
- **One duplex pipe per shard.**  Handler threads submit under a send
  lock; a per-shard reader thread routes replies back to per-request
  waiters by request id.  Backpressure is per shard: more than
  ``queue_size`` outstanding requests on one shard raises the
  structured ``overloaded`` error.
- **Crash recovery.**  A dying shard (EOF on its pipe) fails its
  in-flight requests with the retryable ``worker_crashed`` code and is
  respawned immediately — the retrying client's next attempt lands on
  a fresh, warmed shard.
- **Graceful drain.**  Stop accepting, wait for in-flight replies,
  send each shard its sentinel, join; stragglers are terminated.

Per-request tracing crosses the process hop the same way it crosses
the thread hop: the dispatcher forwards its ``traceparent``, the shard
begins a trace from it, and the shard's spans (queue wait, cache
lookup, plan compile, execute, serialize) come back in the reply
metadata for the dispatcher's access log and ``server_timing``.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import signal
import threading
import time

from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.incr.store import open_store
from repro.perf.pool import warm_analysis_caches
from repro.serve.cache import PersistentResponseTier, ResultCache
from repro.serve.codes import ServeError, classify_exception
from repro.serve.jobs import (
    Deadline,
    ServiceDefaults,
    execute_prepared,
    prepare_request,
    splice_server_timing,
)


def _dumps(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False)


def shard_index(key: str | None, shards: int, fallback: int) -> int:
    """The shard owning cache key ``key`` (consistent hashing on the
    sha256 hex key); uncacheable requests take the ``fallback``
    (round-robin) slot."""
    if key is None:
        return fallback % shards
    return int(key[:16], 16) % shards


# -- the shard (child process) side ------------------------------------


def _shard_request(
    kind: str,
    payload: dict,
    traceparent: str | None,
    enqueued_at: float,
    deadline_at: float | None,
    defaults: ServiceDefaults,
    cache: ResultCache,
    metrics: Metrics,
    incr_store=None,
) -> tuple[int, str, dict]:
    """One request through the shard-local prepare → cache → execute →
    serialize pipeline; returns ``(status, body, meta)``."""
    ctx = obs_trace.begin_trace(traceparent)
    cache_status = "bypass"
    prep = None
    with obs_trace.activate(ctx):
        started = time.perf_counter()
        # CLOCK_MONOTONIC is shared across processes on Linux, so the
        # dispatcher's enqueue stamp prices the pipe+queue wait here.
        wait = max(0.0, time.monotonic() - enqueued_at)
        obs_trace.record_span("queue.wait", wait)
        try:
            prep = prepare_request(kind, payload, defaults)
        except ServeError as error:
            status = error.error_code.http_status
            body = _dumps(error.payload())
        except Exception as exc:  # defensive: validation must not 500
            error = classify_exception(exc)
            status = error.error_code.http_status
            body = _dumps(error.payload())
        else:
            cache_status = "miss" if prep.cacheable else "bypass"
            tier = (
                PersistentResponseTier(incr_store)
                if incr_store is not None
                else None
            )
            lru_key = prep.key
            if prep.cacheable and tier is not None:
                # A gc bumps the store generation; folding it into the
                # LRU key orphans entries filled before the sweep.
                lru_key = tier.lru_key(prep.key)
            cached = None
            if prep.cacheable:
                with obs_trace.span("cache.lookup", kind=prep.kind):
                    cached = cache.get(lru_key)
                    if cached is None and tier is not None:
                        cached = tier.get(prep.key)
                        if cached is not None:
                            cache.put(lru_key, cached)
            if cached is not None:
                status, body, cache_status = 200, cached, "hit"
            else:
                remaining = (
                    None
                    if deadline_at is None
                    else deadline_at - time.monotonic()
                )
                deadline = Deadline(remaining)
                try:
                    deadline.check()
                    response = execute_prepared(
                        prep, deadline=deadline, metrics=metrics,
                        incr_store=incr_store,
                    )
                    with obs_trace.span("serialize"):
                        body = _dumps(response)
                    if prep.cacheable:
                        cache.put(lru_key, body)
                        if tier is not None:
                            tier.put(prep.key, body)
                    status = 200
                except BaseException as exc:
                    error = classify_exception(exc)
                    status = error.error_code.http_status
                    body = _dumps(error.payload())
        total_s = time.perf_counter() - started
        if prep is not None and prep.server_timing and status == 200:
            body = splice_server_timing(body, ctx, cache_status, total_s)
    trace = ctx.trace
    metrics.histogram("serve.request.seconds").observe(total_s)
    meta = {
        "cache": cache_status,
        "queue_wait_s": trace.duration_of("queue.wait"),
        "exec_s": trace.duration_of("execute"),
        "total_s": round(total_s, 6),
        "spans": trace.as_dicts(),
    }
    return status, body, meta


def _shard_main(
    conn,
    index: int,
    defaults: ServiceDefaults,
    cache_size: int,
    incr_store_path: "str | None" = None,
) -> None:
    """The shard process: warm once, then serve requests off the pipe
    until the sentinel (or a dead dispatcher) says stop."""
    # The dispatcher owns signal-driven shutdown; shards stop on the
    # drain sentinel or on pipe EOF.  Ignoring the signals keeps a
    # terminal Ctrl-C (delivered group-wide) from killing shards
    # mid-request while the dispatcher is still draining.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # Opened after the fork: sqlite connections must not cross it.
    # WAL + busy timeout keep concurrent shard writers safe on the
    # one shared file.
    incr_store = open_store(incr_store_path)
    warm_analysis_caches()
    metrics = Metrics()
    cache = ResultCache(cache_size, metrics=metrics)
    processed = 0
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        tag = message[0]
        if tag == "stats":
            from repro.machine.absplan import PLAN_CACHE

            reply = (
                "stats",
                message[1],
                {
                    "index": index,
                    "pid": os.getpid(),
                    "processed": processed,
                    "cache": cache.snapshot(),
                    "plan_cache": PLAN_CACHE.snapshot(),
                    "incr_store": (
                        None
                        if incr_store is None
                        else incr_store.summary()
                    ),
                },
            )
        else:
            _, req_id, kind, payload, traceparent, t_enq, t_dead = message
            status, body, meta = _shard_request(
                kind, payload, traceparent, t_enq, t_dead,
                defaults, cache, metrics, incr_store,
            )
            processed += 1
            reply = ("res", req_id, status, body, meta)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    if incr_store is not None:
        incr_store.close()
    conn.close()


# -- the dispatcher (parent process) side ------------------------------


class ShardReply:
    """A per-request completion slot the handler thread waits on."""

    __slots__ = ("done", "status", "body", "meta")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.status: int | None = None
        self.body: str | None = None
        self.meta: dict | None = None

    def finish(self, status: int, body: str, meta: dict | None) -> None:
        self.status = status
        self.body = body
        self.meta = meta
        self.done.set()


class _ShardHandle:
    """Parent-side state for one shard process."""

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending_lock = threading.Lock()
        self.pending: dict[int, ShardReply] = {}
        self.processed = 0
        self.reader: threading.Thread | None = None

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def pop_pending(self, req_id: int) -> ShardReply | None:
        with self.pending_lock:
            return self.pending.pop(req_id, None)

    def take_all_pending(self) -> list[ShardReply]:
        with self.pending_lock:
            waiters = list(self.pending.values())
            self.pending.clear()
        return waiters

    @property
    def depth(self) -> int:
        with self.pending_lock:
            return len(self.pending)


class ShardedExecutor:
    """``shards`` analysis worker processes behind one dispatcher."""

    def __init__(
        self,
        shards: int = 4,
        queue_size: int = 64,
        cache_size: int = 256,
        defaults: ServiceDefaults | None = None,
        metrics: Metrics | None = None,
        start_method: str | None = None,
        incr_store: "str | None" = None,
    ) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if queue_size < 1:
            raise ValueError("queue size must be >= 1")
        self.defaults = defaults or ServiceDefaults()
        self.metrics = metrics
        self.queue_size = queue_size
        self.cache_size = cache_size
        self.incr_store_path = incr_store
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        if start_method == "fork":
            # Warm the dispatcher before forking: every shard inherits
            # the analyzer stack, corpus, and compiled plans
            # copy-on-write instead of re-importing them.
            warm_analysis_caches()
        self._ctx = multiprocessing.get_context(start_method)
        self.shards = shards
        self.respawns = 0
        self._draining = False
        self._lock = threading.Lock()  # guards respawn + req ids
        self._req_ids = itertools.count(1)
        self._round_robin = itertools.count()
        self._handles: list[_ShardHandle] = [
            self._spawn(index) for index in range(shards)
        ]

    # -- lifecycle of one shard ---------------------------------------

    def _spawn(self, index: int) -> _ShardHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_main,
            args=(child_conn, index, self.defaults, self.cache_size,
                  self.incr_store_path),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _ShardHandle(index, process, parent_conn)
        handle.reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"repro-serve-shard-reader-{index}",
            daemon=True,
        )
        handle.reader.start()
        return handle

    def _read_loop(self, handle: _ShardHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            tag = message[0]
            if tag == "res":
                _, req_id, status, body, meta = message
                handle.processed += 1
                waiter = handle.pop_pending(req_id)
                if waiter is not None:  # None: handler gave up (timeout)
                    waiter.finish(status, body, meta)
            elif tag == "stats":
                waiter = handle.pop_pending(message[1])
                if waiter is not None:
                    waiter.finish(200, "", message[2])
        if not self._draining:
            self._heal(handle)

    def _heal(self, handle: _ShardHandle) -> None:
        """The shard died: fail its in-flight requests with the
        retryable ``worker_crashed`` code and respawn it."""
        error = ServeError(
            "worker_crashed",
            f"analysis worker for shard {handle.index} died mid-request",
        )
        body = _dumps(error.payload())
        for waiter in handle.take_all_pending():
            waiter.finish(
                error.error_code.http_status,
                body,
                {"cache": "bypass", "spans": []},
            )
        with self._lock:
            if self._draining or self._handles[handle.index] is not handle:
                return  # already replaced (or shutting down)
            handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
            self._handles[handle.index] = self._spawn(handle.index)
            self.respawns += 1
        if self.metrics is not None:
            self.metrics.counter("serve.shard.respawns").inc()

    # -- submission ----------------------------------------------------

    def shard_for(self, key: str | None) -> int:
        return shard_index(key, self.shards, next(self._round_robin))

    def submit(
        self,
        key: str | None,
        kind: str,
        payload: dict,
        traceparent: str | None,
        deadline_at: float | None,
    ) -> ShardReply:
        """Route one request to its shard; returns the reply slot to
        wait on.  Raises ``overloaded`` when draining or when the
        target shard's outstanding window is full."""
        if self._draining:
            raise ServeError("overloaded", "server is draining")
        handle = self._handles[self.shard_for(key)]
        waiter = ShardReply()
        with self._lock:
            req_id = next(self._req_ids)
        with handle.pending_lock:
            if len(handle.pending) >= self.queue_size:
                if self.metrics is not None:
                    self.metrics.counter(
                        "serve.rejected.overloaded"
                    ).inc()
                raise ServeError(
                    "overloaded",
                    f"shard {handle.index} has {self.queue_size} "
                    "requests outstanding",
                )
            handle.pending[req_id] = waiter
        message = (
            "req", req_id, kind, payload, traceparent,
            time.monotonic(), deadline_at,
        )
        try:
            with handle.send_lock:
                handle.conn.send(message)
        except (BrokenPipeError, OSError):
            # The reader loop notices the same death and heals; this
            # request just fails fast as a crash.
            handle.pop_pending(req_id)
            raise ServeError(
                "worker_crashed",
                f"analysis worker for shard {handle.index} is down",
            ) from None
        return waiter

    # -- introspection -------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        return sum(handle.depth for handle in self._handles)

    def describe(self) -> list[dict]:
        """Cheap parent-side shard facts for ``/healthz``."""
        return [
            {
                "index": handle.index,
                "pid": handle.pid,
                "alive": handle.process.is_alive(),
                "pending": handle.depth,
                "processed": handle.processed,
            }
            for handle in self._handles
        ]

    def stats(self, timeout_s: float = 1.0) -> list[dict]:
        """Per-shard cache/plan-cache statistics for ``/metricsz``.

        Each shard answers over its pipe; a shard that is busy with a
        long analysis past ``timeout_s`` reports its parent-side view
        flagged ``"stale": true`` instead of blocking the scrape.
        """
        waiters: list[tuple[_ShardHandle, ShardReply | None]] = []
        for handle in self._handles:
            waiter = ShardReply()
            with self._lock:
                req_id = next(self._req_ids)
            with handle.pending_lock:
                handle.pending[req_id] = waiter
            try:
                with handle.send_lock:
                    handle.conn.send(("stats", req_id))
            except (BrokenPipeError, OSError):
                handle.pop_pending(req_id)
                waiter = None
            waiters.append((handle, waiter))
        results = []
        deadline = time.monotonic() + timeout_s
        for handle, waiter in waiters:
            if waiter is not None and waiter.done.wait(
                max(0.0, deadline - time.monotonic())
            ):
                stats = dict(waiter.meta or {})
            else:
                stats = {"index": handle.index, "pid": handle.pid,
                         "stale": True}
            stats["pending"] = handle.depth
            stats["alive"] = handle.process.is_alive()
            results.append(stats)
        return results

    # -- shutdown ------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, wait for in-flight
        replies, send each shard its sentinel, join.  Returns True
        when every shard exited within ``timeout``."""
        with self._lock:
            # Under the same lock `_heal` holds while replacing a dead
            # shard: after this block no respawn can slip in, and any
            # replacement that already happened is visible in
            # `_handles` below (else the fresh shard would miss its
            # sentinel and outlive the drain).
            if self._draining:
                return True
            self._draining = True
            handles = list(self._handles)
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and any(
            handle.depth for handle in handles
        ):
            time.sleep(0.02)
        for handle in handles:
            try:
                with handle.send_lock:
                    handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        clean = True
        for handle in handles:
            handle.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            if handle.process.is_alive():
                clean = False
                # shards ignore SIGTERM (drain is sentinel-driven), so
                # a straggler needs SIGKILL
                handle.process.kill()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        return clean
