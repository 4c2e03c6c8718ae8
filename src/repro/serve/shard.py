"""Multi-process analysis shards for the serve layer.

The thread-mode service executes analysis on worker *threads*, so the
GIL caps CPU-bound throughput at roughly one core.  `ShardedExecutor`
is the process-mode transport for the request pipeline
(`repro.serve.pipeline`): N long-lived worker *processes* on the
`repro.perf.pool` warm-fork substrate, each with its own
`RequestPipeline`.  The dispatcher runs the pipeline's prepare,
``server_timing`` and metrics steps; the shard runs the lookup,
execute, serialize and cache-put steps inline.  The executor itself
only moves requests and replies:

- **Consistent-hash sharding.**  The dispatcher routes each request by
  its canonical cache key (`repro.serve.jobs.prepare_request` — the
  sha256 of the sorted spec): ``int(key[:16], 16) % shards``.  The
  same program × options always lands on the same shard, so that
  shard's response LRU and `PLAN_CACHE` stay hot; uncacheable
  requests (debug hooks) round-robin.
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

Per-request tracing crosses the process hop the way it crosses the
thread hop: the dispatcher forwards its ``traceparent``, the shard
begins a trace from it, and the shard's spans (queue wait, cache
lookup, plan compile, execute, serialize) come back in the reply and
join the dispatcher's trace, where the access log and
``server_timing`` read them.  Trace *events* do not cross: a service
with a trace sink refuses the process model.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import threading
import time

from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.incr.store import open_store
from repro.perf.pool import warm_analysis_caches
from repro.serve.codes import ServeError
from repro.serve.jobs import Deadline, PreparedRequest, ServiceDefaults
from repro.serve.pipeline import RequestPipeline, error_reply


def shard_index(key: str | None, shards: int, fallback: int) -> int:
    """The shard owning cache key ``key`` (consistent hashing on the
    sha256 hex key); uncacheable requests take the ``fallback``
    (round-robin) slot."""
    if key is None:
        return fallback % shards
    return int(key[:16], 16) % shards


# -- the shard (child process) side ------------------------------------


def _shard_request(
    pipeline: RequestPipeline,
    kind: str,
    payload: dict,
    traceparent: str | None,
    enqueued_at: float,
    deadline_at: float | None,
) -> tuple[int, str, dict]:
    """One request through the shard's lookup and execute steps, inline;
    returns ``(status, body, meta)`` with the spans in ``meta``."""
    # CLOCK_MONOTONIC is shared across processes on Linux, so the
    # dispatcher's enqueue stamp prices the pipe+queue wait here.
    wait = max(0.0, time.monotonic() - enqueued_at)
    ctx = obs_trace.begin_trace(traceparent)
    hit = False
    try:
        # Outside the trace: the dispatcher already timed this step.
        prep = pipeline.prepare(kind, payload)
        with obs_trace.activate(ctx):
            obs_trace.record_span("queue.wait", wait)
            status, body, hit = pipeline.respond(
                prep,
                payload,
                Deadline(
                    None
                    if deadline_at is None
                    else deadline_at - time.monotonic()
                ),
            )
    except Exception as exc:
        status, body = error_reply(exc)
    return status, body, {"hit": hit, "spans": ctx.trace.as_dicts()}


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
    pipeline = RequestPipeline(
        defaults, Metrics(), cache_size, incr_store=incr_store
    )
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
                    "cache": pipeline.cache.snapshot(),
                    "plan_cache": PLAN_CACHE.snapshot(),
                    # The analyzer and response-cache instruments
                    # the shard's requests collected.
                    "metrics": pipeline.metrics.export(),
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
                pipeline, kind, payload, traceparent, t_enq, t_dead
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
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        if self.start_method == "fork":
            # Warm the dispatcher before forking: every shard inherits
            # the analyzer stack, corpus, and compiled plans
            # copy-on-write instead of re-importing them.
            warm_analysis_caches()
        self._ctx = multiprocessing.get_context(self.start_method)
        self.workers = shards
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
        status, body = error_reply(ServeError(
            "worker_crashed",
            f"analysis worker for shard {handle.index} died mid-request",
        ))
        for waiter in handle.take_all_pending():
            waiter.finish(status, body, {"hit": False, "spans": []})
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
        return shard_index(key, self.workers, next(self._round_robin))

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

    def respond(
        self, prep: PreparedRequest, payload: dict, deadline: Deadline
    ) -> tuple[int, str, bool]:
        """Submit-and-wait: ``payload`` through its shard's lookup and
        execute steps; returns ``(status, body, hit)``.  The shard's
        spans join the caller's trace."""
        ctx = obs_trace.current()
        traceparent = None
        if ctx is not None:
            traceparent = obs_trace.format_traceparent(
                ctx.trace_id, ctx.span_id or obs_trace.new_span_id()
            )
        waiter = self.submit(
            prep.key, prep.kind, payload, traceparent, deadline.expires_at
        )
        deadline.join(waiter.done)
        if ctx is not None:
            for record in waiter.meta["spans"]:
                ctx.trace.add(obs_trace.SpanRecord(**record))
        return waiter.status, waiter.body, waiter.meta["hit"]

    # -- introspection -------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def queue_depth(self) -> int:
        """Requests outstanding on any shard (queued or running)."""
        return sum(handle.depth for handle in self._handles)

    @property
    def inflight(self) -> int:
        # The dispatcher cannot tell a shard's queue from its running
        # request; both count as outstanding.
        return self.queue_depth

    def describe(self) -> dict:
        """This executor's part of the ``/healthz`` body: cheap
        parent-side shard facts, no shard round-trips."""
        depth = self.queue_depth
        return {
            "queue_depth": depth,
            "inflight": depth,
            "workers": self.workers,
            "shard_respawns": self.respawns,
            "shards": [
                {
                    "index": handle.index,
                    "pid": handle.pid,
                    "alive": handle.process.is_alive(),
                    "pending": handle.depth,
                    "processed": handle.processed,
                }
                for handle in self._handles
            ],
        }

    def snapshot(self) -> dict:
        """This executor's part of the ``/metricsz`` body: the shard
        result caches summed into one ``cache`` block (so dashboards
        keep one hit rate), each shard's own statistics, and the
        shards' metrics merged under ``shard_metrics`` (counters
        summed, gauges by max, histograms bucket by bucket; the server
        folds them into its registry's)."""
        shards = self.stats()
        cache = dict.fromkeys(
            ("hits", "misses", "evictions", "size", "capacity"), 0
        )
        metrics = Metrics()
        for shard in shards:
            for name, value in (shard.get("cache") or {}).items():
                if name in cache:
                    cache[name] += value
            metrics.absorb(shard.pop("metrics", {}))
        depth = self.queue_depth
        return {
            "shard_metrics": metrics.export(),
            "cache": cache,
            "shards": shards,
            "queue": {
                "depth": depth,
                "inflight": depth,
                "draining": self.draining,
                "respawns": self.respawns,
            },
        }

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
