"""The bounded request queue and worker pool (thread mode).

The pool only moves work: `WorkerPool.call` hands one request's execute
step (`repro.serve.pipeline`) to a worker thread, under the caller's
trace, and waits for the reply.  A full queue rejects immediately with
the structured ``overloaded`` code — that is the server's backpressure
signal, and the retrying client's cue to back off.  `drain` implements
graceful shutdown: stop accepting, finish everything already queued or
running, then join the workers.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable

from repro.obs import trace as obs_trace
from repro.obs.metrics import Metrics
from repro.serve.codes import ServeError, classify_exception
from repro.serve.jobs import Deadline


class Job:
    """One queued step plus its completion state.

    ``trace_ctx`` is the submitting thread's `repro.obs.trace` context;
    the worker activates it before running ``fn``, so every span the
    job produces lands in the request's trace despite the thread hop.
    """

    def __init__(
        self,
        fn: Callable[[Deadline], object],
        deadline: Deadline,
        trace_ctx: "obs_trace.TraceContext | None" = None,
    ) -> None:
        self.fn = fn
        self.deadline = deadline
        self.trace_ctx = trace_ctx
        self.enqueued_at = time.monotonic()
        self.done = threading.Event()
        self.result = None
        self.error: ServeError | None = None
        #: Set when the caller stopped waiting (its deadline passed); a
        #: worker that has not started the job yet skips it.
        self.abandoned = False


class WorkerPool:
    """``workers`` threads draining a queue of at most ``queue_size``
    pending jobs (in-flight jobs don't count against the bound)."""

    def __init__(
        self,
        workers: int = 4,
        queue_size: int = 64,
        metrics: Metrics | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        if queue_size < 1:
            raise ValueError("queue size must be >= 1")
        self.metrics = metrics
        self.workers = workers
        self._queue: "queue.Queue[Job]" = queue.Queue(maxsize=queue_size)
        self._closed = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ----------------------------------------------------

    def call(self, fn: Callable[[Deadline], object], deadline: Deadline):
        """Submit-and-wait: run ``fn(deadline)`` on a worker thread and
        return its result.  Raises ``overloaded`` when draining or when
        the queue is full, ``timeout`` when ``deadline`` passes first,
        and otherwise ``fn``'s own error, classified."""
        if self._closed.is_set():
            raise ServeError("overloaded", "server is draining")
        job = Job(fn, deadline, trace_ctx=obs_trace.current())
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            self._count("serve.rejected.overloaded")
            raise ServeError(
                "overloaded",
                f"request queue is full ({self._queue.maxsize} pending)",
            ) from None
        self._gauge_depth()
        try:
            deadline.join(job.done)
        except ServeError:
            job.abandoned = True
            raise
        if job.error is not None:
            raise job.error
        return job.result

    # -- introspection -------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for a worker (excludes in-flight)."""
        return self._queue.qsize()

    @property
    def inflight(self) -> int:
        """Jobs currently being executed by a worker."""
        with self._inflight_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        return self._closed.is_set()

    def describe(self) -> dict:
        """This executor's part of the ``/healthz`` body."""
        return {
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "workers": self.workers,
        }

    def snapshot(self) -> dict:
        """This executor's part of the ``/metricsz`` body."""
        return {
            "queue": {
                "depth": self.queue_depth,
                "inflight": self.inflight,
                "draining": self.draining,
            },
        }

    # -- worker side ---------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.1)
            except queue.Empty:
                if self._closed.is_set():
                    return
                continue
            self._gauge_depth()
            try:
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: Job) -> None:
        if job.abandoned:
            self._count("serve.jobs.abandoned")
            return
        wait = time.monotonic() - job.enqueued_at
        with self._inflight_lock:
            self._inflight += 1
        try:
            with obs_trace.activate(job.trace_ctx):
                obs_trace.record_span("queue.wait", wait)
                job.result = job.fn(job.deadline)
        except BaseException as exc:  # the pool must never lose a job
            job.error = classify_exception(exc)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
        self._count("serve.jobs.executed")
        job.done.set()

    # -- shutdown ------------------------------------------------------

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish the backlog,
        join the workers.  Returns True when everything finished
        within ``timeout``."""
        self._closed.set()
        deadline = time.monotonic() + timeout
        for thread in self._threads:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)
        return all(not thread.is_alive() for thread in self._threads)

    # -- instrumentation ----------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _gauge_depth(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("serve.queue.depth").set(
                self._queue.qsize()
            )
