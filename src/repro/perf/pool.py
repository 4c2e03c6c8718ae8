"""The persistent, warm-once process worker pool.

The old batch layer paid for its parallelism twice per call:
``multiprocessing.Pool`` spawned fresh interpreters for every batch,
and each fresh worker re-imported the analyzers, re-parsed the corpus,
and re-compiled every plan it touched — on the benchmarked populations
that overhead exceeded the work itself (``survey --jobs 4`` *slower*
than serial).  This module replaces spawn-per-batch with processes
that live for the whole run and are initialized exactly once:

- **Warm-once initialization.**  `warm_analysis_caches` imports the
  analyzer stack, touches the parsed corpus, and precompiles the
  ANF and CPS plans of every non-heavy corpus program into the global
  `PLAN_CACHE` (interning the constant `AbsVal` tables as a side
  effect).  On POSIX the pool warms the *parent* first and forks, so
  children inherit every cache copy-on-write for free; under a spawn
  start method each worker runs the same initializer once at boot.
- **Chunked distribution over long-lived workers.**  `map` splits the
  items into chunks and the *parent* assigns them, one outstanding
  chunk per worker over a private duplex pipe; results stream back as
  ``(chunk_id, rows)`` records.  The parent reassembles them **in
  chunk order**, so a parallel map is order-identical to
  ``[fn(x) for x in items]`` and parallel survey folds stay
  bit-identical to serial ones (test-enforced).
- **Crash recovery.**  Per-worker pipes make a SIGKILL safe: a dying
  worker (OOM-killed, segfaulted, kill -9) is an immediate EOF on its
  own pipe — there is no shared queue lock to die holding and no
  in-flight claim message to lose — and the parent knows exactly
  which chunk it was assigned.  The chunk is redispatched to a fresh
  warmed worker a bounded number of times, after which
  `WorkerCrashed` surfaces the failure instead of looping.
- **Graceful shutdown.**  `shutdown` sends one sentinel per worker,
  joins them, and terminates stragglers; `shutdown_pools` runs at
  interpreter exit so CLI runs never leak processes.  Orphaned
  workers (parent SIGKILLed) notice their re-parenting and exit on
  their own.

`repro.perf.batch.parallel_map` — and through it ``survey --jobs`` /
``report --jobs`` — runs on this pool; `repro.serve.shard` builds the
multi-process service on the same warmed-fork substrate.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import threading
import time
from typing import Any, Callable, Iterable, Sequence, TypeVar

_In = TypeVar("_In")
_Out = TypeVar("_Out")

#: How many times one chunk may be requeued after worker deaths before
#: the map gives up.  Two redispatches tolerate an unlucky respawn
#: landing on another dying worker without masking a deterministic
#: crasher (which would kill every worker it touches).
MAX_CHUNK_RETRIES = 2

#: Poll interval for the result loop; between polls the parent checks
#: worker liveness, so this bounds crash-detection latency.
_POLL_SECONDS = 0.05


class WorkerCrashed(RuntimeError):
    """A chunk could not be completed within the redispatch budget."""


# -- warm-once initialization ------------------------------------------

_WARM_LOCK = threading.Lock()
_WARM_STATS: dict | None = None


def _reinit_locks_after_fork() -> None:
    # A fork can happen while another thread of the parent holds one of
    # these locks (the serve layer forks shard processes from a process
    # that is also running handler threads).  The child would inherit
    # the lock *held forever*; give it fresh ones.  The guarded state
    # itself is fine: caches are either fully inherited or rebuilt.
    global _WARM_LOCK
    _WARM_LOCK = threading.Lock()
    try:
        from repro.machine.absplan import PLAN_CACHE

        PLAN_CACHE._lock = threading.Lock()
    except Exception:
        pass


def warm_analysis_caches(include_heavy: bool = False) -> dict:
    """Initialize this process for analysis work, exactly once.

    Imports the full analyzer stack, touches the parsed corpus, and
    precompiles the ANF and CPS plans of every (non-heavy by default)
    corpus program into the global `PLAN_CACHE` — interning their
    constant `AbsVal`/store tables as a side effect.  Idempotent and
    thread-safe; returns the stats of the (first) warm-up.
    """
    global _WARM_STATS
    with _WARM_LOCK:
        if _WARM_STATS is not None:
            return _WARM_STATS
        started = time.perf_counter()
        # The imports are the dominant cost under spawn; under fork the
        # parent has usually paid them already and these are no-ops.
        import repro.analysis.engine  # noqa: F401  (plan analyzers)
        import repro.api  # noqa: F401  (run_comparison)
        import repro.survey  # noqa: F401  (survey workers)
        from repro.corpus import PROGRAMS
        from repro.cps import cps_transform
        from repro.machine.absplan import PLAN_CACHE

        # Under fork every worker inherits these plans copy-on-write;
        # a spawned worker compiles its own (a few milliseconds for the
        # whole corpus).
        plans = 0
        for program in PROGRAMS.values():
            if program.heavy and not include_heavy:
                continue
            try:
                PLAN_CACHE.anf_plan(program.term)
                PLAN_CACHE.cps_plan(cps_transform(program.term))
                plans += 2
            except Exception:
                # Plans only cover the restricted subset; programs
                # outside it simply stay on the tree engine.
                continue
        snapshot = PLAN_CACHE.snapshot()
        _WARM_STATS = {
            "plans": plans,
            "programs": len(PROGRAMS),
            "plan_compiles": snapshot["misses"],
            "warm_s": round(time.perf_counter() - started, 6),
            "pid": os.getpid(),
        }
        return _WARM_STATS


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


# -- the worker side ---------------------------------------------------


def _worker_main(conn, parent_pid: int) -> None:
    """One pool worker: warm once, then execute assigned chunks off
    its private pipe until the sentinel (or orphaning) says stop."""
    warm_analysis_caches()
    while True:
        try:
            if not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: parent died without a sentinel
                continue
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        chunk_id, fn_bytes, items = message
        try:
            fn = pickle.loads(fn_bytes)
            rows = [fn(item) for item in items]
        except BaseException as exc:
            try:
                payload = pickle.dumps(exc)
            except Exception:
                payload = pickle.dumps(
                    RuntimeError(f"{type(exc).__name__}: {exc}")
                )
            reply = ("error", chunk_id, payload)
        else:
            reply = ("done", chunk_id, rows)
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            return


# -- the parent side ---------------------------------------------------


class _Worker:
    """Parent-side record for one worker process: its pipe end and
    the chunk id currently assigned to it (None when idle)."""

    __slots__ = ("process", "conn", "outstanding")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.outstanding: int | None = None


class PersistentPool:
    """``jobs`` long-lived, pre-warmed worker processes.

    One `map` runs at a time (a lock serializes callers); workers
    survive across maps, so the warm-up and process creation costs are
    paid once per pool, not once per batch.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]
        if self.start_method == "fork":
            # Warm the parent *before* forking: children inherit the
            # imported modules, parsed corpus, and compiled plans
            # copy-on-write, making their own warm-up a no-op.
            warm_analysis_caches()
        self._ctx = multiprocessing.get_context(self.start_method)
        self.jobs = jobs
        self._workers: list[_Worker] = []
        self._map_lock = threading.Lock()
        # Chunk ids are unique across the pool's lifetime so a stale
        # reply from a map that errored out can never be mistaken for
        # a chunk of a later map.
        self._chunk_ids = itertools.count()
        self._closed = False
        self.respawns = 0
        self.maps_completed = 0
        self.chunks_dispatched = 0
        self.items_processed = 0
        for _ in range(jobs):
            self._workers.append(self._spawn_worker())

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, os.getpid()),
            name="repro-perf-pool-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    # -- mapping ------------------------------------------------------

    def map(
        self,
        fn: Callable[[_In], _Out],
        items: Iterable[_In],
        chunksize: int | None = None,
    ) -> list[_Out]:
        """Order-preserving parallel map over the pool.

        Equivalent to ``[fn(item) for item in items]`` — including for
        ``None`` results — with crashes of individual workers healed
        by respawn + chunk redispatch (up to `MAX_CHUNK_RETRIES`).
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        work: Sequence[_In] = list(items)
        if not work:
            return []
        # Pickle the function once, eagerly: an unpicklable fn must
        # fail here with a clear error, not asynchronously in the
        # queue's feeder thread (which would hang the map).
        fn_bytes = pickle.dumps(fn)
        if chunksize is None:
            chunksize = max(1, len(work) // (self.jobs * 4))
        chunks: dict[int, Sequence[_In]] = {}
        for start in range(0, len(work), chunksize):
            chunks[next(self._chunk_ids)] = work[start : start + chunksize]
        with self._map_lock:
            return self._run_chunks(fn_bytes, chunks)

    def _run_chunks(
        self, fn_bytes: bytes, chunks: dict[int, Sequence]
    ) -> list:
        pending = dict(chunks)  # chunk_id -> items (until done)
        backlog = sorted(chunks)  # chunk ids awaiting assignment
        retries: dict[int, int] = {}
        finished: dict[int, list] = {}

        def assign(index: int) -> None:
            """Send backlog chunks to worker ``index`` until it has
            one outstanding (respawning it if the send hits EOF)."""
            while backlog:
                worker = self._workers[index]
                if worker.outstanding is not None:
                    return
                chunk_id = backlog[0]
                if chunk_id not in pending:
                    backlog.pop(0)
                    continue
                try:
                    worker.conn.send(
                        (chunk_id, fn_bytes, list(pending[chunk_id]))
                    )
                except (BrokenPipeError, OSError):
                    self._replace_dead(index, backlog, retries, pending)
                    continue
                backlog.pop(0)
                worker.outstanding = chunk_id
                self.chunks_dispatched += 1
                return

        for index in range(self.jobs):
            assign(index)
        while pending:
            ready = multiprocessing.connection.wait(
                [worker.conn for worker in self._workers],
                timeout=_POLL_SECONDS,
            )
            if not ready:
                # Belt and braces: a worker that died without its EOF
                # surfacing (shouldn't happen on POSIX) still gets
                # noticed by a liveness sweep.
                for index, worker in enumerate(self._workers):
                    if not worker.process.is_alive():
                        self._replace_dead(
                            index, backlog, retries, pending
                        )
                        assign(index)
                continue
            for conn in ready:
                index = next(
                    (
                        i
                        for i, worker in enumerate(self._workers)
                        if worker.conn is conn
                    ),
                    None,
                )
                if index is None:
                    continue  # already replaced this round
                worker = self._workers[index]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # The worker died (SIGKILL, OOM, segfault): its
                    # pipe end closed, so this is both the detection
                    # and the exact record of what it was running.
                    self._replace_dead(index, backlog, retries, pending)
                    assign(index)
                    continue
                tag, chunk_id = message[0], message[1]
                worker.outstanding = None
                if tag == "done":
                    if chunk_id in pending:
                        finished[chunk_id] = message[2]
                        del pending[chunk_id]
                        self.items_processed += len(message[2])
                elif tag == "error":
                    if chunk_id in pending:
                        raise pickle.loads(message[2])
                assign(index)
        self.maps_completed += 1
        return [
            row
            for chunk_id in sorted(finished)
            for row in finished[chunk_id]
        ]

    def _replace_dead(
        self,
        index: int,
        backlog: list[int],
        retries: dict[int, int],
        pending: dict[int, Sequence],
    ) -> None:
        """Respawn the dead worker at ``index`` and redispatch the
        chunk it was assigned (bounded by `MAX_CHUNK_RETRIES`)."""
        worker = self._workers[index]
        chunk_id = worker.outstanding
        pid = worker.process.pid
        worker.process.join(timeout=1.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        self._workers[index] = self._spawn_worker()
        self.respawns += 1
        if chunk_id is None or chunk_id not in pending:
            return
        retries[chunk_id] = retries.get(chunk_id, 0) + 1
        if retries[chunk_id] > MAX_CHUNK_RETRIES:
            raise WorkerCrashed(
                f"chunk {chunk_id} killed {retries[chunk_id]} "
                f"worker(s); last pid {pid}"
            )
        backlog.insert(0, chunk_id)

    # -- introspection ------------------------------------------------

    def snapshot(self) -> dict:
        """Pool statistics (for bench artifacts and debugging)."""
        return {
            "jobs": self.jobs,
            "start_method": self.start_method,
            "alive": sum(
                1 for w in self._workers if w.process.is_alive()
            ),
            "respawns": self.respawns,
            "maps_completed": self.maps_completed,
            "chunks_dispatched": self.chunks_dispatched,
            "items_processed": self.items_processed,
            "warm": warm_analysis_caches()
            if self.start_method == "fork"
            else None,
        }

    @property
    def worker_pids(self) -> list[int]:
        return [w.process.pid for w in self._workers]

    # -- shutdown -----------------------------------------------------

    def shutdown(self, timeout: float = 10.0) -> bool:
        """Drain gracefully: one sentinel per worker, join, then
        terminate stragglers.  Idempotent; returns True when every
        worker exited within ``timeout``."""
        if self._closed:
            return True
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + timeout
        for worker in self._workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        clean = all(not w.process.is_alive() for w in self._workers)
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        return clean


# -- the shared pool registry ------------------------------------------

_POOLS: dict[int, PersistentPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(jobs: int) -> PersistentPool:
    """The shared `PersistentPool` with ``jobs`` workers, created (and
    warmed) on first use and reused for the rest of the run."""
    with _POOLS_LOCK:
        pool = _POOLS.get(jobs)
        if pool is None or pool._closed:
            pool = PersistentPool(jobs)
            _POOLS[jobs] = pool
        return pool


def shutdown_pools(timeout: float = 10.0) -> None:
    """Shut down every shared pool (registered at interpreter exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(timeout=timeout)


def _forget_pools() -> None:
    # A forked child must not try to drive (or atexit-join) the
    # parent's workers: they are the parent's children, not its own.
    _POOLS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)

atexit.register(shutdown_pools)
