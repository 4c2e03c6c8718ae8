"""`repro loadgen` — the load-generation harness.

Throughput and tail latency are tracked numbers, not anecdotes: a run
writes ``BENCH_serve.json`` (schema `LOADGEN_SCHEMA`,
``repro.serve.loadgen/2``) with req/s, error rates, exact
p50/p95/p99/max latencies, overall and per route, and — so two
payloads are comparable — a ``meta.server`` block recording exactly
what was measured: whether the server was spawned, its worker count,
and any extra ``--server-args`` (e.g. ``--worker-model process``).

Two driving disciplines (stdlib threads + `ServiceClient` only):

- **closed loop** (``mode="closed"``): ``concurrency`` workers each
  fire the next request the moment the previous response lands.  This
  measures the service's saturated throughput; latency includes client
  retries, because that is what a caller experiences.
- **open loop** (``mode="open"``): arrivals are scheduled at a fixed
  ``rate`` (requests/second) regardless of how the service is doing,
  and latency is measured **from the scheduled arrival time** — a
  response that sat behind a backlog is charged for the wait.  That is
  the coordinated-omission-safe discipline: a closed loop slows its
  arrival rate exactly when the server struggles, hiding the worst
  latencies; an open loop does not.

Request mixes:

- ``corpus`` — analyze/run/compare/lint over corpus programs; repeats
  hit the server's result cache, so this measures the cached fast
  path after warm-up;
- ``unique`` — a generated program per request index that binds the
  index itself, so every request misses the cache and pays for
  analysis;
- ``--replay LOG`` — the ``request`` payloads of a JSONL access log
  (`repro.serve.accesslog`), replayed in order.

``spawn=True`` boots a private server subprocess (ephemeral port,
access log with full-trace capture), drains it with SIGTERM when the
run ends, then cross-checks the access log: every record must carry a
trace id consistent with its captured spans.
"""

from __future__ import annotations

import json
import os
import platform
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Union

from repro.serve.accesslog import read_access_log, validate_record
from repro.serve.client import RetryPolicy, ServiceClient, ServiceError

LOADGEN_SCHEMA = "repro.serve.loadgen/2"

#: Percentiles reported in every latency block.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


# -- request mixes ----------------------------------------------------


@dataclass(frozen=True)
class LoadRequest:
    """One request template: a POST route and its body."""

    path: str
    payload: dict


def corpus_mix() -> list[LoadRequest]:
    """The default cache-friendly mix: every POST route, light corpus
    programs, both principal analyzers and both engines."""
    return [
        LoadRequest("/v1/analyze", {
            "corpus": "factorial", "analyzer": "direct",
        }),
        LoadRequest("/v1/analyze", {
            "corpus": "factorial", "analyzer": "semantic-cps",
        }),
        LoadRequest("/v1/analyze", {
            "corpus": "higher-order", "analyzer": "direct",
            "engine": "plan",
        }),
        LoadRequest("/v1/analyze", {
            "corpus": "branchy", "analyzer": "syntactic-cps",
        }),
        LoadRequest("/v1/analyze", {
            "corpus": "even-odd", "analyzer": "polyvariant", "k": 1,
        }),
        LoadRequest("/v1/run", {
            "corpus": "factorial", "interpreter": "direct",
        }),
        LoadRequest("/v1/compare", {"corpus": "constants"}),
        LoadRequest("/v1/lint", {"corpus": "branchy"}),
    ]


def _unique_request(index: int) -> LoadRequest:
    """Request ``index`` of the cache-busting mix: an analyze request
    whose program binds ``index`` itself, so no two indices share a
    cache key (keys hash the program up to renaming, so a fresh binder
    name alone would not do) and every request pays for analysis."""
    analyzers = ("direct", "semantic-cps")
    binder = f"u{index}"
    source = (
        f"(let ({binder} {index}) "
        f"(let (b (* {binder} 3)) "
        f"(let (c (+ b {index % 5})) "
        f"(if0 c {binder} (- c {binder})))))"
    )
    return LoadRequest("/v1/analyze", {
        "program": source,
        "analyzer": analyzers[index % len(analyzers)],
    })


def unique_mix(count: int) -> list[LoadRequest]:
    """The first ``count`` requests of the cache-busting mix."""
    return [_unique_request(index) for index in range(count)]


def replay_mix(log_path: "str | Path") -> list[LoadRequest]:
    """The replayable request bodies of an access log, in order.
    Records without one (failed validation) are skipped."""
    requests = []
    for record in read_access_log(log_path):
        payload = record.get("request")
        kind = record.get("kind")
        if payload is not None and kind is not None:
            requests.append(LoadRequest(f"/v1/{kind}", payload))
    if not requests:
        raise ValueError(
            f"access log {log_path} has no replayable requests"
        )
    return requests


#: A request mix: a list the loops cycle through by request index, or
#: a function from the index to its request (the unique mix, which
#: never repeats).
_Mix = Union[list[LoadRequest], Callable[[int], LoadRequest]]

MIXES: dict[str, Callable[[], _Mix]] = {
    "corpus": corpus_mix,
    "unique": lambda: _unique_request,
}


def _request_at(mix: _Mix, index: int) -> LoadRequest:
    """The request a loop sends as its ``index``-th."""
    if callable(mix):
        return mix(index)
    return mix[index % len(mix)]


# -- the generator ----------------------------------------------------


@dataclass
class RequestResult:
    """One completed (or conclusively failed) logical request."""

    path: str
    ok: bool
    code: str | None
    latency_s: float


@dataclass
class RunOutcome:
    results: list[RequestResult] = field(default_factory=list)
    wall_s: float = 0.0
    retries: int = 0


def _make_client(
    base_url: str, request_timeout: float, retries: int
) -> ServiceClient:
    return ServiceClient(
        base_url,
        policy=RetryPolicy(retries=retries),
        request_timeout=request_timeout,
    )


def run_closed_loop(
    base_url: str,
    mix: _Mix,
    concurrency: int = 4,
    total: int | None = None,
    duration_s: float | None = None,
    request_timeout: float = 30.0,
    retries: int = 2,
) -> RunOutcome:
    """``concurrency`` workers, each firing as soon as its previous
    response lands; stops after ``total`` requests or ``duration_s``
    seconds, whichever comes first (at least one must be set)."""
    if total is None and duration_s is None:
        raise ValueError("closed loop needs a total or a duration")
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    outcome = RunOutcome()
    lock = threading.Lock()
    counter = [0]
    started = time.perf_counter()
    deadline = None if duration_s is None else started + duration_s

    def next_index() -> int | None:
        with lock:
            index = counter[0]
            if total is not None and index >= total:
                return None
            counter[0] = index + 1
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        return index

    def worker() -> None:
        client = _make_client(base_url, request_timeout, retries)
        local: list[RequestResult] = []
        while True:
            index = next_index()
            if index is None:
                break
            request = _request_at(mix, index)
            t0 = time.perf_counter()
            try:
                client.request(request.path, request.payload)
                ok, code = True, None
            except ServiceError as exc:
                ok, code = False, exc.code
            local.append(RequestResult(
                request.path, ok, code, time.perf_counter() - t0
            ))
        with lock:
            outcome.results.extend(local)
            outcome.retries += client.retries_performed

    threads = [
        threading.Thread(target=worker, name=f"loadgen-closed-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.wall_s = time.perf_counter() - started
    return outcome


def run_open_loop(
    base_url: str,
    mix: _Mix,
    rate: float,
    duration_s: float,
    concurrency: int = 8,
    request_timeout: float = 30.0,
    retries: int = 2,
) -> RunOutcome:
    """Arrivals every ``1/rate`` seconds for ``duration_s`` seconds.

    Latency is measured from each request's *scheduled arrival*, so a
    response delayed behind a backlog is charged for the time it spent
    waiting — the fix for coordinated omission.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    arrivals = max(1, int(rate * duration_s))
    interval = 1.0 / rate
    work: "queue.Queue[tuple[float, LoadRequest]]" = queue.Queue()
    for index in range(arrivals):
        work.put((index * interval, _request_at(mix, index)))
    outcome = RunOutcome()
    lock = threading.Lock()
    started = time.perf_counter()

    def worker() -> None:
        client = _make_client(base_url, request_timeout, retries)
        local: list[RequestResult] = []
        while True:
            try:
                offset, request = work.get_nowait()
            except queue.Empty:
                break
            scheduled = started + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                client.request(request.path, request.payload)
                ok, code = True, None
            except ServiceError as exc:
                ok, code = False, exc.code
            local.append(RequestResult(
                request.path, ok, code,
                time.perf_counter() - scheduled,
            ))
        with lock:
            outcome.results.extend(local)
            outcome.retries += client.retries_performed

    threads = [
        threading.Thread(target=worker, name=f"loadgen-open-{i}")
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    outcome.wall_s = time.perf_counter() - started
    return outcome


# -- summarisation ----------------------------------------------------


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """The nearest-rank quantile of an ascending, non-empty list."""
    if not sorted_values:
        raise ValueError("no values")
    rank = min(
        len(sorted_values) - 1,
        max(0, int(round(q * (len(sorted_values) - 1)))),
    )
    return sorted_values[rank]


def _latency_block(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    block = {
        "min": round(ordered[0], 6),
        "mean": round(sum(ordered) / len(ordered), 6),
        "max": round(ordered[-1], 6),
    }
    for name, q in QUANTILES:
        block[name] = round(exact_quantile(ordered, q), 6)
    return block


def _result_block(results: list[RequestResult], wall_s: float) -> dict:
    ok = [r for r in results if r.ok]
    errors: dict[str, int] = {}
    for result in results:
        if not result.ok:
            code = result.code or "internal"
            errors[code] = errors.get(code, 0) + 1
    block = {
        "requests": len(results),
        "ok": len(ok),
        "errors": len(results) - len(ok),
        "error_rate": round(
            (len(results) - len(ok)) / len(results), 6
        ) if results else 0.0,
        "errors_by_code": errors,
        "throughput_rps": round(len(results) / wall_s, 3)
        if wall_s > 0 else 0.0,
    }
    if results:
        block["latency_s"] = _latency_block(
            [r.latency_s for r in results]
        )
    return block


def build_payload(
    outcome: RunOutcome,
    *,
    mode: str,
    mix_name: str,
    concurrency: int,
    rate: float | None = None,
    generated_at: str | None = None,
    access_log_summary: dict | None = None,
    server: dict | None = None,
) -> dict:
    """The ``BENCH_serve.json`` document for one run.

    ``server`` describes what was measured (spawned or external,
    worker count, extra serve flags); ``{"spawned": False}`` when the
    run targeted a caller-provided URL whose configuration the
    harness cannot see.
    """
    payload = {
        "schema": LOADGEN_SCHEMA,
        "generated_at": generated_at,
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "mode": mode,
            "mix": mix_name,
            "concurrency": concurrency,
            "rate_rps": rate,
            "client_retries": outcome.retries,
            "server": server or {"spawned": False},
        },
        "wall_s": round(outcome.wall_s, 6),
        **_result_block(outcome.results, outcome.wall_s),
        "routes": {
            path: _result_block(
                [r for r in outcome.results if r.path == path],
                outcome.wall_s,
            )
            for path in sorted({r.path for r in outcome.results})
        },
    }
    if access_log_summary is not None:
        payload["access_log"] = access_log_summary
    return payload


def validate_loadgen(payload: dict) -> None:
    """Raise ``ValueError`` on a malformed loadgen payload."""
    if payload.get("schema") != LOADGEN_SCHEMA:
        raise ValueError(
            f"schema must be {LOADGEN_SCHEMA!r}, "
            f"got {payload.get('schema')!r}"
        )
    for key in (
        "meta", "wall_s", "requests", "ok", "errors", "error_rate",
        "errors_by_code", "throughput_rps", "routes",
    ):
        if key not in payload:
            raise ValueError(f"loadgen payload missing {key!r}")
    if payload["requests"] != payload["ok"] + payload["errors"]:
        raise ValueError("requests != ok + errors")
    if payload["requests"] > 0:
        latency = payload.get("latency_s")
        if not isinstance(latency, dict):
            raise ValueError("non-empty run must report latency_s")
        for key in ("min", "mean", "max", "p50", "p95", "p99"):
            if not isinstance(latency.get(key), (int, float)):
                raise ValueError(f"latency_s.{key} must be a number")
        if not (
            latency["min"] <= latency["p50"] <= latency["p95"]
            <= latency["p99"] <= latency["max"]
        ):
            raise ValueError("latency quantiles are not monotone")
        if payload["throughput_rps"] <= 0:
            raise ValueError("non-empty run must have throughput > 0")
    meta = payload["meta"]
    for key in ("python", "platform", "mode", "mix", "concurrency"):
        if key not in meta:
            raise ValueError(f"meta missing {key!r}")
    server = meta.get("server")
    if not isinstance(server, dict) or "spawned" not in server:
        raise ValueError("meta.server must describe the measured server")
    if server["spawned"]:
        for key in ("workers", "args"):
            if key not in server:
                raise ValueError(f"meta.server missing {key!r}")


def validate_loadgen_file(path: "str | Path") -> dict:
    """Load and validate a ``BENCH_serve.json``; returns the payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_loadgen(payload)
    return payload


# -- spawned-server mode ----------------------------------------------

_LISTEN_RE = re.compile(r"listening on (http://\S+)")


def spawn_server(
    access_log_path: "str | Path",
    workers: int = 4,
    boot_timeout_s: float = 30.0,
    server_args: "list[str] | None" = None,
) -> "tuple[subprocess.Popen, str]":
    """Boot ``python -m repro serve`` on an ephemeral port with an
    access log capturing every request's spans; returns
    ``(process, base_url)``.

    ``server_args`` are extra ``repro serve`` flags appended verbatim
    (after the harness's own), e.g. ``["--worker-model", "process"]``
    to measure the sharded multi-process server.
    """
    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", str(workers),
            "--access-log", str(access_log_path),
            "--slow-threshold", "0",
            *(server_args or ()),
        ],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + boot_timeout_s
    line = ""
    while time.monotonic() < deadline:
        line = process.stderr.readline()
        if not line and process.poll() is not None:
            raise RuntimeError(
                f"server exited during boot (rc={process.returncode})"
            )
        match = _LISTEN_RE.search(line)
        if match:
            return process, match.group(1)
    process.kill()
    raise RuntimeError("server did not announce its port in time")


def stop_server(
    process: "subprocess.Popen", timeout_s: float = 30.0
) -> int:
    """SIGTERM the spawned server and wait for its graceful drain."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    if process.stderr is not None:
        process.stderr.close()
    return process.returncode


def summarize_access_log(path: "str | Path") -> dict:
    """Validate every record of a spawned run's access log and report
    aggregate counts; raises on trace/span inconsistency."""
    records = 0
    with_spans = 0
    cache = {"hit": 0, "miss": 0, "bypass": 0}
    for record in read_access_log(path):
        validate_record(record)
        records += 1
        if record.get("spans"):
            with_spans += 1
        status = record.get("cache")
        if status in cache:
            cache[status] += 1
    return {
        "records": records,
        "with_spans": with_spans,
        "cache": cache,
    }


# -- the entry point --------------------------------------------------


def run_loadgen(
    url: str | None = None,
    *,
    mode: str = "closed",
    mix: str = "corpus",
    replay: "str | Path | None" = None,
    concurrency: int = 4,
    total: int | None = None,
    duration_s: float | None = None,
    rate: float = 50.0,
    workers: int = 4,
    server_args: "list[str] | None" = None,
    out: "str | Path | None" = "BENCH_serve.json",
    generated_at: str | None = None,
    quick: bool = False,
    request_timeout: float = 30.0,
    retries: int = 2,
    access_log_path: "str | Path | None" = None,
) -> dict:
    """One complete loadgen run; returns (and optionally writes) the
    validated ``BENCH_serve.json`` payload.

    With no ``url``, spawns a private server (and tears it down);
    ``server_args`` are extra ``repro serve`` flags for it, e.g.
    ``["--worker-model", "process"]`` — ignored with a ``url``.
    ``quick`` pins a small closed-loop run for CI smoke.
    """
    if quick:
        mode = "closed"
        total = total or 48
        duration_s = None
        concurrency = min(concurrency, 4)
    elif mode == "closed" and total is None and duration_s is None:
        duration_s = 10.0
    if replay is not None:
        requests = replay_mix(replay)
        mix_name = "replay"
    else:
        try:
            requests = MIXES[mix]()
        except KeyError:
            raise ValueError(
                f"unknown mix {mix!r}; choose from {sorted(MIXES)}"
            ) from None
        mix_name = mix
    process = None
    own_log = None
    server_meta: dict = {"spawned": False}
    try:
        if url is None:
            if access_log_path is None:
                own_log = Path(
                    f"BENCH_serve.access.{os.getpid()}.jsonl"
                )
                access_log_path = own_log
            process, url = spawn_server(
                access_log_path,
                workers=workers,
                server_args=server_args,
            )
            server_meta = {
                "spawned": True,
                "workers": workers,
                "args": list(server_args or ()),
            }
        if mode == "closed":
            outcome = run_closed_loop(
                url, requests,
                concurrency=concurrency,
                total=total,
                duration_s=duration_s,
                request_timeout=request_timeout,
                retries=retries,
            )
        elif mode == "open":
            outcome = run_open_loop(
                url, requests,
                rate=rate,
                duration_s=duration_s or 10.0,
                concurrency=max(concurrency, 8),
                request_timeout=request_timeout,
                retries=retries,
            )
        else:
            raise ValueError(
                f"unknown mode {mode!r}; use 'closed' or 'open'"
            )
    finally:
        access_summary = None
        if process is not None:
            stop_server(process)
            access_summary = summarize_access_log(access_log_path)
        if own_log is not None:
            try:
                own_log.unlink()
            except OSError:
                pass
    payload = build_payload(
        outcome,
        mode=mode,
        mix_name=mix_name,
        concurrency=concurrency,
        rate=rate if mode == "open" else None,
        generated_at=generated_at,
        access_log_summary=access_summary,
        server=server_meta,
    )
    validate_loadgen(payload)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
    return payload


def summarize(payload: dict) -> str:
    """A one-paragraph human summary of a loadgen payload."""
    latency = payload.get("latency_s", {})
    server = payload["meta"].get("server") or {}
    server_part = (
        "server spawned workers={} {}".format(
            server.get("workers"), " ".join(server.get("args") or ())
        ).rstrip()
        if server.get("spawned")
        else "server external"
    )
    parts = [
        f"{payload['meta']['mode']} loop",
        f"mix={payload['meta']['mix']}",
        server_part,
        f"{payload['requests']} requests in {payload['wall_s']:.2f}s",
        f"{payload['throughput_rps']:.1f} req/s",
        f"errors={payload['errors']}",
    ]
    if latency:
        parts.append(
            "latency p50={p50:.4f}s p95={p95:.4f}s "
            "p99={p99:.4f}s max={max:.4f}s".format(**latency)
        )
    return "; ".join(parts)
