"""End-to-end smoke harness:
``python -m repro.serve.smoke [--worker-model thread|process]``.

Starts a real server subprocess on an ephemeral port (thread worker
model unless told otherwise), then exercises the acceptance path the
CI ``serve-smoke`` job pins under both worker models:

1. ``GET /healthz`` answers ``ok``;
2. one ``POST /v1/analyze`` matches the in-process analyzer
   byte-for-byte, and repeating it is served from the cross-request
   cache (visible in ``/metricsz``);
3. one analyze body posted twice, the second time with its JSON keys
   reordered and extra whitespace, answers the same bytes both times,
   and the repeat is counted as a prepare-memo hit;
4. an induced ``overloaded`` burst (debug-sleep jobs saturating a
   1-worker/1-slot queue) is recovered by the client's backoff;
5. SIGTERM drains in-flight work and the process exits 0.

Exits nonzero with a message on the first failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

from repro.serve.client import RetryPolicy, ServiceClient
from repro.serve.jobs import execute_request


def _fail(message: str) -> int:
    print(f"serve smoke FAILED: {message}", file=sys.stderr)
    return 1


def start_server(extra_args: list[str] | None = None) -> tuple:
    """Spawn ``python -m repro serve --port 0 ...``; returns
    ``(process, base_url)`` once the listen line appears."""
    env = dict(os.environ)
    # make `python -m repro` resolve to this checkout regardless of
    # the caller's PYTHONPATH
    env["PYTHONPATH"] = os.pathsep.join(
        part
        for part in (
            str(Path(__file__).resolve().parents[2]),
            env.get("PYTHONPATH", ""),
        )
        if part
    )
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
            "--queue-size",
            "1",
            "--debug-hooks",
        ]
        + (extra_args or []),
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stderr.readline()
    if "listening on" not in line:
        process.kill()
        raise RuntimeError(f"server did not start: {line!r}")
    url = line.split("listening on", 1)[1].strip()
    return process, url


def _post_bytes(url: str, body: str) -> bytes:
    """The raw response bytes of one ``POST /v1/analyze``."""
    request = urllib.request.Request(
        f"{url}/v1/analyze",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.read()


def main(argv: "list[str] | tuple[str, ...]" = ()) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.serve.smoke")
    parser.add_argument(
        "--worker-model", choices=("thread", "process"), default="thread"
    )
    args = parser.parse_args(list(argv))
    process, url = start_server(["--worker-model", args.worker_model])
    drainer = None
    try:
        client = ServiceClient(
            url, policy=RetryPolicy(retries=8, base_delay=0.05)
        )

        health = client.healthz()
        if health.get("status") != "ok":
            return _fail(f"healthz says {health!r}")

        payload = {"corpus": "theorem-5.1", "analyzer": "direct"}
        served = client.analyze(**payload)
        local = execute_request("analyze", dict(payload))
        if served != local:
            return _fail("served analyze differs from in-process result")

        repeated = client.analyze(**payload)
        if repeated != served:
            return _fail("cached response differs from the first")
        cache = client.metricsz()["cache"]
        if cache["hits"] < 1:
            return _fail(f"expected a cache hit, got {cache!r}")

        # The prepare memo keys the decoded body: reordered keys and
        # extra whitespace are the same body, so the repeat skips the
        # prepare and still answers the same bytes.
        program = '"(let (a (if0 x 1 2)) (add1 a))"'
        first = _post_bytes(
            url, '{"program": %s, "analyzer": "direct"}' % program
        )
        before = client.metricsz()["cache"]["prepare_memo"]
        second = _post_bytes(
            url, '{\n  "analyzer" : "direct" ,\n  "program" : %s\n}' % program
        )
        if first != second:
            return _fail("a reordered analyze body answered other bytes")
        memo = client.metricsz()["cache"]["prepare_memo"]
        if memo["hits"] <= before["hits"]:
            return _fail(
                f"expected a prepare-memo hit: {before!r} -> {memo!r}"
            )

        # Saturate the 1-worker/1-slot server with sleeping jobs, then
        # watch the client's backoff ride out the `overloaded` burst.
        def occupy():
            ServiceClient(url).run(
                program="(add1 1)", debug_sleep_ms=700
            )

        holders = [
            threading.Thread(target=occupy, daemon=True) for _ in range(2)
        ]
        for holder in holders:
            holder.start()
        time.sleep(0.2)  # let the sleepers reach the worker + queue slot
        recovered = client.analyze(corpus="shivers-p33")
        if not recovered.get("ok"):
            return _fail(f"retry did not recover: {recovered!r}")
        if client.retries_performed < 1:
            return _fail("expected at least one overloaded retry")
        for holder in holders:
            holder.join(timeout=10)

        # SIGTERM while a request is in flight: the drain must finish
        # it and the process must exit 0.
        drainer = threading.Thread(
            target=lambda: ServiceClient(url).run(
                program="(add1 41)", debug_sleep_ms=300
            ),
            daemon=True,
        )
        drainer.start()
        time.sleep(0.1)
        process.send_signal(signal.SIGTERM)
        code = process.wait(timeout=30)
        if code != 0:
            return _fail(f"server exited {code} after SIGTERM")
        drainer.join(timeout=10)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    print(
        json.dumps(
            {
                "ok": True,
                "worker_model": args.worker_model,
                "cache_hits": cache["hits"],
                "prepare_memo_hits": memo["hits"],
                "retries": client.retries_performed,
            }
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
