"""End-to-end smoke harness:
``python -m repro.serve.smoke [--worker-model thread|process]``.

Starts a real server subprocess on an ephemeral port (thread worker
model unless told otherwise), then exercises the acceptance path the
CI ``serve-smoke`` job pins under both worker models:

1. ``GET /healthz`` answers ``ok``;
2. one ``POST /v1/analyze`` matches the in-process analyzer
   byte-for-byte, and repeating it is served from the cross-request
   cache (visible in ``/metricsz``);
3. an induced ``overloaded`` burst (debug-sleep jobs saturating a
   1-worker/1-slot queue) is recovered by the client's backoff;
4. SIGTERM drains in-flight work and the process exits 0.

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
                "retries": client.retries_performed,
            }
        )
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main(sys.argv[1:]))
