"""The multi-process sharded serve layer (`repro.serve.shard`).

The contracts under test: process-mode responses are byte-identical
to thread-mode ones (the shard runs the same prepare → cache →
execute → serialize pipeline), consistent-hash routing is stable,
``/v1/batch`` preserves order and isolates failures, a SIGKILLed
shard fails in-flight work with the retryable ``worker_crashed`` code
and respawns, and a process-mode server drains cleanly on SIGTERM.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.obs import RecordingSink
from repro.serve.client import RetryPolicy, ServiceClient, ServiceError
from repro.serve.jobs import ServiceDefaults
from repro.serve.server import AnalysisService
from repro.serve.shard import ShardedExecutor, shard_index


@pytest.fixture(scope="module")
def process_service():
    svc = AnalysisService(
        port=0, workers=2, worker_model="process", queue_size=16
    )
    yield svc
    svc.drain(timeout=15)


@pytest.fixture()
def client(process_service):
    return ServiceClient(
        process_service.url,
        policy=RetryPolicy(retries=3, base_delay=0.02),
    )


class TestShardIndex:
    def test_consistent_and_in_range(self):
        key = "deadbeefcafebabe" + "0" * 48
        assert shard_index(key, 4, 0) == shard_index(key, 4, 3)
        for shards in (1, 2, 4, 7):
            assert 0 <= shard_index(key, shards, 0) < shards

    def test_uncacheable_round_robins(self):
        assert shard_index(None, 4, 0) == 0
        assert shard_index(None, 4, 1) == 1
        assert shard_index(None, 4, 5) == 1

    def test_keys_spread(self):
        # sha256 keys should not all land on one shard
        indexes = {
            shard_index(f"{seed:016x}" + "0" * 48, 4, 0)
            for seed in range(64)
        }
        assert len(indexes) > 1


# -- byte identity vs thread mode --------------------------------------

IDENTITY_REQUESTS = [
    ("analyze", {"corpus": "even-odd", "analyzer": "direct"}),
    ("analyze", {"corpus": "even-odd", "analyzer": "semantic-cps"}),
    ("analyze", {"corpus": "factorial", "analyzer": "polyvariant", "k": 1}),
    ("analyze", {"corpus": "theorem-5.1", "analyzer": "pushdown"}),
    ("analyze", {"corpus": "higher-order", "engine": "plan"}),
    ("run", {"program": "(+ 1 2)"}),
    ("compare", {"corpus": "constants"}),
    ("lint", {"corpus": "branchy"}),
    # error paths must be identical too
    ("analyze", {"program": "(oops"}),
    ("analyze", {"corpus": "constants", "analyzer": "pushdown",
                 "engine": "plan"}),  # engine_unsupported
    ("analyze", {"corpus": "no-such-program"}),
    ("run", {}),
    # the one pipeline: the eval cache on, and server_timing requests
    # (their per-request block is compared by key set only)
    ("analyze", {"corpus": "even-odd", "analyzer": "semantic-cps",
                 "cache": True}),
    ("analyze", {"corpus": "factorial", "analyzer": "direct",
                 "server_timing": True}),
    ("compare", {"corpus": "theorem-5.1", "server_timing": True}),
    ("analyze", {"program": "(oops", "server_timing": True}),
]


def comparable(status: int, body: str) -> tuple:
    """``(status, body, timing keys)`` with a ``server_timing`` block
    stripped from the body: its values are per request, its shape is
    not."""
    payload = json.loads(body)
    timing = payload.pop("server_timing", None)
    if timing is None:
        return status, body, None
    return status, json.dumps(payload, ensure_ascii=False), set(timing)


def assert_worker_models_agree(thread_svc, process_svc) -> None:
    for kind, payload in IDENTITY_REQUESTS:
        thread_reply = thread_svc.process(kind, dict(payload))
        process_reply = process_svc.process(kind, dict(payload))
        assert comparable(*thread_reply) == comparable(*process_reply), (
            f"{kind} {payload} diverged between worker models"
        )


class TestByteIdentity:
    def test_sharded_bodies_match_thread_mode(self, process_service):
        thread_svc = AnalysisService(port=0, workers=2)
        try:
            assert_worker_models_agree(thread_svc, process_service)
        finally:
            thread_svc.drain(timeout=10)

    def test_pair_sharing_an_incr_store_matches(self, tmp_path):
        # The thread server fills the persistent tier first, so the
        # shards answer from it: tier-served bodies must equal
        # executed ones.
        store = str(tmp_path / "incr.sqlite")
        process_svc = AnalysisService(
            port=0, workers=2, worker_model="process", incr_store=store
        )
        thread_svc = AnalysisService(port=0, workers=2, incr_store=store)
        try:
            assert_worker_models_agree(thread_svc, process_svc)
            assert process_svc.metricsz()["incr_store"]["hits"] > 0
        finally:
            thread_svc.drain(timeout=10)
            process_svc.drain(timeout=15)

    def test_repeat_hits_the_shard_cache(self, process_service, client):
        before = client.metricsz()["cache"]["hits"]
        first = client.analyze(corpus="even-odd", analyzer="direct")
        second = client.analyze(corpus="even-odd", analyzer="direct")
        assert first == second
        assert client.metricsz()["cache"]["hits"] > before


class TestBatch:
    def test_order_and_isolation(self, client):
        batch = client.batch([
            {"kind": "analyze", "body": {"corpus": "even-odd"}},
            {"kind": "run", "body": {"program": "(* 3 4)"}},
            {"kind": "analyze", "body": {"program": "(broken"}},
            {"kind": "lint", "body": {"corpus": "branchy"}},
        ])
        assert batch["ok"] is True
        assert batch["kind"] == "batch"
        assert batch["count"] == 4
        statuses = [item["status"] for item in batch["results"]]
        assert statuses == [200, 200, 400, 200]
        # results are positional: item 1 is the run of (* 3 4)
        assert batch["results"][1]["body"]["value"] == 12
        error = batch["results"][2]["body"]["error"]
        assert error["code"] == "parse_error"

    def test_empty_batch_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.batch([])
        assert info.value.code == "bad_request"

    def test_unknown_kind_rejected(self, client):
        with pytest.raises(ServiceError) as info:
            client.batch([{"kind": "frobnicate", "body": {}}])
        assert info.value.code == "bad_request"

    def test_oversized_batch_rejected(self, client):
        items = [
            {"kind": "run", "body": {"program": "(+ 1 1)"}}
        ] * 65
        with pytest.raises(ServiceError) as info:
            client.batch(items)
        assert info.value.code == "bad_request"

    def test_batch_works_in_thread_mode_too(self):
        svc = AnalysisService(port=0, workers=2)
        try:
            client = ServiceClient(
                svc.url, policy=RetryPolicy(retries=0)
            )
            batch = client.batch([
                {"kind": "run", "body": {"program": "(+ 2 2)"}},
            ])
            assert batch["results"][0]["status"] == 200
        finally:
            svc.drain(timeout=10)


class TestAggregation:
    def test_healthz_lists_live_shards(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["worker_model"] == "process"
        assert health["workers"] == 2
        shards = health["shards"]
        assert len(shards) == 2
        assert [s["index"] for s in shards] == [0, 1]
        for shard in shards:
            assert shard["alive"] is True
            assert isinstance(shard["pid"], int)
            assert shard["pid"] != os.getpid()

    def test_metricsz_aggregates_shard_caches(self, client):
        client.analyze(corpus="even-odd")  # ensure some cache traffic
        metrics = client.metricsz()
        assert metrics["worker_model"] == "process"
        cache = metrics["cache"]
        for key in ("hits", "misses", "size", "capacity", "evictions"):
            assert isinstance(cache[key], int)
        assert cache["hits"] + cache["misses"] > 0
        shards = metrics["shards"]
        assert len(shards) == 2
        for shard in shards:
            assert shard["alive"] is True
            # per-shard cache + plan-cache stats came over the pipe
            assert "cache" in shard
            assert "plan_cache" in shard
        assert metrics["queue"]["draining"] is False


class TestCrashRecovery:
    def test_mid_request_sigkill_returns_worker_crashed(self):
        svc = AnalysisService(
            port=0,
            workers=1,
            worker_model="process",
            defaults=ServiceDefaults(debug_hooks=True),
        )
        try:
            no_retry = ServiceClient(
                svc.url, policy=RetryPolicy(retries=0)
            )
            pid = svc.health()["shards"][0]["pid"]
            error: dict = {}

            import threading

            def slow_request():
                try:
                    no_retry.run(
                        program="(add1 1)", debug_sleep_ms=3_000
                    )
                except ServiceError as exc:
                    error["code"] = exc.code
                    error["status"] = exc.status

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.5)  # request is in flight on the shard
            os.kill(pid, signal.SIGKILL)
            thread.join(timeout=10)
            assert error == {"code": "worker_crashed", "status": 503}
            # worker_crashed is retryable by contract
            from repro.serve.codes import CODES

            assert CODES["worker_crashed"].retryable is True
        finally:
            svc.drain(timeout=10)

    def test_respawned_shard_keeps_serving(self):
        svc = AnalysisService(port=0, workers=2, worker_model="process")
        try:
            retrying = ServiceClient(
                svc.url, policy=RetryPolicy(retries=4, base_delay=0.05)
            )
            reference = retrying.analyze(corpus="even-odd")
            pids = [s["pid"] for s in svc.health()["shards"]]
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = svc.health()
                if (
                    health["shard_respawns"] >= 1
                    and all(s["alive"] for s in health["shards"])
                ):
                    break
                time.sleep(0.05)
            health = svc.health()
            assert health["shard_respawns"] >= 1
            assert all(s["alive"] for s in health["shards"])
            after = [s["pid"] for s in health["shards"]]
            assert after[0] != pids[0]
            assert after[1] == pids[1]  # only the dead shard respawned
            # identical request, identical answer, fresh shard
            assert retrying.analyze(corpus="even-odd") == reference
        finally:
            svc.drain(timeout=10)


class TestDrain:
    def test_executor_drain_stops_shards(self):
        executor = ShardedExecutor(shards=2, queue_size=4)
        pids = [h.pid for h in executor._handles]
        assert executor.drain(timeout=10) is True
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert executor.drain(timeout=10) is True  # idempotent

    def test_submit_while_draining_is_overloaded(self):
        executor = ShardedExecutor(shards=1, queue_size=4)
        executor.drain(timeout=10)
        from repro.serve.codes import ServeError

        with pytest.raises(ServeError) as info:
            executor.submit(None, "run", {"program": "(+ 1 1)"}, None, None)
        assert info.value.code == "overloaded"

    def test_spawned_process_server_drains_on_sigterm(self, tmp_path):
        env = dict(os.environ)
        src_root = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p
            for p in (os.path.abspath(src_root), env.get("PYTHONPATH"))
            if p
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--worker-model", "process",
                "--workers", "2",
            ],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                line = process.stderr.readline()
                match = re.search(r"listening on (http://\S+)", line)
                if match:
                    url = match.group(1)
                    break
            assert url, "server never announced its port"
            client = ServiceClient(url, policy=RetryPolicy(retries=2))
            health = client.healthz()
            assert health["worker_model"] == "process"
            shard_pids = [s["pid"] for s in health["shards"]]
            assert client.run(program="(+ 20 22)")["value"] == 42
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
            # the drain took the shard processes down with it
            for pid in shard_pids:
                with pytest.raises(ProcessLookupError):
                    os.kill(pid, 0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
            if process.stderr is not None:
                process.stderr.close()


class TestTraceSink:
    def test_process_model_refuses_a_trace_sink(self):
        # shards cannot reach the sink, so its events would silently
        # never arrive
        with pytest.raises(ValueError, match="worker_model='thread'"):
            AnalysisService(
                port=0, worker_model="process", trace=RecordingSink()
            )

    def test_cli_reports_it_at_startup(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main([
                "serve", "--port", "0", "--worker-model", "process",
                "--trace", str(tmp_path / "trace.jsonl"),
            ])
        assert "cannot start service" in str(info.value.code)
        assert "--worker-model thread" in str(info.value.code)


class TestAccessLogRemoteSpans:
    def test_access_log_carries_shard_spans(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        svc = AnalysisService(
            port=0,
            workers=2,
            worker_model="process",
            access_log=str(log_path),
            slow_threshold_s=0.0,
        )
        try:
            client = ServiceClient(
                svc.url, policy=RetryPolicy(retries=2)
            )
            client.analyze(corpus="even-odd")
        finally:
            svc.drain(timeout=10)
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        assert len(records) == 1
        record = records[0]
        assert record["status"] == 200
        assert record["cache"] in ("hit", "miss")
        # spans crossed the process hop: the shard's trace is in the
        # dispatcher's access log
        names = {span["name"] for span in record["spans"]}
        assert "queue.wait" in names
        assert "execute" in names
