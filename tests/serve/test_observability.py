"""End-to-end observability: trace propagation across the HTTP
handler, worker pool, and plan engine; the access log; server timing;
the Prometheus endpoint; and the enriched health body."""

import io
import json
import os
import urllib.request

import pytest

from repro import __version__
from repro.serve.accesslog import (
    ACCESS_SCHEMA,
    AccessLog,
    validate_record,
)
from repro.serve.jobs import ServiceDefaults
from repro.serve.server import AnalysisService


@pytest.fixture()
def log_buffer():
    return io.StringIO()


@pytest.fixture()
def service(log_buffer):
    svc = AnalysisService(
        port=0,
        workers=2,
        queue_size=8,
        defaults=ServiceDefaults(debug_hooks=True),
        access_log=AccessLog(log_buffer, slow_threshold_s=0.0),
    )
    yield svc
    svc.drain(timeout=10)


def post(service, route, payload, traceparent=None):
    headers = {"Content-Type": "application/json"}
    if traceparent is not None:
        headers["traceparent"] = traceparent
    request = urllib.request.Request(
        f"{service.url}{route}",
        data=json.dumps(payload).encode("utf-8"),
        headers=headers,
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return (
            response.status,
            json.loads(response.read()),
            dict(response.headers),
        )


def log_records(log_buffer):
    return [
        json.loads(line)
        for line in log_buffer.getvalue().splitlines()
        if line
    ]


def unique_program(tag):
    # a fresh binder name defeats both the result cache and the
    # global plan cache, so plan.compile really fires
    return f"(let ({tag} 1) (+ {tag} 2))"


class TestTracePropagation:
    def test_one_trace_id_spans_handler_worker_and_plan_engine(
        self, service, log_buffer
    ):
        status, _, _ = post(service, "/v1/analyze", {
            "program": unique_program("obs_prop_a"),
            "analyzer": "direct",
            "engine": "plan",
        })
        assert status == 200
        (record,) = log_records(log_buffer)
        names = {span["name"] for span in record["spans"]}
        # handler-side: cache lookup; pool-side: queue wait; worker:
        # execute + serialize; plan engine: the compile itself
        assert {
            "cache.lookup", "queue.wait", "execute", "serialize",
            "plan.compile",
        } <= names
        assert {
            span["trace_id"] for span in record["spans"]
        } == {record["trace_id"]}

    def test_prepare_stages_are_spans(self, service, log_buffer):
        _, body, _ = post(service, "/v1/analyze", {
            "program": unique_program("obs_prepare_a"),
            "server_timing": True,
        })
        (record,) = log_records(log_buffer)
        by_name = {span["name"]: span for span in record["spans"]}
        prepare = by_name["prepare"]
        for stage in ("prepare.parse", "prepare.normalize", "prepare.key"):
            assert by_name[stage]["parent_id"] == prepare["span_id"]
        assert body["server_timing"]["prepare_s"] == round(
            prepare["duration_s"], 6
        )

    def test_inbound_traceparent_continues_the_trace(
        self, service, log_buffer
    ):
        trace_id = "ab" * 16
        header = f"00-{trace_id}-{'cd' * 8}-01"
        _, _, headers = post(
            service, "/v1/analyze",
            {"corpus": "constants", "analyzer": "direct"},
            traceparent=header,
        )
        (record,) = log_records(log_buffer)
        assert record["trace_id"] == trace_id
        assert headers["traceparent"].startswith(f"00-{trace_id}-")

    def test_fresh_trace_minted_without_header(
        self, service, log_buffer
    ):
        _, _, headers = post(
            service, "/v1/run",
            {"corpus": "constants", "interpreter": "direct"},
        )
        (record,) = log_records(log_buffer)
        assert len(record["trace_id"]) == 32
        assert record["trace_id"] in headers["traceparent"]


class TestAccessLog:
    def test_one_valid_record_per_request(self, service, log_buffer):
        post(service, "/v1/analyze", {
            "corpus": "constants", "analyzer": "direct",
        })
        post(service, "/v1/lint", {"corpus": "branchy"})
        records = log_records(log_buffer)
        assert len(records) == 2
        for record in records:
            validate_record(record)
            assert record["schema"] == ACCESS_SCHEMA
            assert record["ok"] is True
            assert record["status"] == 200

    def test_record_carries_request_shape(self, service, log_buffer):
        post(service, "/v1/analyze", {
            "corpus": "factorial", "analyzer": "semantic-cps",
        })
        (record,) = log_records(log_buffer)
        assert record["route"] == "/v1/analyze"
        assert record["kind"] == "analyze"
        assert record["analyzer"] == "semantic-cps"
        assert record["domain"] == "constprop"
        assert record["corpus"] == "factorial"
        assert record["cache"] == "miss"
        assert record["queue_wait_s"] >= 0.0
        assert record["exec_s"] > 0.0
        assert record["total_s"] >= record["exec_s"]

    def test_replay_payload_reproduces_the_request(
        self, service, log_buffer
    ):
        post(service, "/v1/analyze", {
            "corpus": "factorial", "analyzer": "direct",
        })
        (first,) = log_records(log_buffer)
        # replaying the logged payload must be a cache hit: same key
        status, _, _ = post(service, "/v1/analyze", first["request"])
        assert status == 200
        second = log_records(log_buffer)[1]
        assert second["cache"] == "hit"

    def test_cache_hit_skips_the_pool(self, service, log_buffer):
        payload = {"corpus": "constants", "analyzer": "direct"}
        post(service, "/v1/analyze", payload)
        post(service, "/v1/analyze", payload)
        miss, hit = log_records(log_buffer)
        assert miss["cache"] == "miss"
        assert hit["cache"] == "hit"
        assert hit["queue_wait_s"] is None
        assert hit["exec_s"] is None

    def test_errors_carry_their_code(self, service, log_buffer):
        request = urllib.request.Request(
            f"{service.url}/v1/analyze",
            data=json.dumps({"corpus": "no-such-program"}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        info.value.read()
        (record,) = log_records(log_buffer)
        assert record["ok"] is False
        assert record["error"] == "not_found"
        assert record["request"] is None

    def test_threshold_gates_span_capture(self):
        buffer = io.StringIO()
        svc = AnalysisService(
            port=0,
            workers=1,
            access_log=AccessLog(buffer, slow_threshold_s=3600.0),
        )
        try:
            post(svc, "/v1/analyze", {
                "corpus": "constants", "analyzer": "direct",
            })
        finally:
            svc.drain(timeout=10)
        (record,) = [
            json.loads(line)
            for line in buffer.getvalue().splitlines()
        ]
        assert "spans" not in record  # fast request, high threshold


class TestServerTiming:
    def test_breakdown_present_on_request(self, service):
        _, body, _ = post(service, "/v1/analyze", {
            "program": unique_program("obs_timing_a"),
            "analyzer": "direct",
            "engine": "plan",
            "server_timing": True,
        })
        timing = body["server_timing"]
        assert set(timing) == {
            "trace_id", "cache", "total_s", "prepare_s", "queue_wait_s",
            "plan_compile_s", "analyze_s", "serialize_s",
        }
        assert timing["cache"] == "miss"
        assert timing["queue_wait_s"] >= 0.0
        assert timing["plan_compile_s"] > 0.0
        assert timing["analyze_s"] > 0.0
        assert timing["total_s"] >= timing["analyze_s"]

    def test_absent_by_default(self, service):
        _, body, _ = post(service, "/v1/analyze", {
            "corpus": "constants", "analyzer": "direct",
        })
        assert "server_timing" not in body

    def test_timing_request_shares_cache_with_plain_request(
        self, service, log_buffer
    ):
        payload = {"corpus": "higher-order", "analyzer": "direct"}
        _, plain, _ = post(service, "/v1/analyze", payload)
        _, timed, _ = post(service, "/v1/analyze", {
            **payload, "server_timing": True,
        })
        records = log_records(log_buffer)
        assert records[1]["cache"] == "hit"
        assert timed["server_timing"]["cache"] == "hit"
        stripped = {
            key: value
            for key, value in timed.items()
            if key != "server_timing"
        }
        assert stripped == plain

    def test_timing_excluded_from_trace_spans_pollution(self, service):
        # a cache-hit timing response reports no worker stages
        payload = {"corpus": "even-odd", "analyzer": "direct"}
        post(service, "/v1/analyze", payload)
        _, timed, _ = post(service, "/v1/analyze", {
            **payload, "server_timing": True,
        })
        timing = timed["server_timing"]
        assert timing["queue_wait_s"] is None
        assert timing["analyze_s"] is None


@pytest.mark.parametrize("worker_model", ["thread", "process"])
def test_request_histogram_counts_every_post(worker_model):
    # one miss, then one hit: both are requests, in both worker models
    svc = AnalysisService(port=0, workers=1, worker_model=worker_model)
    try:
        payload = {"corpus": "constants", "analyzer": "direct"}
        post(svc, "/v1/analyze", payload)
        post(svc, "/v1/analyze", payload)
        with urllib.request.urlopen(f"{svc.url}/metricsz") as r:
            body = json.loads(r.read())
    finally:
        svc.drain(timeout=15)
    hist = body["metrics"]["histograms"]["serve.request.seconds"]
    assert hist["count"] == 2
    assert body["cache"]["hits"] == 1


def _work_metrics(svc) -> tuple[dict, dict]:
    """What ``svc`` reports after one miss-then-hit pair: from
    ``/metricsz`` JSON, the ``analysis.*``, ``perf.*`` and
    ``serve.cache.*`` counters and gauges plus every histogram's count;
    from the Prometheus text, the same counter and gauge lines plus
    every histogram's ``_count`` line.  Histogram timings differ
    between runs, so only names and counts are compared."""
    payload = {"corpus": "even-odd", "analyzer": "semantic-cps"}
    post(svc, "/v1/analyze", payload)
    post(svc, "/v1/analyze", payload)
    with urllib.request.urlopen(f"{svc.url}/metricsz") as r:
        metrics = json.loads(r.read())["metrics"]
    with urllib.request.urlopen(f"{svc.url}/metricsz?format=prom") as r:
        text = r.read().decode("utf-8")
    prefixes = ("analysis.", "perf.", "serve.cache.")
    body = {
        kind: {
            name: value
            for name, value in metrics[kind].items()
            if name.startswith(prefixes)
        }
        for kind in ("counters", "gauges")
    }
    body["histograms"] = {
        name: hist["count"] for name, hist in metrics["histograms"].items()
    }
    lines = text.splitlines()
    prom_prefixes = tuple("repro_" + p.replace(".", "_") for p in prefixes)
    values = [line.partition(" ")[::2] for line in lines]
    prom = {
        kind: {
            name: value
            for name, value in values
            if f"# TYPE {name} {kind}" in lines
            and name.startswith(prom_prefixes)
        }
        for kind in ("counter", "gauge")
    }
    histograms = {
        line.split()[2] for line in lines if line.endswith(" histogram")
    }
    prom["histogram"] = {
        name: value
        for name, value in values
        if name.endswith("_count") and name[: -len("_count")] in histograms
    }
    return body, prom


def test_process_metricsz_counts_the_shards_work():
    # The analyzer and response-cache instruments live where the work
    # runs: in process mode that is a shard, and /metricsz must still
    # report them as the thread server does.
    results = {}
    for model in ("thread", "process"):
        svc = AnalysisService(port=0, workers=2, worker_model=model)
        try:
            results[model] = _work_metrics(svc)
        finally:
            svc.drain(timeout=15)
    body, prom = results["process"]
    thread_body, thread_prom = results["thread"]
    assert body["counters"]["serve.cache.hits"] == 1
    assert body["counters"]["analysis.semantic-cps.visits"] > 0
    assert body["gauges"]["analysis.semantic-cps.max_depth"]["max"] > 0
    assert body["histograms"]["serve.request.seconds"] == 2
    # The thread server answers a response-cache hit on the handler
    # thread and queues only the miss; a shard queues both.
    wait = "serve.queue.wait.seconds"
    prom_wait = "repro_serve_queue_wait_seconds_count"
    assert thread_body["histograms"].pop(wait) == 1
    assert body["histograms"].pop(wait) == 2
    assert thread_prom["histogram"].pop(prom_wait) == "1"
    assert prom["histogram"].pop(prom_wait) == "2"
    assert body == thread_body
    assert prom == thread_prom
    assert "repro_analysis_semantic_cps_visits" in prom["counter"]
    assert "repro_analysis_semantic_cps_max_store_size_max" in prom["gauge"]


class TestPrometheusEndpoint:
    def test_text_exposition(self, service):
        post(service, "/v1/analyze", {
            "corpus": "constants", "analyzer": "direct",
        })
        with urllib.request.urlopen(
            f"{service.url}/metricsz?format=prom"
        ) as response:
            assert response.headers["Content-Type"].startswith(
                "text/plain"
            )
            text = response.read().decode("utf-8")
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_serve_request_seconds_count" in text
        assert "repro_serve_queue_depth" in text
        # every non-comment line is `name{labels} value` or `name value`
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part.startswith("repro_")
            if value not in ("+Inf", "NaN"):
                float(value)

    def test_json_metricsz_carries_quantiles(self, service):
        post(service, "/v1/analyze", {
            "corpus": "constants", "analyzer": "direct",
        })
        with urllib.request.urlopen(f"{service.url}/metricsz") as r:
            body = json.loads(r.read())
        hist = body["metrics"]["histograms"]["serve.request.seconds"]
        assert "p50" in hist and "p99" in hist


class TestHealthz:
    def test_version_pid_uptime(self, service):
        with urllib.request.urlopen(f"{service.url}/healthz") as r:
            health = json.loads(r.read())
        assert health["status"] == "ok"
        assert health["version"] == __version__
        assert health["pid"] == os.getpid()
        assert health["uptime_s"] >= 0.0
        assert health["workers"] == 2
