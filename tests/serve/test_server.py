"""The HTTP server: routes, caching, backpressure, timeouts, drain."""

import threading
import time

import pytest

from repro.serve.client import RetryPolicy, ServiceClient, ServiceError
from repro.serve.jobs import ServiceDefaults, execute_request
from repro.serve.server import AnalysisService


@pytest.fixture(scope="module")
def service():
    svc = AnalysisService(
        port=0,
        workers=2,
        queue_size=8,
        defaults=ServiceDefaults(debug_hooks=True),
    )
    yield svc
    svc.drain(timeout=10)


@pytest.fixture()
def client(service):
    return ServiceClient(
        service.url, policy=RetryPolicy(retries=3, base_delay=0.02)
    )


class TestRoutes:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_corpus_listing(self, client):
        listing = client.corpus()
        names = {entry["name"] for entry in listing["programs"]}
        assert "theorem-5.1" in names
        assert any(
            "conditional-chain" in entry["name"]
            for entry in listing["families"]
        )

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as info:
            client.request("/v1/frobnicate", {})
        assert info.value.code == "not_found"
        assert info.value.status == 404

    def test_malformed_json_400(self, service):
        import urllib.request

        request = urllib.request.Request(
            f"{service.url}/v1/analyze",
            data=b"{not json",
            method="POST",
        )
        try:
            urllib.request.urlopen(request)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:  # pragma: no cover
            pytest.fail("expected HTTP 400")

    def test_analyze_matches_in_process(self, client):
        payload = {"corpus": "theorem-5.2-conditional", "analyzer": "semantic-cps"}
        assert client.analyze(**payload) == execute_request(
            "analyze", dict(payload)
        )

    def test_compare_route(self, client):
        body = client.compare(corpus="theorem-5.1")
        assert body["verdicts"]["direct_vs_syntactic"] == "left-more-precise"

    def test_run_route(self, client):
        assert client.run(program="(add1 41)")["value"] == 42

    def test_error_payload_carries_code(self, client):
        with pytest.raises(ServiceError) as info:
            client.analyze(program="(((")
        assert info.value.code == "parse_error"
        assert info.value.status == 400


    def test_deep_nest_analyzes(self, client):
        source = "y"
        for i in range(300):
            source = f"(let (x (lambda (x) (+ x {i}))) (let (y x) {source}))"
        assert client.analyze(program=source)["ok"]

    def test_too_deep_program_is_bad_request(self, client):
        with pytest.raises(ServiceError) as info:
            client.analyze(program="(add1 " * 5000 + "1" + ")" * 5000)
        assert info.value.code == "bad_request"
        assert info.value.status == 400
        assert "nests too deeply" in str(info.value)


class TestCache:
    def test_repeat_request_hits_cache_with_identical_payload(self, client):
        payload = {"corpus": "constants", "analyzer": "direct"}
        before = client.metricsz()["cache"]["hits"]
        first = client.analyze(**payload)
        second = client.analyze(**payload)
        assert first == second
        after = client.metricsz()["cache"]["hits"]
        assert after >= before + 1

    def test_metricsz_shape(self, client):
        body = client.metricsz()
        assert {"metrics", "cache", "queue"} <= set(body)
        assert "serve.requests.total" in body["metrics"]["counters"]
        assert "hit_rate" in body["cache"]


class TestBackpressure:
    def test_overloaded_then_recovery(self):
        svc = AnalysisService(
            port=0,
            workers=1,
            queue_size=1,
            defaults=ServiceDefaults(debug_hooks=True),
        )
        try:
            holders = [
                threading.Thread(
                    target=lambda: ServiceClient(svc.url).run(
                        program="(add1 1)", debug_sleep_ms=500
                    ),
                    daemon=True,
                )
                for _ in range(2)
            ]
            for holder in holders:
                holder.start()
            time.sleep(0.15)  # both sleepers hold worker + queue slot

            impatient = ServiceClient(svc.url, policy=RetryPolicy(retries=0))
            with pytest.raises(ServiceError) as info:
                impatient.run(program="(add1 2)")
            assert info.value.code == "overloaded"
            assert info.value.status == 503

            patient = ServiceClient(
                svc.url, policy=RetryPolicy(retries=8, base_delay=0.05)
            )
            response = patient.run(program="(add1 2)")
            assert response["value"] == 3
            assert patient.retries_performed >= 1
            for holder in holders:
                holder.join(timeout=10)
        finally:
            svc.drain(timeout=10)

    def test_request_timeout(self):
        svc = AnalysisService(
            port=0,
            workers=1,
            queue_size=4,
            defaults=ServiceDefaults(
                debug_hooks=True, timeout_seconds=0.2
            ),
        )
        try:
            client = ServiceClient(svc.url, policy=RetryPolicy(retries=0))
            with pytest.raises(ServiceError) as info:
                client.run(program="(add1 1)", debug_sleep_ms=5_000)
            assert info.value.code == "timeout"
            assert info.value.status == 504
        finally:
            svc.drain(timeout=10)


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self):
        svc = AnalysisService(
            port=0,
            workers=1,
            queue_size=4,
            defaults=ServiceDefaults(debug_hooks=True),
        )
        results = {}

        def inflight():
            results["inflight"] = ServiceClient(svc.url).run(
                program="(add1 41)", debug_sleep_ms=400
            )

        thread = threading.Thread(target=inflight, daemon=True)
        thread.start()
        time.sleep(0.1)
        assert svc.drain(timeout=10) is True
        thread.join(timeout=10)
        # the in-flight request completed during the drain
        assert results["inflight"]["value"] == 42
        # and the server is gone: new connections are refused
        with pytest.raises(ServiceError) as info:
            ServiceClient(
                svc.url, policy=RetryPolicy(retries=0)
            ).healthz()
        assert info.value.code == "unreachable"

    def test_drain_is_idempotent(self):
        svc = AnalysisService(port=0, workers=1, queue_size=1)
        assert svc.drain(timeout=10) is True
        assert svc.drain(timeout=10) is True

    def test_submissions_during_drain_are_overloaded(self):
        svc = AnalysisService(port=0, workers=1, queue_size=1)
        svc.executor._closed.set()  # simulate the drain flag flipping first
        status, body = svc.process("run", {"program": "(add1 1)"})
        assert status == 503
        assert "overloaded" in body
        svc.drain(timeout=10)
