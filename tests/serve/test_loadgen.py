"""The load generator: mixes, closed/open loops, the BENCH_serve
schema, replay, and the spawned-server smoke path."""

import io
import json

import pytest

from repro.serve.accesslog import AccessLog
from repro.serve.jobs import ServiceDefaults, prepare_request
from repro.serve.loadgen import (
    LOADGEN_SCHEMA,
    MIXES,
    LoadRequest,
    RequestResult,
    RunOutcome,
    build_payload,
    corpus_mix,
    exact_quantile,
    replay_mix,
    run_closed_loop,
    run_loadgen,
    run_open_loop,
    unique_mix,
    validate_loadgen,
    validate_loadgen_file,
)
from repro.serve.server import AnalysisService


@pytest.fixture(scope="module")
def service():
    svc = AnalysisService(port=0, workers=2, queue_size=16)
    yield svc
    svc.drain(timeout=10)


class TestMixes:
    def test_corpus_mix_covers_every_post_route(self):
        assert {request.path for request in corpus_mix()} == {
            "/v1/analyze", "/v1/run", "/v1/compare", "/v1/lint",
        }

    def test_corpus_mix_payloads_validate(self):
        defaults = ServiceDefaults()
        for request in corpus_mix():
            prepare_request(
                request.path.rsplit("/", 1)[1],
                request.payload,
                defaults,
            )

    def test_unique_mix_requests_have_distinct_cache_keys(self):
        defaults = ServiceDefaults()
        keys = {
            prepare_request(
                "analyze", request.payload, defaults
            ).key
            for request in unique_mix(16)
        }
        assert len(keys) == 16

    def test_unique_mix_keys_do_not_cycle(self):
        defaults = ServiceDefaults()
        mix = MIXES["unique"]()
        keys = {
            prepare_request(
                "analyze", mix(index).payload, defaults
            ).key
            for index in range(0, 1000, 7)
        }
        assert len(keys) == len(range(0, 1000, 7))

    def test_replay_mix_reads_request_payloads(self, tmp_path):
        log_path = tmp_path / "access.jsonl"
        log = AccessLog(log_path, slow_threshold_s=None)
        log.record(
            trace_id="ab" * 16, route="/v1/analyze", kind="analyze",
            status=200, error=None, cache="miss", total_s=0.01,
            request={"corpus": "constants", "analyzer": "direct"},
        )
        log.record(  # failed validation: nothing to replay
            trace_id="cd" * 16, route="/v1/analyze", kind="analyze",
            status=400, error="bad_request", cache="bypass",
            total_s=0.001, request=None,
        )
        log.close()
        requests = replay_mix(log_path)
        assert requests == [LoadRequest(
            "/v1/analyze",
            {"corpus": "constants", "analyzer": "direct"},
        )]

    def test_replay_of_empty_log_fails(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError, match="no replayable"):
            replay_mix(empty)


class TestExactQuantile:
    def test_picks_by_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert exact_quantile(values, 0.0) == 1.0
        assert exact_quantile(values, 0.5) == 51.0
        assert exact_quantile(values, 1.0) == 100.0

    def test_single_value(self):
        assert exact_quantile([0.25], 0.99) == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)


class TestClosedLoop:
    def test_drives_a_live_service(self, service):
        outcome = run_closed_loop(
            service.url,
            corpus_mix(),
            concurrency=2,
            total=16,
            retries=1,
        )
        assert len(outcome.results) == 16
        assert all(result.ok for result in outcome.results)
        assert outcome.wall_s > 0

    def test_requires_a_stop_condition(self, service):
        with pytest.raises(ValueError, match="total or a duration"):
            run_closed_loop(service.url, corpus_mix())

    def test_errors_are_counted_not_raised(self, service):
        outcome = run_closed_loop(
            service.url,
            [LoadRequest("/v1/analyze", {"corpus": "nope"})],
            concurrency=1,
            total=3,
            retries=0,
        )
        assert all(not result.ok for result in outcome.results)
        assert {result.code for result in outcome.results} == {
            "not_found"
        }


class TestOpenLoop:
    def test_latency_charged_from_scheduled_arrival(self, service):
        outcome = run_open_loop(
            service.url,
            corpus_mix(),
            rate=100.0,
            duration_s=0.2,
            concurrency=4,
            retries=1,
        )
        assert len(outcome.results) == 20
        assert all(result.ok for result in outcome.results)
        # arrivals are paced: the run cannot finish faster than the
        # last scheduled arrival
        assert outcome.wall_s >= 19 * (1.0 / 100.0)

    def test_rejects_bad_parameters(self, service):
        with pytest.raises(ValueError, match="rate"):
            run_open_loop(service.url, corpus_mix(), rate=0, duration_s=1)
        with pytest.raises(ValueError, match="duration"):
            run_open_loop(
                service.url, corpus_mix(), rate=1, duration_s=0
            )


def make_outcome():
    results = [
        RequestResult("/v1/analyze", True, None, 0.010),
        RequestResult("/v1/analyze", True, None, 0.020),
        RequestResult("/v1/run", False, "timeout", 0.500),
        RequestResult("/v1/run", True, None, 0.015),
    ]
    return RunOutcome(results=results, wall_s=0.5, retries=1)


class TestPayload:
    def test_shape_and_validation(self):
        payload = build_payload(
            make_outcome(),
            mode="closed",
            mix_name="corpus",
            concurrency=2,
            generated_at="2026-08-08T00:00:00Z",
        )
        validate_loadgen(payload)
        assert payload["schema"] == LOADGEN_SCHEMA
        assert payload["requests"] == 4
        assert payload["ok"] == 3
        assert payload["errors"] == 1
        assert payload["errors_by_code"] == {"timeout": 1}
        assert payload["throughput_rps"] == 8.0
        assert payload["generated_at"] == "2026-08-08T00:00:00Z"
        assert payload["meta"]["mode"] == "closed"
        assert set(payload["routes"]) == {"/v1/analyze", "/v1/run"}

    def test_latency_block_is_monotone(self):
        latency = build_payload(
            make_outcome(), mode="closed", mix_name="corpus",
            concurrency=2,
        )["latency_s"]
        assert (
            latency["min"] <= latency["p50"] <= latency["p95"]
            <= latency["p99"] <= latency["max"]
        )

    @pytest.mark.parametrize("mutate,match", [
        (lambda p: p.update(schema="nope"), "schema"),
        (lambda p: p.pop("throughput_rps"), "throughput_rps"),
        (lambda p: p.update(ok=99), "ok"),
        (lambda p: p["latency_s"].update(p50=9e9), "monotone"),
        (lambda p: p["meta"].pop("python"), "python"),
        (lambda p: p.pop("latency_s"), "latency_s"),
        (lambda p: p["meta"].pop("server"), "server"),
        (
            lambda p: p["meta"].update(server={"spawned": True}),
            "workers",
        ),
    ])
    def test_validator_rejects_broken_payloads(self, mutate, match):
        payload = build_payload(
            make_outcome(), mode="closed", mix_name="corpus",
            concurrency=2,
        )
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_loadgen(payload)

    def test_empty_run_is_valid_without_latency(self):
        payload = build_payload(
            RunOutcome(), mode="closed", mix_name="corpus",
            concurrency=1,
        )
        validate_loadgen(payload)

    def test_server_meta_defaults_to_external(self):
        payload = build_payload(
            make_outcome(), mode="closed", mix_name="corpus",
            concurrency=2,
        )
        assert payload["meta"]["server"] == {"spawned": False}


class TestRunLoadgen:
    def test_against_running_service_writes_valid_file(
        self, service, tmp_path
    ):
        out = tmp_path / "BENCH_serve.json"
        payload = run_loadgen(
            service.url,
            quick=True,
            total=8,
            out=out,
            generated_at="2026-08-08T00:00:00Z",
        )
        on_disk = validate_loadgen_file(out)
        assert on_disk == payload
        assert payload["requests"] == 8
        assert payload["errors"] == 0
        assert payload["generated_at"] == "2026-08-08T00:00:00Z"
        assert "access_log" not in payload  # no spawned server
        assert payload["meta"]["server"] == {"spawned": False}

    def test_unknown_mix_rejected(self, service):
        with pytest.raises(ValueError, match="unknown mix"):
            run_loadgen(service.url, mix="nope", total=1)

    def test_unknown_mode_rejected(self, service):
        with pytest.raises(ValueError, match="unknown mode"):
            run_loadgen(service.url, mode="sideways", total=1)

    def test_replay_against_service(self, service, tmp_path):
        log_path = tmp_path / "access.jsonl"
        log = AccessLog(log_path, slow_threshold_s=None)
        log.record(
            trace_id="ab" * 16, route="/v1/analyze", kind="analyze",
            status=200, error=None, cache="miss", total_s=0.01,
            request={"corpus": "factorial", "analyzer": "direct"},
        )
        log.close()
        payload = run_loadgen(
            service.url,
            replay=log_path,
            total=4,
            quick=True,
            out=None,
        )
        assert payload["meta"]["mix"] == "replay"
        assert payload["requests"] == 4
        assert payload["errors"] == 0


class TestSpawnedServer:
    def test_spawn_run_validates_access_log(self, tmp_path):
        # the CI loadgen-smoke path: boot a private server, drive it,
        # drain it, and cross-check the access log it wrote
        out = tmp_path / "BENCH_serve.json"
        access = tmp_path / "access.jsonl"
        payload = run_loadgen(
            None,
            quick=True,
            total=12,
            out=out,
            access_log_path=access,
        )
        validate_loadgen_file(out)
        assert payload["requests"] == 12
        assert payload["errors"] == 0
        summary = payload["access_log"]
        assert summary["records"] == 12
        assert summary["with_spans"] == 12
        assert (
            summary["cache"]["hit"]
            + summary["cache"]["miss"]
            + summary["cache"]["bypass"]
        ) == 12
        # the log survives for replay
        with open(access, "r", encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert len(lines) == 12
        record = json.loads(lines[0])
        assert record["trace_id"]
        assert record["spans"]
        assert payload["meta"]["server"] == {
            "spawned": True, "workers": 4, "args": [],
        }

    def test_unique_mix_never_hits_the_cache(self, tmp_path):
        # more requests than any fixed list of bodies would hold: each
        # request index carries its own program, so none is a repeat
        out = tmp_path / "BENCH_serve.json"
        access = tmp_path / "access.jsonl"
        payload = run_loadgen(
            None,
            mix="unique",
            total=200,
            out=out,
            access_log_path=access,
            workers=2,
        )
        validate_loadgen_file(out)
        assert payload["requests"] == 200
        assert payload["errors"] == 0
        cache = payload["access_log"]["cache"]
        assert cache["hit"] == 0
        assert cache["miss"] == 200

    def test_server_args_reach_the_spawned_server(self, tmp_path):
        # --server-args passthrough: the spawned server really runs
        # the sharded process model, and the payload records exactly
        # what was measured.
        out = tmp_path / "BENCH_serve.json"
        access = tmp_path / "access.jsonl"
        payload = run_loadgen(
            None,
            quick=True,
            total=8,
            out=out,
            access_log_path=access,
            workers=2,
            server_args=["--worker-model", "process"],
        )
        validate_loadgen_file(out)
        assert payload["errors"] == 0
        assert payload["meta"]["server"] == {
            "spawned": True,
            "workers": 2,
            "args": ["--worker-model", "process"],
        }
