"""The prepare memo inside `repro.serve.pipeline.RequestPipeline`.

A repeat of a decoded request body skips `prepare_request` (parse,
A-normalize, canonical key).  The contracts under test: answers are
byte-identical with the memo on and off in both worker models, a bad
body is never stored, variants that only the canonical key folds
together miss the memo but still share the response LRU entry,
per-request fields (``term_hash``, ``server_timing``) and the access
log are unchanged on a hit, ``cache_size=0`` turns the memo off, and
concurrent first posts of one body agree.
"""

import io
import json
import sys
import threading
import urllib.request

import pytest

from repro.obs.metrics import Metrics
from repro.serve import pipeline as pipeline_module
from repro.serve.accesslog import AccessLog
from repro.serve.codes import ServeError
from repro.serve.jobs import ServiceDefaults, prepare_request
from repro.serve.pipeline import RequestPipeline
from repro.serve.server import AnalysisService

from tests.serve.test_shard import IDENTITY_REQUESTS, comparable

PROGRAM = "(let (a (if0 x 1 2)) (add1 a))"


def memo_counts(svc) -> tuple[int, int]:
    """``(hits, misses)`` as ``/metricsz`` reports them."""
    memo = svc.metricsz()["cache"]["prepare_memo"]
    return memo["hits"], memo["misses"]


def post_raw(svc, route: str, data: bytes) -> tuple[int, bytes]:
    request = urllib.request.Request(
        f"{svc.url}{route}",
        data=data,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


@pytest.fixture()
def counted_prepare(monkeypatch):
    """Counts the pipeline's calls to `prepare_request`."""
    calls = []
    real = pipeline_module.prepare_request

    def counting(kind, payload, defaults=None):
        calls.append(kind)
        return real(kind, payload, defaults)

    monkeypatch.setattr(pipeline_module, "prepare_request", counting)
    return calls


class TestByteIdentity:
    @pytest.mark.parametrize("model", ["thread", "process"])
    def test_memo_on_matches_memo_off(self, model):
        on = AnalysisService(port=0, workers=2, worker_model=model)
        off = AnalysisService(
            port=0, workers=2, worker_model=model, cache_size=0
        )
        try:
            for kind, payload in IDENTITY_REQUESTS:
                plain = comparable(*off.process(kind, dict(payload)))
                # the second answer comes from a memo hit
                for _ in range(2):
                    memoized = comparable(*on.process(kind, dict(payload)))
                    assert memoized == plain, (
                        f"{model}: {kind} {payload} changed under the memo"
                    )
            hits, _ = memo_counts(on)
            assert hits > 0
            assert memo_counts(off) == (0, 0)
        finally:
            on.drain(timeout=15)
            off.drain(timeout=15)


class TestPipelineMemo:
    def test_repeat_skips_prepare_request(self, counted_prepare):
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 4)
        payload = {"program": PROGRAM, "analyzer": "direct"}
        first = pipeline.prepare("analyze", payload)
        second = pipeline.prepare("analyze", dict(payload))
        assert second is first
        assert counted_prepare == ["analyze"]
        counters = pipeline.metrics.snapshot()["counters"]
        assert counters["serve.prepare.memo.hits"] == 1
        assert counters["serve.prepare.memo.misses"] == 1

    def test_kind_is_part_of_the_key(self, counted_prepare):
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 4)
        payload = {"program": PROGRAM}
        analyze = pipeline.prepare("analyze", payload)
        run = pipeline.prepare("run", payload)
        assert (analyze.kind, run.kind) == ("analyze", "run")
        assert len(counted_prepare) == 2

    def test_cache_size_zero_prepares_every_time(self, counted_prepare):
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 0)
        payload = {"program": PROGRAM}
        for _ in range(3):
            pipeline.prepare("analyze", payload)
        assert len(counted_prepare) == 3
        counters = pipeline.metrics.snapshot()["counters"]
        assert "serve.prepare.memo.hits" not in counters
        assert "serve.prepare.memo.misses" not in counters

    def test_bounded_least_recently_used(self, counted_prepare):
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 2)
        bodies = [{"program": f"(add1 {n})"} for n in range(3)]
        pipeline.prepare("analyze", bodies[0])
        pipeline.prepare("analyze", bodies[1])
        pipeline.prepare("analyze", bodies[0])  # refresh: 1 is oldest
        pipeline.prepare("analyze", bodies[2])  # evicts 1
        assert len(counted_prepare) == 3
        pipeline.prepare("analyze", bodies[0])
        assert len(counted_prepare) == 3
        pipeline.prepare("analyze", bodies[1])
        assert len(counted_prepare) == 4

    def test_threads_share_the_memo_without_lost_updates(self):
        bodies = [{"program": f"(add1 {n})"} for n in range(6)]
        expected = [prepare_request("analyze", b).key for b in bodies]
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 4)
        rounds, workers = 40, 8
        wrong = []

        def worker(offset):
            for step in range(rounds):
                n = (offset + step) % len(bodies)
                if pipeline.prepare("analyze", bodies[n]).key != expected[n]:
                    wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(offset,))
                       for offset in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        counters = pipeline.metrics.snapshot()["counters"]
        assert (
            counters["serve.prepare.memo.hits"]
            + counters["serve.prepare.memo.misses"]
        ) == rounds * workers
        assert len(pipeline._memo) <= 4

    @pytest.mark.parametrize(
        "payload, code",
        [
            ({"program": "(oops"}, "parse_error"),
            ({"program": PROGRAM, "bogus": 1}, "bad_request"),
            ({"corpus": "no-such-program"}, "not_found"),
        ],
    )
    def test_a_bad_body_is_never_stored(
        self, counted_prepare, payload, code
    ):
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 4)
        messages = set()
        for _ in range(3):
            with pytest.raises(ServeError) as info:
                pipeline.prepare("analyze", dict(payload))
            assert info.value.code == code
            messages.add(str(info.value))
        assert len(messages) == 1
        assert len(counted_prepare) == 3
        counters = pipeline.metrics.snapshot()["counters"]
        assert "serve.prepare.memo.hits" not in counters
        assert counters["serve.prepare.memo.misses"] == 3

    def test_unencodable_body_takes_the_plain_path(self, counted_prepare):
        # A key `json.dumps` cannot sort: no memo key, so no probe.
        pipeline = RequestPipeline(ServiceDefaults(), Metrics(), 4)
        payload = {"program": PROGRAM, "assume": {"x": 1, 2: 3}}
        for _ in range(2):
            with pytest.raises(ServeError) as info:
                pipeline.prepare("analyze", payload)
            assert info.value.code == "bad_request"
        assert len(counted_prepare) == 2
        assert pipeline.metrics.snapshot()["counters"] == {}


@pytest.fixture()
def log_buffer():
    return io.StringIO()


@pytest.fixture()
def service(log_buffer):
    svc = AnalysisService(
        port=0,
        workers=2,
        queue_size=16,
        access_log=AccessLog(log_buffer, slow_threshold_s=0.0),
    )
    yield svc
    svc.drain(timeout=10)


def log_records(log_buffer):
    return [
        json.loads(line)
        for line in log_buffer.getvalue().splitlines()
        if line
    ]


class TestOverHttp:
    def test_errors_repeat_identically(self, service):
        for body in (b'{"program": "(oops"}', b'{"bogus": 1}'):
            replies = {post_raw(service, "/v1/analyze", body)
                       for _ in range(3)}
            assert len(replies) == 1
            ((status, _),) = replies
            assert status == 400
        assert memo_counts(service) == (0, 6)

    def test_key_order_and_json_whitespace_hit_the_memo(self, service):
        # The memo keys the decoded body, so the raw bytes' key order
        # and layout do not matter.
        first = post_raw(
            service, "/v1/analyze",
            json.dumps({"program": PROGRAM, "analyzer": "direct"}).encode(),
        )
        second = post_raw(
            service, "/v1/analyze",
            b'{ "analyzer" :  "direct",\n  "program": "'
            + PROGRAM.encode() + b'" }',
        )
        assert first == second
        assert memo_counts(service) == (1, 1)

    @pytest.mark.parametrize(
        "variant",
        [
            {"program": "(let  (a (if0 x 1 2))\n  (add1 a))",
             "analyzer": "semantic-cps"},
            {"program": "(let (a (if0 x 1 2)) ; a comment\n (add1 a))",
             "analyzer": "semantic-cps"},
            {"program": PROGRAM, "analyzer": "semantic"},  # alias
            {"program": "(let (a (if0 x 1 2)) (let (t (add1 a)) t))",
             "analyzer": "semantic-cps"},  # already A-normal
        ],
    )
    def test_variants_miss_the_memo_but_share_the_lru(
        self, service, variant
    ):
        base = {"program": PROGRAM, "analyzer": "semantic-cps"}
        first = service.process("analyze", base)
        second = service.process("analyze", variant)
        assert first == second
        assert memo_counts(service) == (0, 2)
        cache = service.metricsz()["cache"]
        assert (cache["hits"], cache["misses"]) == (1, 1)

    def test_term_hash_requests_keep_their_bodies(self, service):
        status, body = service.process(
            "analyze", {"program": PROGRAM, "analyzer": "direct"}
        )
        digest = json.loads(body)["term_hash"]
        for client_hash, not_modified in ((digest, True), ("0" * 64, False)):
            payload = {
                "program": PROGRAM, "analyzer": "direct",
                "term_hash": client_hash,
            }
            replies = [service.process("analyze", dict(payload))
                       for _ in range(2)]
            assert replies[0] == replies[1]
            answer = json.loads(replies[0][1])
            assert answer.get("not_modified", False) is not_modified
            if not not_modified:
                assert replies[0] == (status, body)
        hits, _ = memo_counts(service)
        assert hits == 2

    def test_server_timing_bodies_keep_their_shape(self, service):
        plain = service.process("analyze", {"program": PROGRAM})
        payload = {"program": PROGRAM, "server_timing": True}
        timed = [service.process("analyze", dict(payload))
                 for _ in range(2)]
        for status, body in timed:
            assert comparable(status, body)[:2] == plain
            timing = json.loads(body)["server_timing"]
            assert timing["cache"] == "hit"
            assert timing["prepare_s"] is not None
        assert memo_counts(service) == (1, 2)

    def test_hit_keeps_the_prepare_span_without_children(
        self, service, log_buffer
    ):
        payload = {"program": PROGRAM, "analyzer": "direct"}
        service.process("analyze", dict(payload))
        service.process("analyze", dict(payload))
        miss, hit = log_records(log_buffer)
        miss_spans = {span["name"] for span in miss["spans"]}
        hit_spans = {span["name"] for span in hit["spans"]}
        assert {"prepare", "prepare.parse", "prepare.normalize",
                "prepare.key"} <= miss_spans
        assert "prepare" in hit_spans
        assert not any(name.startswith("prepare.") for name in hit_spans)

    def test_access_log_request_is_the_same_on_a_hit(
        self, service, log_buffer
    ):
        payload = {"program": PROGRAM, "analyzer": "polyvariant", "k": 2,
                   "assume": {"x": 0}}
        service.process("analyze", dict(payload))
        service.process("analyze", dict(payload))
        miss, hit = log_records(log_buffer)
        assert (miss["cache"], hit["cache"]) == ("miss", "hit")
        assert hit["request"] == miss["request"]
        assert memo_counts(service) == (1, 1)

    def test_concurrent_first_posts_agree(self, service):
        body = json.dumps({
            "program": "(let (z (if0 y 3 4)) (add1 z))",
            "analyzer": "syntactic-cps",
        }).encode()
        barrier = threading.Barrier(8)
        replies = []

        def fire():
            barrier.wait()
            replies.append(post_raw(service, "/v1/analyze", body))

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(replies) == 8
        assert len(set(replies)) == 1
        assert replies[0][0] == 200
        hits, misses = memo_counts(service)
        assert hits + misses == 8
        assert misses >= 1


def test_process_mode_counts_each_prepare():
    # The dispatcher prepares a request to route it and the shard
    # prepares it again; each has its own memo, and /metricsz sums
    # the shards' counters into the dispatcher's.
    svc = AnalysisService(port=0, workers=2, worker_model="process")
    try:
        payload = {"program": PROGRAM, "analyzer": "direct"}
        first = svc.process("analyze", dict(payload))
        assert svc.process("analyze", dict(payload)) == first
        assert memo_counts(svc) == (2, 2)
    finally:
        svc.drain(timeout=15)
