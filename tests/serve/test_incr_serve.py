"""The serve-layer wiring of `repro.incr`: term_hash echoing, the
If-None-Match-style ``not_modified`` fast path, the cross-process
persistent response tier, store stats in the observability endpoints,
and generation-keyed invalidation of the in-memory LRU."""

import json

import pytest

from repro.incr.hash import term_hash
from repro.serve.client import RetryPolicy, ServiceClient
from repro.serve.jobs import ServiceDefaults
from repro.serve.server import AnalysisService


@pytest.fixture()
def store_path(tmp_path):
    return str(tmp_path / "incr.sqlite")


def make_service(store_path, **kwargs):
    return AnalysisService(
        port=0,
        workers=2,
        queue_size=8,
        incr_store=store_path,
        **kwargs,
    )


def make_client(service):
    return ServiceClient(
        service.url, policy=RetryPolicy(retries=3, base_delay=0.02)
    )


class TestTermHash:
    def test_analyze_echoes_term_hash(self, store_path):
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            body = client.analyze(corpus="even-odd", analyzer="direct")
            assert body["ok"] is True
            from repro.corpus import PROGRAMS

            expected = term_hash(PROGRAMS["even-odd"].term)
            assert body["term_hash"] == expected
        finally:
            svc.drain(timeout=10)

    def test_not_modified_fast_path(self, store_path):
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            first = client.analyze(corpus="even-odd", analyzer="direct")
            etag = first["term_hash"]
            second = client.analyze(
                corpus="even-odd", analyzer="direct", term_hash=etag
            )
            assert second == {
                "ok": True,
                "kind": "analyze",
                "analyzer": "direct",
                "not_modified": True,
                "term_hash": etag,
            }
        finally:
            svc.drain(timeout=10)

    def test_stale_term_hash_returns_full_body(self, store_path):
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            reference = client.analyze(corpus="even-odd", analyzer="direct")
            body = client.analyze(
                corpus="even-odd", analyzer="direct", term_hash="0" * 40
            )
            assert "not_modified" not in body
            assert body == reference
        finally:
            svc.drain(timeout=10)

    def test_alpha_variant_program_matches(self, store_path):
        # The ETag is alpha-invariant: a renamed-binder source hits
        # the fast path against the original's hash.
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            original = "(let (x 1) (+ x 2))"
            renamed = "(let (y 1) (+ y 2))"
            first = client.analyze(program=original, analyzer="direct")
            second = client.analyze(
                program=renamed,
                analyzer="direct",
                term_hash=first["term_hash"],
            )
            assert second["not_modified"] is True
        finally:
            svc.drain(timeout=10)


class TestPersistentTier:
    def test_cross_instance_response_hit(self, store_path):
        # Two sequential service instances share one store file: the
        # second serves the first's response byte-identically without
        # re-analysis.
        svc1 = make_service(store_path)
        try:
            client = make_client(svc1)
            reference = client.analyze(corpus="even-odd", analyzer="direct")
        finally:
            svc1.drain(timeout=10)
        svc2 = make_service(store_path)
        try:
            client = make_client(svc2)
            body = client.analyze(corpus="even-odd", analyzer="direct")
            assert body == reference
            metrics = client.metricsz()
            assert metrics["incr_store"]["hits"] > 0
        finally:
            svc2.drain(timeout=10)


class TestObservability:
    def test_healthz_reports_store(self, store_path):
        svc = make_service(store_path)
        try:
            health = make_client(svc).healthz()
            assert health["incr_store"]["path"] == store_path
            assert health["incr_store"]["entries"] >= 0
        finally:
            svc.drain(timeout=10)

    def test_metricsz_reports_store_block(self, store_path):
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            client.analyze(corpus="constants", analyzer="direct")
            block = client.metricsz()["incr_store"]
            for field in (
                "path", "entries", "bytes", "generation",
                "hits", "misses", "puts", "errors",
            ):
                assert field in block
            assert "stale_rejections" not in block
            assert block["puts"] > 0
        finally:
            svc.drain(timeout=10)

    def test_no_store_reports_null(self):
        svc = AnalysisService(port=0, workers=1, queue_size=4)
        try:
            client = make_client(svc)
            assert client.healthz()["incr_store"] is None
            assert client.metricsz()["incr_store"] is None
        finally:
            svc.drain(timeout=10)

    def test_prometheus_store_gauges(self, store_path):
        import urllib.request

        svc = make_service(store_path)
        try:
            client = make_client(svc)
            client.analyze(corpus="constants", analyzer="direct")
            with urllib.request.urlopen(
                f"{svc.url}/metricsz?format=prom"
            ) as response:
                text = response.read().decode()
            assert "serve_incr_store_entries" in text
            assert "serve_incr_store_puts" in text
            assert "stale_rejections" not in text
        finally:
            svc.drain(timeout=10)


class TestGenerationInvalidation:
    def test_gc_orphans_lru_entries(self, store_path):
        # A gc bumps the store generation; the in-memory response LRU
        # keys fold it in, so post-gc requests miss the LRU (and the
        # evicted persistent rows) and recompute.
        from repro.incr.store import IncrStore

        svc = make_service(store_path)
        try:
            client = make_client(svc)
            reference = client.analyze(corpus="even-odd", analyzer="direct")
            lru_hits = svc.pipeline.cache.hits
            client.analyze(corpus="even-odd", analyzer="direct")
            assert svc.pipeline.cache.hits == lru_hits + 1
            with IncrStore(store_path) as admin:
                admin.gc(max_bytes=0)
            body = client.analyze(corpus="even-odd", analyzer="direct")
            # Same bytes (recomputed), but not from the pre-gc LRU key.
            assert body == reference
            assert svc.pipeline.cache.misses > 0
        finally:
            svc.drain(timeout=10)


class TestTierLifetime:
    def test_tier_is_built_once_per_service(self, store_path, monkeypatch):
        from repro.serve import pipeline

        built = []

        class CountingTier(pipeline.PersistentResponseTier):
            def __init__(self, store):
                built.append(store)
                super().__init__(store)

        monkeypatch.setattr(pipeline, "PersistentResponseTier", CountingTier)
        svc = make_service(store_path)
        try:
            client = make_client(svc)
            for corpus in ("constants", "even-odd", "constants"):
                client.analyze(corpus=corpus, analyzer="direct")
        finally:
            svc.drain(timeout=10)
        assert len(built) == 1


class TestProcessModel:
    def test_sharded_store_stats_aggregate(self, store_path):
        svc = AnalysisService(
            port=0,
            workers=2,
            worker_model="process",
            queue_size=16,
            incr_store=store_path,
        )
        try:
            client = make_client(svc)
            client.analyze(corpus="even-odd", analyzer="semantic-cps")
            health = client.healthz()
            assert health["incr_store"]["path"] == store_path
            metrics = client.metricsz()
            block = metrics["incr_store"]
            assert block["puts"] > 0
            # Per-shard stats are exposed too.
            shard_blocks = [
                shard.get("incr_store")
                for shard in metrics["shards"]
            ]
            assert any(b and b["puts"] > 0 for b in shard_blocks)
            assert "stale_rejections" not in block
        finally:
            svc.drain(timeout=15)
