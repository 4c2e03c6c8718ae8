"""Tests for `repro.incr.store`: persistence, schema versioning, gc,
cross-process safety, and crash recovery."""

import os
import signal
import sqlite3
import subprocess
import sys

from repro.incr.store import (
    KIND_RESPONSE,
    STORE_SCHEMA,
    IncrStore,
    describe,
    open_store,
    render_stats,
)


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            store.put("cfg", KIND_RESPONSE, "subj", "judg", "payload-1")
            assert store.get("cfg", KIND_RESPONSE, "subj", "judg") == "payload-1"
            assert store.stats.hits == 1
            assert store.stats.puts == 1

    def test_miss_counts(self, tmp_path):
        with IncrStore(str(tmp_path / "s.sqlite")) as store:
            assert store.get("cfg", KIND_RESPONSE, "absent", "-") is None
            assert store.stats.misses == 1

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            store.put("cfg", KIND_RESPONSE, "subj", "judg", "payload-2")
        with IncrStore(path) as store:
            assert store.get("cfg", KIND_RESPONSE, "subj", "judg") == "payload-2"

    def test_put_replace_idempotent(self, tmp_path):
        with IncrStore(str(tmp_path / "s.sqlite")) as store:
            store.put("cfg", KIND_RESPONSE, "s", "j", "v1")
            store.put("cfg", KIND_RESPONSE, "s", "j", "v1")
            assert store.summary()["entries"] == 1


class TestSchema:
    def test_schema_mismatch_starts_clean(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            store.put("cfg", KIND_RESPONSE, "s", "j", "old")
            generation = store.generation()
        # Forge a header from a different layout.
        db = sqlite3.connect(path)
        with db:
            db.execute(
                "UPDATE meta SET value=? WHERE key='schema'",
                (str(STORE_SCHEMA + 1),),
            )
        db.close()
        with IncrStore(path) as store:
            assert store.get("cfg", KIND_RESPONSE, "s", "j") is None
            # The wipe bumped the generation: volatile caches keyed on
            # it cannot serve pre-wipe bodies.
            assert store.generation() > generation

    def test_generation_bumps_on_gc(self, tmp_path):
        with IncrStore(str(tmp_path / "s.sqlite")) as store:
            before = store.generation()
            report = store.gc(max_bytes=0)
            assert report["generation"] == before + 1
            assert store.generation(refresh=True) == before + 1

    def test_cross_handle_generation_visible(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as a, IncrStore(path) as b:
            assert b.generation() == a.generation()
            a.gc(max_bytes=0)
            assert b.generation(refresh=True) == a.generation()


class TestGc:
    def test_gc_to_zero_clears(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            for i in range(10):
                store.put("cfg", KIND_RESPONSE, f"s{i}", "j", "x" * 100)
            # Rows of kinds "plan" and "sub", as stores written before
            # plan and sub-term summary persistence were removed still
            # hold them.
            for kind in ("anf", "cps"):
                store.put("plan/1/2/1", "plan", "subject", kind, "{}")
                store.put("3f" * 20, "sub", kind, "b2" * 20, "{}")
        with IncrStore(path) as store:
            by_kind = store.summary()["by_kind"]
            for kind in ("plan", "sub"):
                assert by_kind[kind] == {"entries": 2, "payload_bytes": 4}
            report = store.gc(max_bytes=0)
            assert report["evicted"] == 14
            assert report["bytes"] == 0
            assert store.summary()["entries"] == 0

    def test_gc_keeps_recently_used(self, tmp_path):
        with IncrStore(str(tmp_path / "s.sqlite")) as store:
            # 600 rows of 100 bytes; keep roughly half.  Eviction is
            # LRU in batches, so the survivors are the *newest* rows.
            for i in range(600):
                store.put("cfg", KIND_RESPONSE, f"s{i}", "j", "x" * 100)
            report = store.gc(max_bytes=30_000)
            assert report["bytes"] <= 30_000
            assert 0 < report["evicted"] < 600
            assert store.summary()["entries"] == 600 - report["evicted"]

    def test_gc_counts_runs(self, tmp_path):
        with IncrStore(str(tmp_path / "s.sqlite")) as store:
            store.gc(max_bytes=0)
            store.gc(max_bytes=0)
            assert store.summary()["gc_runs"] == 2


class TestOpenStore:
    def test_none_path_is_none(self):
        assert open_store(None) is None

    def test_unopenable_is_none(self, tmp_path):
        # A directory is not a sqlite file: open fails, returns None
        # (the serve layer then runs uncached instead of crashing).
        assert open_store(str(tmp_path)) is None

    def test_describe_and_render(self, tmp_path):
        path = str(tmp_path / "s.sqlite")
        with IncrStore(path) as store:
            store.put("cfg", KIND_RESPONSE, "s", "j", "payload")
        summary = describe(path)
        assert summary["entries"] == 1
        text = render_stats(summary)
        assert "entries 1" in text
        assert path in text


CRASH_SCRIPT = """
import os, sys
from repro.incr.store import IncrStore, KIND_RESPONSE

store = IncrStore(sys.argv[1])
for i in range(10_000):
    store.put("cfg", KIND_RESPONSE, f"crash{i}", "j", "x" * 200)
    if i == 500:
        print("ready", flush=True)
"""


class TestCrashRecovery:
    def test_sigkill_mid_write_leaves_store_usable(self, tmp_path):
        # Kill a writer process in the middle of its transaction
        # stream; the WAL journal must roll back cleanly and the file
        # must serve subsequent sessions.
        path = str(tmp_path / "s.sqlite")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-c", CRASH_SCRIPT, path],
            stdout=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline().strip() == b"ready"
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        with IncrStore(path) as store:
            # Whatever committed is intact; the handle works for both
            # reads and writes.
            entries = store.summary()["entries"]
            assert entries >= 500
            store.put("cfg", KIND_RESPONSE, "after", "j", "ok")
            assert store.get("cfg", KIND_RESPONSE, "after", "j") == "ok"
            assert store.get("cfg", KIND_RESPONSE, "crash0", "j") == "x" * 200
