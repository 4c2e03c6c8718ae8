"""Tests for the ``repro cachectl`` store-administration command."""

import json

import pytest

from repro.cli import main
from repro.incr.store import KIND_RESPONSE, STORE_ENV, IncrStore


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def store(tmp_path):
    return str(tmp_path / "incr.sqlite")


class TestPath:
    def test_explicit_store(self, capsys, store):
        code, out, _ = run_cli(capsys, "cachectl", "path", "--store", store)
        assert code == 0
        assert out.strip() == store

    def test_env_override(self, capsys, store, monkeypatch):
        monkeypatch.setenv(STORE_ENV, store)
        code, out, _ = run_cli(capsys, "cachectl", "path")
        assert code == 0
        assert out.strip() == store


def _fill(store, rows=3):
    """Write response rows the way ``repro serve --incr-store`` does."""
    with IncrStore(store) as handle:
        for i in range(rows):
            handle.put("resp/test", KIND_RESPONSE, f"key{i}", "-", "{}")


class TestStatsGc:
    def test_full_cycle(self, capsys, store):
        _fill(store)
        code, out, _ = run_cli(
            capsys, "cachectl", "stats", "--store", store, "--json"
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] == 3
        assert stats["by_kind"][KIND_RESPONSE]["entries"] == 3

        code, out, _ = run_cli(
            capsys,
            "cachectl", "gc", "--store", store, "--max-bytes", "0",
            "--json",
        )
        assert code == 0
        report = json.loads(out)
        assert report["evicted"] == 3
        assert report["bytes"] == 0

        code, out, _ = run_cli(
            capsys, "cachectl", "stats", "--store", store, "--json"
        )
        assert json.loads(out)["entries"] == 0

    def test_stats_human_readable(self, capsys, store):
        _fill(store)
        code, out, _ = run_cli(capsys, "cachectl", "stats", "--store", store)
        assert code == 0
        assert "schema" in out and "entries 3" in out

    def test_gc_requires_max_bytes(self, capsys, store):
        with pytest.raises(SystemExit):
            run_cli(capsys, "cachectl", "gc", "--store", store)


def test_help_lists_three_actions(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cachectl", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{stats,gc,path}" in out
    assert "warm" not in out
    for flag in ("--corpus", "--analyzer", "--domain"):
        assert flag not in out
