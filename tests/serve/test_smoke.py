"""The CI smoke harness, run as a test: real subprocess, real SIGTERM."""

import sys

import pytest

from repro.serve.smoke import main


@pytest.mark.skipif(
    sys.platform == "win32", reason="SIGTERM drain is POSIX-only"
)
def test_smoke_harness_end_to_end(capsys):
    assert main() == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out


@pytest.mark.skipif(
    sys.platform == "win32", reason="SIGTERM drain is POSIX-only"
)
def test_smoke_harness_under_the_process_worker_model(capsys):
    assert main(["--worker-model", "process"]) == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out
    assert '"worker_model": "process"' in out
