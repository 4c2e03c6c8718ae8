"""End-to-end figures shared by the library and service workloads."""

from __future__ import annotations

import math
import os
import statistics

#: set-ups per timed run; `setup_s` is their median
SETUPS = 3
#: candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 80.0, 75.0)


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least ten samples beyond
    it: (percentile, value, samples beyond)."""
    ordered = sorted(values)
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10:
            return p, value, beyond
    return 50.0, percentile(ordered, 50.0), len(ordered) // 2


def latency_metrics(op_s: list[float], concurrency: int) -> tuple[dict, dict]:
    """End-to-end figures from each op's median time over the run's
    cycles, scaled to the reference speed (calibrate.py).  ``ops_per_s``
    is a closed loop's throughput at those times: ``concurrency``
    clients over the mean op latency."""
    ms = [s * 1000.0 for s in op_s]
    p, value, beyond = tail(ms)
    return {
        "ops_per_s": concurrency * len(op_s) / sum(op_s),
        "latency_p50_ms": statistics.median(ms),
        "latency_tail_ms": value,
    }, {"percentile": p, "beyond": beyond, "samples": len(ms)}


def src_env() -> dict:
    """The environment for a child that imports `repro` from `src/`."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
