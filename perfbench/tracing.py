"""Per-layer metrics of the traced run, and their table.

Library workloads: the child records one span per layer call (name,
start, end, parent, op id) around `repro`'s public functions; times
here are each op's best over the traced cycles, averaged over ops,
and counts are exact totals over one cycle.  Traced-run times are not
scaled to the reference speed: they attribute an op's time to layers,
and the overhead compares neighbours run at the same moment.  serve-zipf fills the
``serve.*`` names from the responses' ``server_timing`` and
``/metricsz`` (see servebench.py).

A layer a workload does not run reports 0.  A counter the program no
longer exposes reports ``null`` (absent) instead of failing the run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict

TREE = ("direct", "semantic-cps", "syntactic-cps", "pushdown")
PLAN = ("direct", "semantic-cps", "syntactic-cps")
STATS = (("run_ms", "ms"), ("visits", "count"), ("joins", "count"),
         ("max_store_size", "count"), ("us_per_visit", "us"))

PER_LAYER: dict[str, str] = {
    "lang.parse_us": "us", "lang.nodes": "count",
    "anf.normalize_us": "us", "anf.nodes_out": "count",
    "cps.transform_us": "us", "cps.nodes_out": "count",
    **{f"analysis.{a}.{s}": u for a in TREE for s, u in STATS},
    "api.residual_ms": "ms",
    "plan.compile_us": "us", "plan.compiles": "count",
    **{f"plan.{a}.{s}": u for a in PLAN for s, u in STATS},
    "plan.cache_hit_share": "ratio",
    "serve.transport_ms": "ms", "serve.server_residual_ms": "ms",
    "serve.execute_ms": "ms", "serve.plan_compile_ms": "ms",
    "serve.serialize_us": "us", "serve.cache.hit_share": "ratio",
    "serve.cache.evictions": "count", "serve.hit_latency_ms": "ms",
    "serve.miss_latency_ms": "ms", "serve.queue_wait_ms": "ms",
    "trace.overhead_ms_per_op": "ms",
}


def zero_layers() -> dict:
    return {name: 0 for name in PER_LAYER}


def self_times(spans: list[dict], cycles: int) -> dict[str, float]:
    """Each span name's self time (duration minus its children's),
    in ms per cycle."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"] - child_time[span["id"]]
        totals[span["name"]] += own
    return {name: 1000.0 * total / cycles for name, total in totals.items()}


def library_layers(out: dict, good: list[int],
                   untraced_best: list[float]) -> dict:
    """Per-layer metrics of a library workload's traced run."""
    layers = zero_layers()
    best: dict[tuple[str, int], float] = {}
    compile_time, compiled = 0.0, set()
    for span in out["spans"]:
        duration = span["end"] - span["start"]
        if span["name"] == "plan.compile":
            compile_time += duration
            compiled.add(span["op"])
            continue
        key = (span["name"], span["op"])
        if duration < best.get(key, float("inf")):
            best[key] = duration
    by_layer: dict[str, list[float]] = defaultdict(list)
    for (name, op), duration in best.items():
        by_layer[name].append(duration)
    ops = len(good)

    def mean(name: str) -> float:
        values = by_layer.get(name, [])
        return sum(values) / len(values) if values else 0.0

    layers["lang.parse_us"] = 1e6 * mean("lang.parse")
    layers["anf.normalize_us"] = 1e6 * mean("anf.normalize")
    layers["cps.transform_us"] = 1e6 * mean("cps.transform")
    counts = out["counts"]
    for name in ("lang.nodes", "anf.nodes_out", "cps.nodes_out",
                 "plan.compiles"):
        layers[name] = counts.get(name, 0)
    for layer, analyzers in (("analysis", TREE), ("plan", PLAN)):
        for analyzer in analyzers:
            span = f"{layer}.{analyzer}"
            runs = by_layer.get(span, [])
            visits = counts.get(f"{span}.visits", 0)
            layers[f"{span}.run_ms"] = 1e3 * mean(span)
            layers[f"{span}.us_per_visit"] = (
                1e6 * sum(runs) / visits if visits else 0)
            for stat in ("visits", "joins", "max_store_size"):
                layers[f"{span}.{stat}"] = counts.get(f"{span}.{stat}", 0)
    # run_comparison minus its parts, per op
    index = {op: i for i, op in enumerate(good)}
    parts: dict[int, float] = defaultdict(float)
    for (name, op), duration in best.items():
        if name != "op" and op in index:
            parts[op] += duration
    residual = [untraced_best[index[op]] - parts[op] for op in good]
    layers["api.residual_ms"] = 1e3 * sum(residual) / ops
    overhead = [best[("op", op)] - untraced_best[index[op]] for op in good
                if ("op", op) in best]
    layers["trace.overhead_ms_per_op"] = (
        1e3 * sum(overhead) / len(overhead) if overhead else 0)
    if compiled:
        layers["plan.compile_us"] = 1e6 * compile_time / len(compiled)
    plan = out["plan_cache"]
    if plan is None:
        layers["plan.cache_hit_share"] = None
    elif plan["hits"] + plan["misses"]:
        layers["plan.cache_hit_share"] = plan["hits"] / (
            plan["hits"] + plan["misses"])
    return layers


def print_layers(layers: dict, own: dict[str, float]) -> None:
    """The per-layer table: metric, value, unit (absent = null)."""
    print(f"  {'per-layer metric':34} {'value':>14}  unit")
    for name, unit in PER_LAYER.items():
        value = layers.get(name)
        shown = "absent" if value is None else f"{value:14.4f}"
        print(f"  {name:34} {shown:>14}  {unit}")
    if own:
        print(f"  {'span self time':34} {'ms/cycle':>14}")
        for name, ms in sorted(own.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34} {ms:14.3f}")


def serve_layers(sequence, entries, traced_runs, untraced, good,
                 before, after) -> tuple[dict, list[dict], dict]:
    """Per-layer metrics of serve-zipf from each traced response's
    ``server_timing`` and two ``/metricsz`` reads.  ``untraced`` holds
    each good position's median plain latency."""
    layers = zero_layers()
    spans, records = [], []
    for cycle, run in enumerate(traced_runs):
        for position in good:
            timing = json.loads(run["bodies"][position]).get("server_timing")
            if timing is None:
                continue
            stages = {name: timing.get(name) or 0.0 for name in (
                "total_s", "queue_wait_s", "plan_compile_s", "analyze_s",
                "serialize_s")}
            latency = run["latency"][position]
            record = {"position": position, "cache": timing.get("cache"),
                      "latency": latency, **stages}
            records.append(record)
            spans.append({
                "id": len(spans), "name": "serve.request", "parent": None,
                "op": position, "cycle": cycle,
                "route": entries[sequence[position]][0],
                "start": run["started"][position],
                "end": run["started"][position] + latency,
                "server_timing": timing})
    if not records:
        return layers, spans, {}
    misses = [r for r in records if r["cache"] == "miss"]
    hits = [r for r in records if r["cache"] == "hit"]

    def median(rows, key) -> float:
        values = [key(r) for r in rows]
        return statistics.median(values) if values else 0.0

    def residual(r) -> float:
        return (r["total_s"] - r["queue_wait_s"] - r["analyze_s"]
                - r["serialize_s"])

    layers["serve.transport_ms"] = 1e3 * median(
        records, lambda r: r["latency"] - r["total_s"])
    layers["serve.server_residual_ms"] = 1e3 * median(records, residual)
    layers["serve.execute_ms"] = 1e3 * median(misses, lambda r: r["analyze_s"])
    layers["serve.plan_compile_ms"] = 1e3 * (
        sum(r["plan_compile_s"] for r in misses) / len(misses)
        if misses else 0.0)
    layers["serve.serialize_us"] = 1e6 * median(
        misses, lambda r: r["serialize_s"])
    layers["serve.queue_wait_ms"] = 1e3 * median(
        misses, lambda r: r["queue_wait_s"])
    layers["serve.cache.hit_share"] = len(hits) / len(records)
    layers["serve.hit_latency_ms"] = 1e3 * median(hits, lambda r: r["latency"])
    layers["serve.miss_latency_ms"] = 1e3 * median(
        misses, lambda r: r["latency"])
    try:
        layers["serve.cache.evictions"] = (after["cache"]["evictions"]
                                           - before["cache"]["evictions"])
    except (KeyError, TypeError):
        layers["serve.cache.evictions"] = None  # absent
    traced: dict[int, list[float]] = defaultdict(list)
    for r in records:
        traced[r["position"]].append(r["latency"])
    overhead = [statistics.median(traced[p]) - plain
                for p, plain in zip(good, untraced) if p in traced]
    layers["trace.overhead_ms_per_op"] = 1e3 * sum(overhead) / len(overhead)
    cycles = len(traced_runs)
    own = {
        "client+transport": sum(r["latency"] - r["total_s"] for r in records),
        "server.prepare+cache": sum(residual(r) for r in records),
        "queue.wait": sum(r["queue_wait_s"] for r in records),
        "execute": sum(r["analyze_s"] for r in records),
        "serialize": sum(r["serialize_s"] for r in records),
    }
    return layers, spans, {k: 1e3 * v / cycles for k, v in own.items()}
