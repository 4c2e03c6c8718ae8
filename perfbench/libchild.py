"""The library workloads' child interpreter.

Reads one job (JSON) on stdin: the sources, their free variables and
analyzer sets, and what to do.  Everything it knows about a program
comes from that job, so `setup_s`, `cpu_ms_per_op` and `peak_rss_mb`
cover `repro` alone.

Protocol on stdout: the line ``ready`` once set-up (import plus one
cold warm-up cycle) is done, then one JSON line with the results.
Modes:

- ``setup``: stop after ``ready``.
- ``time``: run ``cycles`` timed cycles; every op is one
  `repro.api.run_comparison` call, its time scaled to the machine's
  reference speed (calibrate.py).
- ``trace``: run ``cycles`` cycles in which every op runs untraced and
  then split into its layers' public functions under benchmark-side
  spans; then one pass of the plan compile functions.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import calibrate

#: a calibration burst follows at most this many ops ...
CHUNK = 10
#: ... or this many seconds of ops, whichever comes first
CHUNK_S = 0.02


def rss_peak_mb() -> float:
    """Peak resident set size (VmHWM) of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def render(results) -> str:
    """Canonical text of a list of `AnalysisResult` (answer + stats)."""
    return json.dumps([r.to_dict() for r in results], sort_keys=True,
                      ensure_ascii=False)


def digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def node_count(node) -> int:
    """AST nodes under ``node`` (frozen dataclasses with slots)."""
    count, stack = 0, [node]
    while stack:
        current = stack.pop()
        slots = getattr(type(current), "__slots__", None)
        if slots is None or not hasattr(current, "__dataclass_fields__"):
            continue
        count += 1
        for name in current.__dataclass_fields__:
            value = getattr(current, name)
            if isinstance(value, tuple):
                stack.extend(value)
            else:
                stack.append(value)
    return count


class Spans:
    """Benchmark-side spans, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.stack: list[int] = []

    def __call__(self, name: str, op):
        return _Span(self, name, op)


class _Span:
    __slots__ = ("spans", "name", "op", "index")

    def __init__(self, spans: Spans, name: str, op) -> None:
        self.spans, self.name, self.op = spans, name, op

    def __enter__(self):
        spans = self.spans
        self.index = len(spans.records)
        parent = spans.stack[-1] if spans.stack else None
        spans.records.append({"id": self.index, "name": self.name,
                              "parent": parent, "op": self.op,
                              "start": time.perf_counter(), "end": None})
        spans.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        self.spans.records[self.index]["end"] = time.perf_counter()
        self.spans.stack.pop()


def main() -> None:
    job = json.load(sys.stdin)
    clock = time.perf_counter
    started = clock()
    if job["cpu"] is not None:
        os.sched_setaffinity(0, {job["cpu"]})
    first = calibrate.sample()
    import_start = clock()
    from repro.api import run_comparison
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    lattice = Lattice(ConstPropDomain())
    top = lattice.of_num(lattice.domain.top)
    max_visits = job["max_visits"]
    ops = []
    for program in job["programs"]:
        kwargs = {"initial": {name: top for name in program["free"]},
                  "max_visits": max_visits}
        if program["analyzers"] is not None:
            kwargs["analyzers"] = program["analyzers"]
        if program["engine"] != "tree":
            kwargs["engine"] = program["engine"]
        ops.append((program["source"], kwargs))

    def run_op(index: int):
        source, kwargs = ops[index]
        return run_comparison(source, **kwargs)

    import_s = clock() - import_start
    # set-up is scaled piecewise by the bursts around each piece; the
    # bursts, and rendering the answers, are not set-up
    setup_s = import_s * calibrate.factor([first, calibrate.sample()])
    # the cold warm-up cycle: its answers are the reference every
    # later cycle must reproduce
    answers, errors = [None] * len(ops), {}
    for index, outcome, wall, _ in scaled_runs(range(len(ops)), run_op):
        setup_s += wall
        if isinstance(outcome, Exception):  # counted, not fatal
            errors[index] = f"{type(outcome).__name__}: {outcome}"
        else:
            answers[index] = render(outcome.results)
    # the interpreter's own start-up, before this process could time it
    print(f"ready {started} {calibrate.factor([first])} {setup_s}",
          flush=True)
    if job["mode"] == "setup":
        return
    reference = [None if text is None else digest(text) for text in answers]
    out = {"answers": answers, "errors": errors}
    if job["mode"] == "time":
        out.update(timed_cycles(run_op, len(ops), job["cycles"], reference,
                                errors))
    else:
        out.update(traced_run(job, ops, run_op, reference, errors))
    out["peak_rss_mb"] = rss_peak_mb()
    print(json.dumps(out), flush=True)


def scaled_runs(indices, run_op):
    """Run ops in order, yielding ``(index, report or exception, wall
    seconds, CPU seconds)`` with both times scaled to the reference
    speed by the calibration bursts on either side of their chunk."""
    clock, cpu = time.perf_counter, time.process_time
    pending = []
    before = calibrate.sample()
    chunk_start = clock()
    for index in indices:
        w0, p0 = clock(), cpu()
        try:
            outcome = run_op(index)
        except Exception as exc:  # the caller counts it as failed
            outcome = exc
        pending.append((index, outcome, clock() - w0, cpu() - p0))
        if len(pending) == CHUNK or clock() - chunk_start >= CHUNK_S:
            after = calibrate.sample()
            scale = calibrate.factor([before, after])
            for index, outcome, wall, used in pending:
                yield index, outcome, wall * scale, used * scale
            pending, before, chunk_start = [], after, clock()
    if pending:
        scale = calibrate.factor([before, calibrate.sample()])
        for index, outcome, wall, used in pending:
            yield index, outcome, wall * scale, used * scale


def timed_cycles(run_op, count: int, cycles: int, reference, errors) -> dict:
    """``cycles`` passes over every op, each timed on its own and
    scaled to the reference speed.  Keeps each op's median scaled wall
    and CPU time, and checks its answer (outside the timed region)
    against the warm-up's."""
    walls: list[list[float]] = [[] for _ in range(count)]
    cpus: list[list[float]] = [[] for _ in range(count)]
    mismatched: dict[int, str] = {}
    cycle_wall = []
    for _ in range(cycles):
        start = time.perf_counter()
        for index, outcome, wall, used in scaled_runs(range(count), run_op):
            if isinstance(outcome, Exception):
                errors.setdefault(
                    index, f"{type(outcome).__name__}: {outcome}")
                continue
            walls[index].append(wall)
            cpus[index].append(used)
            if digest(render(outcome.results)) != reference[index]:
                mismatched.setdefault(index, "answer differs from warm-up")
        cycle_wall.append(time.perf_counter() - start)
    return {"op_wall_s": [statistics.median(w) if w else None for w in walls],
            "op_cpu_s": [statistics.median(c) if c else None for c in cpus],
            "mismatched": mismatched, "cycle_wall_s": cycle_wall}


def traced_run(job, ops, run_op, reference, errors) -> dict:
    """Each op untraced, then split by layer under spans; then one
    pass of the plan compilers."""
    from repro.analysis.delta import delta_store
    from repro.analysis.direct import analyze_direct
    from repro.analysis.pushdown import analyze_pushdown
    from repro.analysis.semantic_cps import analyze_semantic_cps
    from repro.analysis.syntactic_cps import analyze_syntactic_cps
    from repro.anf import is_anf, normalize
    from repro.cps import cps_transform
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain
    from repro.domains.store import AbsStore
    from repro.lang.parser import parse

    clock = time.perf_counter
    best_wall = [float("inf")] * len(ops)
    before = _plan_cache_counts()
    spans = Spans()
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    default = job["default_analyzers"]
    counts: dict[str, int] = {}
    mismatched: dict[int, str] = {}

    def count(name: str, value: int) -> None:
        counts[name] = counts.get(name, 0) + value

    for cycle in range(job["cycles"]):
        for index, (source, kwargs) in enumerate(ops):
            if index in errors:
                continue
            # the untraced op right before its traced twin, so both
            # see the vCPU at the same speed
            start = clock()
            run_op(index)
            best_wall[index] = min(best_wall[index], clock() - start)
            first = cycle == 0
            engine = kwargs.get("engine", "tree")
            analyzers = kwargs.get("analyzers", default)
            layer = "analysis" if engine == "tree" else "plan"
            results = []
            with spans("op", index):
                with spans("lang.parse", index):
                    term = parse(source)
                with spans("anf.normalize", index):
                    if not is_anf(term):
                        term = normalize(term)
                with spans("cps.transform", index):
                    cterm = cps_transform(term)
                initial = kwargs["initial"]
                cps_initial = dict(delta_store(
                    AbsStore(lattice, initial)).items())
                common = {"max_visits": kwargs["max_visits"]}
                if engine != "tree":
                    common["engine"] = engine
                for name in default:
                    if name not in analyzers:
                        continue
                    with spans(f"{layer}.{name}", index):
                        if name == "direct":
                            result = analyze_direct(
                                term, domain, initial=initial, **common)
                        elif name == "semantic-cps":
                            result = analyze_semantic_cps(
                                term, domain, initial=initial, **common)
                        elif name == "syntactic-cps":
                            result = analyze_syntactic_cps(
                                cterm, domain, initial=cps_initial,
                                **common)
                        else:
                            result = analyze_pushdown(
                                term, domain, initial=initial, **common)
                    results.append(result)
                    if first:
                        stats = result.stats
                        count(f"{layer}.{name}.visits", stats.visits)
                        count(f"{layer}.{name}.joins", stats.joins)
                        count(f"{layer}.{name}.max_store_size",
                              stats.max_store_size)
            if first:
                count("lang.nodes", node_count(parse(source)))
                count("anf.nodes_out", node_count(term))
                count("cps.nodes_out", node_count(cterm))
                if digest(render(results)) != reference[index]:
                    mismatched[index] = ("layer-by-layer answer differs"
                                         " from run_comparison")
    after = _plan_cache_counts()
    # the compile functions on their own, outside any op
    compilers = _compilers()
    for index, (source, kwargs) in enumerate(ops):
        if (compilers is None or index in errors
                or kwargs.get("engine", "tree") == "tree"):
            continue
        compile_anf_plan, compile_cps_plan = compilers
        term = parse(source)
        if not is_anf(term):
            term = normalize(term)
        cterm = None
        if "syntactic-cps" in kwargs.get("analyzers", default):
            cterm = cps_transform(term)
        with spans("plan.compile", index):
            compile_anf_plan(term)
            count("plan.compiles", 1)
            if cterm is not None:
                compile_cps_plan(cterm)
                count("plan.compiles", 1)
    plan = None
    if before is not None and after is not None:
        plan = {key: after[key] - before[key] for key in ("hits", "misses")}
    return {"op_wall_s": best_wall, "mismatched": mismatched,
            "spans": spans.records, "counts": counts, "plan_cache": plan}


def _compilers():
    """The plan compile functions, or None if this version has none."""
    try:
        from repro.machine.absplan import compile_anf_plan, compile_cps_plan
    except ImportError:
        return None
    return compile_anf_plan, compile_cps_plan


def _plan_cache_counts() -> dict | None:
    """Hits and misses of the process-wide plan cache, or None if this
    version has no such counters.  Read in the traced run only."""
    try:
        from repro.machine.absplan import PLAN_CACHE
        snapshot = PLAN_CACHE.snapshot()
        return {key: snapshot[key] for key in ("hits", "misses")}
    except (ImportError, AttributeError, KeyError):
        return None


if __name__ == "__main__":
    main()
