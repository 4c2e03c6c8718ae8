"""The `repro.perf` regression benchmark (``python -m repro bench``).

Times representative workloads with the eval cache off and on, checks the
cached answers are identical to the uncached ones, and writes the
result as ``BENCH_perf.json`` (schema ``repro.perf.bench/10``).  The
CI smoke job runs ``--quick`` and fails on a malformed payload or on
any cached/uncached divergence.

Timing discipline: every workload is repeated ``repeat`` times (a
fresh analyzer per repetition, only ``.run()`` inside the timed
region) and the **minimum** wall time is reported — the minimum is
the least-noise estimator on a busy machine, since scheduling and
allocator interference only ever add time.

Workloads:

- every non-heavy corpus program (semantic-CPS analyzer — the one the
  eval cache targets);
- the Section 6.2 blowup families (``conditional-chain``,
  ``call-site-chain``, and ``top-conditional-chain``, whose 2^k
  duplicated paths carry identical stores so the eval cache collapses
  them to O(k) — the headline speedup);
- the polyvariant analyzer on the recursive corpus programs;
- the ``engine`` section: compiled-plan vs tree-walking analyzers
  (`repro.analysis.engine`) on the large workloads, with the one-time
  plan compile cost reported separately from the per-run time (the
  compile is amortized across runs by the plan cache);
- the ``parallel`` section: the survey runner's two largest
  populations serial vs ``--jobs N`` on the persistent warmed worker
  pool (`repro.perf.pool`), with bit-identical aggregates enforced
  always and the speedup floor enforced only on machines with enough
  CPUs (``enforced``/``cpus`` make the gate honest on 1-CPU boxes);
- the ``pushdown`` section: the summary-based pushdown analyzer vs
  the direct analyzer on the corpus rows — per-row precision verdict
  (the validator fails if the pushdown answer is ever *less* precise
  than direct's), visits, and walls.  This is the Theorem 5.1 story
  in benchmark form: exact call/return matching buys precision, the
  row data shows what it costs in work.

Workloads whose uncached wall time is under a millisecond are flagged
``noise_exempt``: their speedup ratios are scheduler noise, and
downstream gating (CI comparisons, the report) must not fail on them.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Callable

from repro.analysis.registry import analyzer_class, check_engine

SCHEMA = "repro.perf.bench/10"

#: Workloads faster than this (uncached) are too small to time: their
#: speedup ratios are dominated by scheduler jitter, so they carry
#: ``noise_exempt: true`` and are excluded from ratio gating.
NOISE_FLOOR_S = 1e-3

#: A parallel survey leg whose *serial* wall is under this has nothing
#: worth parallelizing; its speedup is exempt from the floor.
PARALLEL_NOISE_FLOOR_S = 0.05

#: Fields every workload entry must carry (validation contract).
_RUN_FIELDS = ("wall_s", "visits")
_CACHED_FIELDS = _RUN_FIELDS + (
    "eval_cache_hits",
    "eval_cache_rejects",
    "eval_cache_hit_rate",
)
_ENGINE_TREE_FIELDS = ("wall_s", "visits")
_ENGINE_PLAN_FIELDS = ("compile_s", "run_s", "visits")


def _timed(
    make: Callable[[], Any], repeat: int
) -> tuple[Any, Any, float]:
    """Build a fresh analyzer per repetition, time only ``.run()``,
    and return ``(analyzer, result, min_seconds)``."""
    best: tuple[Any, Any, float] | None = None
    for _ in range(max(1, repeat)):
        analyzer = make()
        start = time.perf_counter()
        result = analyzer.run()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[2]:
            best = (analyzer, result, elapsed)
    return best


def _min_seconds(thunk: Callable[[], Any], repeat: int) -> float:
    """Minimum wall time of ``thunk`` over ``repeat`` repetitions."""
    best: float | None = None
    for _ in range(max(1, repeat)):
        start = time.perf_counter()
        thunk()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _answer_of(result: Any) -> Any:
    """A comparable answer from either result flavor."""
    if hasattr(result, "answer"):
        return result.answer
    # PolyvariantResult: compare the collapsed monovariant view.
    return (result.value, result.collapse().answer)


def _workload(
    name: str,
    analyzer_name: str,
    make: Callable[[bool], Any],
    repeat: int,
) -> dict:
    """Run one workload with the eval cache off then on."""
    an_off, res_off, wall_off = _timed(lambda: make(False), repeat)
    an_on, res_on, wall_on = _timed(lambda: make(True), repeat)
    perf = an_on.perf
    return {
        "name": name,
        "analyzer": analyzer_name,
        "uncached": {
            "wall_s": wall_off,
            "visits": an_off.stats.visits,
        },
        "cached": {
            "wall_s": wall_on,
            "visits": an_on.stats.visits,
            "eval_cache_hits": perf.eval_cache_hits,
            "eval_cache_rejects": perf.eval_cache_rejects,
            "eval_cache_hit_rate": perf.eval_cache_hit_rate,
        },
        "speedup": wall_off / wall_on if wall_on > 0 else 0.0,
        "noise_exempt": wall_off < NOISE_FLOOR_S,
        "answers_equal": _answer_of(res_off) == _answer_of(res_on),
    }


def _corpus_workloads(quick: bool, repeat: int, engine: str) -> list[dict]:
    from repro.corpus import PROGRAMS
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    cls = analyzer_class("semantic-cps", engine)
    lattice = Lattice(ConstPropDomain())
    names = list(PROGRAMS)
    if quick:
        names = [n for n in names if n in ("factorial", "even-odd", "church-pairs")]
    entries = []
    for name in names:
        program = PROGRAMS[name]
        if program.heavy:
            continue
        initial = program.initial_for(lattice)
        entries.append(
            _workload(
                f"corpus/{name}",
                "semantic-cps",
                lambda cache, t=program.term, i=initial: cls(
                    t, initial=i, loop_mode="top", cache=cache
                ),
                repeat,
            )
        )
    return entries


def _family_workloads(quick: bool, repeat: int, engine: str) -> list[dict]:
    from repro.corpus import (
        call_site_chain,
        conditional_chain,
        top_conditional_chain,
    )
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    cls = analyzer_class("semantic-cps", engine)
    lattice = Lattice(ConstPropDomain())
    families = [
        (conditional_chain, 8 if quick else 12),
        (call_site_chain, 6 if quick else 8),
        (top_conditional_chain, 12 if quick else 16),
    ]
    entries = []
    for family, k in families:
        program = family(k)
        initial = program.initial_for(lattice)
        entries.append(
            _workload(
                f"family/{program.name}",
                "semantic-cps",
                lambda cache, t=program.term, i=initial: cls(
                    t, initial=i, cache=cache
                ),
                repeat,
            )
        )
    return entries


def _polyvariant_workloads(
    quick: bool, repeat: int, engine: str
) -> list[dict]:
    from repro.corpus import PROGRAMS
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    cls = analyzer_class("polyvariant", engine)
    lattice = Lattice(ConstPropDomain())
    names = ("factorial",) if quick else ("factorial", "even-odd", "mini-evaluator")
    entries = []
    for name in names:
        program = PROGRAMS[name]
        initial = program.initial_for(lattice)
        entries.append(
            _workload(
                f"polyvariant/{name}",
                "direct-kcfa",
                lambda cache, t=program.term, i=initial: cls(
                    t, initial=i, cache=cache
                ),
                repeat,
            )
        )
    return entries


def _engine_row(
    name: str,
    analyzer_name: str,
    mk_tree: Callable[[], Any],
    mk_plan: Callable[[], Any],
    compile_plan: Callable[[], Any],
    repeat: int,
) -> dict:
    """One plan-vs-tree comparison: tree wall time vs plan run time,
    with the one-time (cache-amortized) plan compile cost reported
    separately."""
    tree_an, tree_res, tree_wall = _timed(mk_tree, repeat)
    compile_s = _min_seconds(compile_plan, repeat)
    plan_an, plan_res, plan_run = _timed(mk_plan, repeat)
    return {
        "name": name,
        "analyzer": analyzer_name,
        "tree": {"wall_s": tree_wall, "visits": tree_an.stats.visits},
        "plan": {
            "compile_s": compile_s,
            "run_s": plan_run,
            "visits": plan_an.stats.visits,
        },
        "speedup": tree_wall / plan_run if plan_run > 0 else 0.0,
        "noise_exempt": tree_wall < NOISE_FLOOR_S,
        "answers_equal": _answer_of(tree_res) == _answer_of(plan_res),
    }


def _engine_workloads(quick: bool, repeat: int) -> list[dict]:
    from repro.analysis.delta import delta_store
    from repro.analysis.registry import PLAN_ANALYZERS
    from repro.corpus import PROGRAMS, top_conditional_chain
    from repro.cps import cps_transform
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain
    from repro.domains.store import AbsStore
    from repro.machine.absplan import compile_anf_plan, compile_cps_plan

    tree = {name: analyzer_class(name, "tree") for name in PLAN_ANALYZERS}
    plan = {name: analyzer_class(name, "plan") for name in PLAN_ANALYZERS}
    lattice = Lattice(ConstPropDomain())
    rows = []

    # The two large ("ackermann-class") headline workloads first: the
    # exponential top-conditional family and the heavy recursive
    # corpus program, both under the semantic-CPS analyzer.
    tcc = top_conditional_chain(12 if quick else 16)
    tcc_init = tcc.initial_for(lattice)
    rows.append(
        _engine_row(
            f"engine/{tcc.name}",
            "semantic-cps",
            lambda: tree["semantic-cps"](tcc.term, initial=tcc_init),
            lambda: plan["semantic-cps"](tcc.term, initial=tcc_init),
            lambda: compile_anf_plan(tcc.term),
            repeat,
        )
    )
    ack = PROGRAMS["ackermann"]
    ack_init = ack.initial_for(lattice)
    rows.append(
        _engine_row(
            "engine/ackermann",
            "semantic-cps",
            lambda: tree["semantic-cps"](
                ack.term, initial=ack_init, loop_mode="top"
            ),
            lambda: plan["semantic-cps"](
                ack.term, initial=ack_init, loop_mode="top"
            ),
            lambda: compile_anf_plan(ack.term),
            repeat,
        )
    )
    # Coverage rows: the remaining engines on small workloads.
    rows.append(
        _engine_row(
            "engine/ackermann",
            "direct",
            lambda: tree["direct"](ack.term, initial=ack_init),
            lambda: plan["direct"](ack.term, initial=ack_init),
            lambda: compile_anf_plan(ack.term),
            repeat,
        )
    )
    fact = PROGRAMS["factorial"]
    fact_init = fact.initial_for(lattice)
    fact_cps = cps_transform(fact.term)
    fact_cps_init = dict(
        delta_store(AbsStore(lattice, fact_init)).items()
    )
    rows.append(
        _engine_row(
            "engine/factorial",
            "syntactic-cps",
            lambda: tree["syntactic-cps"](
                fact_cps, initial=fact_cps_init, loop_mode="top"
            ),
            lambda: plan["syntactic-cps"](
                fact_cps, initial=fact_cps_init, loop_mode="top"
            ),
            lambda: compile_cps_plan(fact_cps),
            repeat,
        )
    )
    rows.append(
        _engine_row(
            "engine/factorial",
            "direct-kcfa",
            lambda: tree["polyvariant"](
                fact.term, k=1, initial=fact_init
            ),
            lambda: plan["polyvariant"](
                fact.term, k=1, initial=fact_init
            ),
            lambda: compile_anf_plan(fact.term),
            repeat,
        )
    )
    return rows


def _pushdown_section(quick: bool, repeat: int) -> list[dict]:
    """Pushdown-vs-direct on the corpus: per-row precision verdict
    plus the work both analyzers spent earning it.  The validator
    rejects any row whose verdict is ``right-more-precise`` — the
    pushdown analyzer's whole claim is that exact call/return matching
    never *loses* precision against the direct analyzer."""
    from repro.analysis.compare import compare_pushdown_to_direct
    from repro.analysis.direct import DirectAnalyzer
    from repro.analysis.pushdown import PushdownAnalyzer
    from repro.corpus import PROGRAMS
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    lattice = Lattice(ConstPropDomain())
    names = list(PROGRAMS)
    if quick:
        names = [
            n
            for n in names
            if n in ("theorem-5.1", "factorial", "even-odd", "church-pairs")
        ]
    entries = []
    for name in names:
        program = PROGRAMS[name]
        if program.heavy:
            continue
        initial = program.initial_for(lattice)
        _, d_res, d_wall = _timed(
            lambda t=program.term, i=initial: DirectAnalyzer(t, initial=i),
            repeat,
        )
        _, p_res, p_wall = _timed(
            lambda t=program.term, i=initial: PushdownAnalyzer(t, initial=i),
            repeat,
        )
        verdict = compare_pushdown_to_direct(p_res, d_res)
        entries.append(
            {
                "name": f"pushdown/{name}",
                "verdict": verdict.value,
                "direct": {"wall_s": d_wall, "visits": d_res.stats.visits},
                "pushdown": {
                    "wall_s": p_wall,
                    "visits": p_res.stats.visits,
                    "returns_analyzed": p_res.stats.returns_analyzed,
                    "loop_cuts": p_res.stats.loop_cuts,
                },
                "work_ratio": (
                    p_res.stats.visits / d_res.stats.visits
                    if d_res.stats.visits
                    else 0.0
                ),
                "noise_exempt": d_wall < NOISE_FLOOR_S,
            }
        )
    return entries


def _survey_results_match(serial: Any, parallel: Any) -> bool:
    """Field-by-field identity of two `SurveyResult` aggregates —
    the bit-identity contract of an order-preserving parallel fold."""
    return (
        serial.count == parallel.count
        and serial.budget_exceeded == parallel.budget_exceeded
        and serial.direct_vs_syntactic == parallel.direct_vs_syntactic
        and serial.semantic_vs_direct == parallel.semantic_vs_direct
        and serial.semantic_vs_syntactic == parallel.semantic_vs_syntactic
        and serial.pushdown_vs_direct == parallel.pushdown_vs_direct
        and serial.direct_visits == parallel.direct_visits
        and serial.semantic_visits == parallel.semantic_visits
        and serial.syntactic_visits == parallel.syntactic_visits
        and serial.pushdown_visits == parallel.pushdown_visits
    )


def _parallel_section(quick: bool, engine: str, jobs: int) -> dict:
    """Serial vs ``jobs``-way walls for the two largest survey
    populations on the persistent pool.

    Identity (``matches``) is enforced unconditionally by the
    validator; the speedup floor only where the hardware can deliver
    it — ``enforced`` is false on a 1-CPU box and ``required_speedup``
    scales with the CPUs actually available, so the payload stays
    honest instead of asserting physically impossible ratios.
    """
    import os

    from repro.perf.pool import get_pool
    from repro.survey import survey_random, survey_random_open

    jobs = max(2, jobs)
    count = 20 if quick else 200
    depth = 3
    cpus = os.cpu_count() or 1
    populations = []
    runners = (
        (
            "random-closed",
            lambda j: survey_random(
                count=count, depth=depth, jobs=j, engine=engine
            ),
        ),
        (
            "random-open",
            lambda j: survey_random_open(
                count=count, depth=depth, jobs=j, engine=engine
            ),
        ),
    )
    # Create + warm the pool up front so worker start-up is not
    # charged to the first population's parallel wall (the whole
    # point of a persistent pool is that this cost is paid once).
    pool = get_pool(jobs)
    for name, run in runners:
        start = time.perf_counter()
        serial_result = run(1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel_result = run(jobs)
        parallel_s = time.perf_counter() - start
        populations.append(
            {
                "population": name,
                "count": count,
                "depth": depth,
                "serial_s": serial_s,
                "parallel_s": parallel_s,
                "speedup": serial_s / parallel_s if parallel_s > 0 else 0.0,
                "noise_exempt": serial_s < PARALLEL_NOISE_FLOOR_S,
                "matches": _survey_results_match(
                    serial_result, parallel_result
                ),
            }
        )
    return {
        "jobs": jobs,
        "cpus": cpus,
        "required_speedup": max(1.2, min(jobs, cpus) / 2),
        "enforced": cpus >= 2,
        "pool": pool.snapshot(),
        "populations": populations,
    }


def run_bench(
    quick: bool = False,
    out: str | None = None,
    repeat: int = 5,
    engine: str = "tree",
    generated_at: str | None = None,
    jobs: int = 4,
) -> dict:
    """Run the benchmark; optionally write the JSON payload to ``out``.

    ``repeat`` is the min-of-N repetition count; ``engine`` selects
    the analyzer engine for the cache-comparison workloads (the
    ``engine`` section always measures both engines); ``jobs`` is the
    worker count for the ``parallel`` section (minimum 2).
    ``generated_at`` lets the caller (the CLI, CI) stamp the run; the
    current UTC time is used when omitted.
    """
    check_engine(engine)
    payload = {
        "schema": SCHEMA,
        "quick": quick,
        "repeat": max(1, repeat),
        "engine_mode": engine,
        "generated_at": generated_at
        or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": (
            _corpus_workloads(quick, repeat, engine)
            + _family_workloads(quick, repeat, engine)
            + _polyvariant_workloads(quick, repeat, engine)
        ),
        "engine": _engine_workloads(quick, repeat),
        "pushdown": _pushdown_section(quick, repeat),
        "parallel": _parallel_section(quick, engine, jobs),
    }
    validate_bench(payload)
    if out is not None:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return payload


def validate_bench(payload: Any) -> None:
    """Raise ``ValueError`` if ``payload`` is not a well-formed bench
    result or if any workload's cached (or compiled-plan) answer
    diverged from the reference run."""
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"bench schema must be {SCHEMA!r}, got {payload.get('schema')!r}"
        )
    meta = payload.get("meta")
    if not isinstance(meta, dict):
        raise ValueError("bench payload must carry a meta section")
    for field in ("python", "platform"):
        if not isinstance(meta.get(field), str):
            raise ValueError(f"bench meta missing {field!r}")
    workloads = payload.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise ValueError("bench payload must carry a non-empty workload list")
    for entry in workloads:
        for field in (
            "name", "analyzer", "uncached", "cached", "speedup",
            "noise_exempt", "answers_equal",
        ):
            if field not in entry:
                raise ValueError(f"workload missing field {field!r}: {entry!r}")
        for field in _RUN_FIELDS:
            if field not in entry["uncached"]:
                raise ValueError(
                    f"workload {entry['name']!r} uncached run missing {field!r}"
                )
        for field in _CACHED_FIELDS:
            if field not in entry["cached"]:
                raise ValueError(
                    f"workload {entry['name']!r} cached run missing {field!r}"
                )
        if entry["answers_equal"] is not True:
            raise ValueError(
                f"workload {entry['name']!r}: cached answer diverged from uncached"
            )
    engine_rows = payload.get("engine")
    if not isinstance(engine_rows, list) or not engine_rows:
        raise ValueError("bench payload must carry a non-empty engine section")
    for entry in engine_rows:
        for field in (
            "name", "analyzer", "tree", "plan", "speedup",
            "noise_exempt", "answers_equal",
        ):
            if field not in entry:
                raise ValueError(f"engine row missing field {field!r}: {entry!r}")
        for field in _ENGINE_TREE_FIELDS:
            if field not in entry["tree"]:
                raise ValueError(
                    f"engine row {entry['name']!r} tree run missing {field!r}"
                )
        for field in _ENGINE_PLAN_FIELDS:
            if field not in entry["plan"]:
                raise ValueError(
                    f"engine row {entry['name']!r} plan run missing {field!r}"
                )
        if entry["answers_equal"] is not True:
            raise ValueError(
                f"engine row {entry['name']!r}: plan answer diverged from tree"
            )
    pushdown_rows = payload.get("pushdown")
    if not isinstance(pushdown_rows, list) or not pushdown_rows:
        raise ValueError(
            "bench payload must carry a non-empty pushdown section"
        )
    for entry in pushdown_rows:
        for field in (
            "name", "verdict", "direct", "pushdown", "work_ratio",
            "noise_exempt",
        ):
            if field not in entry:
                raise ValueError(
                    f"pushdown row missing field {field!r}: {entry!r}"
                )
        for run in ("direct", "pushdown"):
            for field in _RUN_FIELDS:
                if field not in entry[run]:
                    raise ValueError(
                        f"pushdown row {entry['name']!r} {run} run "
                        f"missing {field!r}"
                    )
        # The precision gate: summaries may tie or win, never lose.
        if entry["verdict"] not in ("equal", "left-more-precise"):
            raise ValueError(
                f"pushdown row {entry['name']!r}: pushdown answer is "
                f"less precise than direct ({entry['verdict']!r})"
            )
    parallel = payload.get("parallel")
    if not isinstance(parallel, dict):
        raise ValueError("bench payload must carry a parallel section")
    for field in ("jobs", "cpus", "required_speedup", "enforced", "pool"):
        if field not in parallel:
            raise ValueError(f"parallel section missing {field!r}")
    populations = parallel.get("populations")
    if not isinstance(populations, list) or not populations:
        raise ValueError(
            "parallel section must carry a non-empty population list"
        )
    for entry in populations:
        for field in (
            "population", "count", "serial_s", "parallel_s", "speedup",
            "noise_exempt", "matches",
        ):
            if field not in entry:
                raise ValueError(
                    f"parallel population missing {field!r}: {entry!r}"
                )
        # Identity is physics-independent: enforced unconditionally.
        if entry["matches"] is not True:
            raise ValueError(
                f"parallel survey {entry['population']!r}: parallel "
                "aggregate diverged from serial"
            )
        # Speedup is not: only gated where the CPUs exist and the
        # serial wall is long enough to be worth parallelizing.
        if (
            parallel["enforced"]
            and not entry["noise_exempt"]
            and entry["speedup"] < parallel["required_speedup"]
        ):
            raise ValueError(
                f"parallel survey {entry['population']!r}: speedup "
                f"{entry['speedup']:.2f}x below the "
                f"{parallel['required_speedup']:.2f}x floor "
                f"({parallel['cpus']} CPUs, jobs={parallel['jobs']})"
            )


def validate_bench_file(path: str) -> dict:
    """Load ``path`` and validate it; returns the payload."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_bench(payload)
    return payload


def summarize(payload: dict) -> str:
    """A short human-readable table of the bench payload."""
    lines = [
        f"{'workload':38} {'uncached':>10} {'cached':>10} {'speedup':>8} {'hit rate':>9}"
    ]
    for entry in payload["workloads"]:
        cached = entry["cached"]
        name = entry["name"] + ("*" if entry.get("noise_exempt") else "")
        lines.append(
            f"{name:38} "
            f"{entry['uncached']['wall_s']:>9.4f}s "
            f"{cached['wall_s']:>9.4f}s "
            f"{entry['speedup']:>7.1f}x "
            f"{cached['eval_cache_hit_rate']:>8.1%}"
        )
    lines.append("")
    lines.append(
        f"{'plan vs tree':38} {'tree':>10} {'compile':>10} {'run':>10} {'speedup':>8}"
    )
    for entry in payload["engine"]:
        plan = entry["plan"]
        name = entry["name"] + " [" + entry["analyzer"] + "]"
        name += "*" if entry.get("noise_exempt") else ""
        lines.append(
            f"{name:38} "
            f"{entry['tree']['wall_s']:>9.4f}s "
            f"{plan['compile_s']:>9.4f}s "
            f"{plan['run_s']:>9.4f}s "
            f"{entry['speedup']:>7.1f}x"
        )
    lines.append("")
    lines.append(
        f"{'pushdown vs direct':38} {'direct':>10} {'pushdown':>10} {'work':>7} verdict"
    )
    for entry in payload["pushdown"]:
        name = entry["name"] + ("*" if entry.get("noise_exempt") else "")
        lines.append(
            f"{name:38} "
            f"{entry['direct']['wall_s']:>9.4f}s "
            f"{entry['pushdown']['wall_s']:>9.4f}s "
            f"{entry['work_ratio']:>6.1f}x "
            f"{entry['verdict']}"
        )
    parallel = payload["parallel"]
    lines.append("")
    for entry in parallel["populations"]:
        exempt = "*" if entry.get("noise_exempt") else ""
        lines.append(
            f"parallel {entry['population']}{exempt} x{entry['count']}: "
            f"serial {entry['serial_s']:.2f}s, "
            f"jobs={parallel['jobs']} {entry['parallel_s']:.2f}s "
            f"({entry['speedup']:.1f}x, match: {entry['matches']})"
        )
    gate = (
        "enforced"
        if parallel["enforced"]
        else f"not enforced ({parallel['cpus']} CPU)"
    )
    lines.append(
        f"parallel speedup floor {parallel['required_speedup']:.1f}x: "
        f"{gate}; * = sub-noise-floor wall, ratio exempt"
    )
    return "\n".join(lines)
