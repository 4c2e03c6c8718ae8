"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

- ``run``      evaluate a program with one of the three interpreters
- ``analyze``  run the comparison data flow analyzers (or one named
  ``--analyzer``, pushdown included) and print the facts
- ``trace``    emit a JSONL `repro.obs` trace of interpreter (and,
  optionally, analyzer) transitions
- ``anf``      print the A-normal form of a program
- ``cps``      print the CPS transform of a program
- ``optimize`` run the analysis-driven optimizer and print the result
- ``lint``     run the `repro.lint` diagnostics engine (syntactic
  rules plus analyzer-powered semantic rules)
- ``graph``    print the call or flow graph as Graphviz DOT
- ``report``   regenerate the EXPERIMENTS.md measured tables
- ``survey``   tabulate analysis verdicts over program populations
- ``bench``    run the `repro.perf` regression benchmark and write
  ``BENCH_perf.json``
- ``compile``  compile to bytecode and run on the abstract machine
- ``dataflow`` run the classical MFP/MOP solvers over the flow graph
- ``corpus``   list the corpus program names and families
- ``serve``    start the `repro.serve` HTTP/JSON analysis service
- ``request``  query a running service (retrying client)
- ``loadgen``  drive a ``repro serve`` instance and write
  ``BENCH_serve.json``
- ``cachectl`` inspect and manage the persistent `repro.incr` store

Interpreter and analyzer failures exit with the structured
`repro.serve` codes (``fuel_exhausted`` = 3, ``diverged`` = 4,
``stuck`` = 5, ...); see ``--help`` for the full table.

``run``, ``analyze``, and ``dataflow`` accept ``--stats`` to print the
`repro.obs` work counters (visits, joins, widenings, loop cuts, span
timings) after their normal output.  ``analyze`` accepts ``--cache``
to enable the analyzers' eval memo (results are identical; visit
counts drop).  ``survey`` and
``report`` accept ``--jobs N`` to fan work out over worker processes.

Programs are read from a file argument, or from ``-e SOURCE`` for
inline text.  Free variables can be given concrete values (``run``)
or abstract assumptions (``analyze``) with ``--assume name=value``;
analysis assumptions default to ⊤ for numbers.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.anf import normalize
from repro.analysis.common import LOOP_MODES, front_end_headroom
from repro.analysis.registry import (
    ANALYZERS,
    ENGINES,
    INTERPRETERS,
    LINT_ANALYZERS,
    analyzer_choices,
    canonical_analyzer,
    run_analyzer,
)
from repro.api import analysis_initial, run_comparison
from repro.cfg import (
    build_call_graph,
    build_flow_graph,
    call_graph_to_dot,
    flow_graph_to_dot,
)
from repro.cps import cps_pretty, cps_transform
from repro.domains import DOMAINS, ConstPropDomain, Lattice
from repro.interp import run_direct, run_semantic_cps, run_syntactic_cps
from repro.interp.values import Env, Store
from repro.lang import parse, pretty
from repro.lang.syntax import free_variables
from repro.obs import NULL_SINK, JsonlSink, Metrics, RecordingSink
from repro.opt import optimize

def _load_term(args: argparse.Namespace):
    if args.expr is not None:
        source = args.expr
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            source = handle.read()
    else:
        raise SystemExit("provide a FILE or -e SOURCE")
    with front_end_headroom():
        term = normalize(parse(source))
        hash(term)
    return term


def _parse_assumes(pairs: list[str]) -> dict[str, int]:
    out = {}
    for pair in pairs:
        name, _, text = pair.partition("=")
        if not name or not text:
            raise SystemExit(f"bad --assume {pair!r}; expected name=value")
        try:
            out[name] = int(text)
        except ValueError:
            raise SystemExit(f"--assume value must be an integer: {pair!r}")
    return out


def _add_program_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", nargs="?", help="program file")
    parser.add_argument("-e", "--expr", help="inline program text")
    parser.add_argument(
        "--assume",
        action="append",
        default=[],
        metavar="NAME=INT",
        help="value for a free variable (repeatable)",
    )


def _concrete_bindings(term, values: dict[str, int]):
    env, store = Env(), Store()
    for name, value in values.items():
        loc = store.new(name)
        store.bind(loc, value)
        env = env.bind(name, loc)
    missing = free_variables(term) - set(values)
    if missing:
        raise SystemExit(f"unbound free variables: {sorted(missing)}")
    return env, store


def _cmd_run(args: argparse.Namespace) -> int:
    term = _load_term(args)
    values = _parse_assumes(args.assume)
    env, store = _concrete_bindings(term, values)
    sink = RecordingSink() if args.stats else NULL_SINK
    interpreter = canonical_analyzer(args.interpreter, INTERPRETERS)
    if interpreter == "direct":
        answer = run_direct(
            term, env=env, store=store, fuel=args.fuel, trace=sink
        )
    elif interpreter == "semantic-cps":
        answer = run_semantic_cps(
            term, env=env, store=store, fuel=args.fuel, trace=sink
        )
    else:
        if values:
            raise SystemExit(
                "--assume is not supported with the syntactic interpreter"
            )
        answer = run_syntactic_cps(
            cps_transform(term), fuel=args.fuel, trace=sink
        )
    print(answer.value)
    if args.stats:
        steps = len(sink.by_kind("interp.step"))
        print(
            f"; steps: {steps}, fuel remaining: {args.fuel - steps}",
            file=sys.stderr,
        )
    return 0


def _print_metrics_snapshot(metrics: Metrics) -> None:
    import json

    print("\nmetrics snapshot:")
    print(json.dumps(metrics.snapshot(), indent=2, ensure_ascii=False))


def _cmd_analyze(args: argparse.Namespace) -> int:
    term = _load_term(args)
    domain = DOMAINS[args.domain]()
    lattice = Lattice(domain)
    initial = analysis_initial(term, lattice, _parse_assumes(args.assume))
    metrics = Metrics() if args.stats else None
    cache = bool(args.cache)
    analyzer = args.analyzer
    if analyzer is None and args.k is not None:
        analyzer = "polyvariant"  # ``--k K`` names the k-CFA analyzer
    if analyzer is not None:
        # Single-analyzer mode: run exactly one named analyzer (any of
        # the registry's five, aliases included) instead of the N-way
        # comparison.  The pushdown analyzer is tree-only; asking for
        # its plan engine exits with the engine_unsupported code.
        analyzer = canonical_analyzer(analyzer, ANALYZERS)
        if args.k is not None and analyzer != "polyvariant":
            # Same rule as the service's analyze request.
            args.usage_error("'k' only applies to the polyvariant analyzer")
        result = run_analyzer(
            analyzer,
            term,
            domain=domain,
            initial=initial,
            k=args.k if args.k is not None else 1,
            loop_mode=args.loop_mode,
            metrics=metrics,
            cache=cache,
            engine=args.engine,
        )
        if analyzer == "polyvariant":
            result = result.collapse()
        if args.json:
            import json

            payload = {"analyzer": analyzer, "result": result.to_dict()}
            if metrics is not None:
                payload["metrics"] = metrics.snapshot()
            print(json.dumps(payload, indent=2, ensure_ascii=False))
            return 0
        print(f"value: {result.value!r}")
        for name in sorted(result.variables()):
            print(f"  {name:12} {result.value_of(name)!r}")
        if metrics is not None:
            print("\nper-analyzer work:")
            for key, value in sorted(result.stats.as_dict().items()):
                print(f"  {key:18} {value}")
            _print_metrics_snapshot(metrics)
        return 0
    report = run_comparison(
        term,
        domain=domain,
        initial=initial,
        loop_mode=args.loop_mode,
        metrics=metrics,
        cache=cache,
        engine=args.engine,
    )
    if args.json:
        import json

        payload = report.to_dict()
        if metrics is not None:
            payload["metrics"] = metrics.snapshot()
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return 0
    print(report.summary())
    print("\nper-variable facts (direct analyzer):")
    for name in sorted(report.direct.variables()):
        value = report.direct.value_of(name)
        constant = report.direct.constant_of(name)
        suffix = f"   == {constant}" if constant is not None else ""
        print(f"  {name:12} {value!r}{suffix}")
    if metrics is not None:
        print("\nper-analyzer work (Section 6.2 cost comparison):")
        print(report.work_summary())
        _print_metrics_snapshot(metrics)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.interp.errors import Diverged, FuelExhausted

    term = _load_term(args)
    values = _parse_assumes(args.assume)
    _concrete_bindings(term, values)  # fail early on unbound variables
    interpreter = (
        "all"
        if args.interpreter == "all"
        else canonical_analyzer(args.interpreter, INTERPRETERS)
    )
    if interpreter == "syntactic-cps" and values:
        raise SystemExit(
            "--assume is not supported with the syntactic interpreter"
        )
    wanted = INTERPRETERS if interpreter == "all" else (interpreter,)
    try:
        sink = JsonlSink(args.out) if args.out else JsonlSink(sys.stdout)
    except OSError as exc:
        raise SystemExit(f"cannot open trace output: {exc}")
    notes: list[str] = []
    try:
        for which in wanted:
            try:
                if which == "direct":
                    env, store = _concrete_bindings(term, values)
                    run_direct(
                        term, env=env, store=store,
                        fuel=args.fuel, trace=sink,
                    )
                elif which == "semantic-cps":
                    env, store = _concrete_bindings(term, values)
                    run_semantic_cps(
                        term, env=env, store=store,
                        fuel=args.fuel, trace=sink,
                    )
                elif values:
                    notes.append(
                        "syntactic interpreter skipped: --assume given"
                    )
                else:
                    run_syntactic_cps(
                        cps_transform(term), fuel=args.fuel, trace=sink
                    )
            except Diverged:
                notes.append(f"{which} interpreter diverged (loop)")
            except FuelExhausted:
                notes.append(f"{which} interpreter ran out of fuel")
        if args.analyzers:
            domain = DOMAINS[args.domain]()
            lattice = Lattice(domain)
            initial = analysis_initial(
                term, lattice, _parse_assumes(args.assume)
            )
            run_comparison(
                term,
                domain=domain,
                initial=initial,
                loop_mode=args.loop_mode,
                trace=sink,
            )
        emitted = sink.emitted
    finally:
        sink.close()
    for note in notes:
        print(f"; {note}", file=sys.stderr)
    if args.out:
        print(f"; {emitted} events -> {args.out}", file=sys.stderr)
    return 0


def _cmd_anf(args: argparse.Namespace) -> int:
    with front_end_headroom():
        text = pretty(_load_term(args))
    print(text)
    return 0


def _cmd_cps(args: argparse.Namespace) -> int:
    with front_end_headroom():
        text = cps_pretty(cps_transform(_load_term(args)))
    print(text)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    term = _load_term(args)
    domain = DOMAINS[args.domain]()
    lattice = Lattice(domain)
    initial = analysis_initial(term, lattice, _parse_assumes(args.assume))
    passes = tuple(args.passes.split(",")) if args.passes else None
    kwargs = {"passes": passes} if passes else {}
    report = optimize(term, domain, initial=initial, **kwargs)
    print(pretty(report.term))
    print(f"; rounds: {report.rounds}", file=sys.stderr)
    print(f"; analysis: {report.analysis.value!r}", file=sys.stderr)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.corpus.programs import PROGRAMS, corpus_program
    from repro.lint import has_errors, render_json, render_text, run_lints
    from repro.serve.codes import CODES

    domain = DOMAINS[args.domain]()
    lattice = Lattice(domain)
    jobs: list[tuple] = []
    if args.all:
        for program in PROGRAMS.values():
            jobs.append((program, None, None))
    elif args.corpus is not None:
        try:
            jobs.append((corpus_program(args.corpus), None, None))
        except KeyError:
            raise SystemExit(f"unknown corpus program {args.corpus!r}")
    else:
        if args.expr is not None:
            source, name = args.expr, "<expr>"
        elif args.file is not None:
            with open(args.file, "r", encoding="utf-8") as handle:
                source = handle.read()
            name = args.file
        else:
            raise SystemExit(
                "provide a FILE, -e SOURCE, --corpus NAME, or --all"
            )
        assumes = _parse_assumes(args.assume)
        initial = {
            key: lattice.of_const(value) for key, value in assumes.items()
        }
        jobs.append((source, name, initial))
    with front_end_headroom():
        reports = [
            run_lints(
                program,
                analyzer=args.analyzer,
                domain=domain,
                initial=initial,
                loop_mode=args.loop_mode,
                max_visits=args.max_visits,
                semantic=not args.syntactic_only,
                fix=args.fix,
                program_name=name,
                engine=args.engine,
            )
            for program, name, initial in jobs
        ]
    if args.format == "json":
        if args.all:
            print(
                json.dumps(
                    [report.as_dict() for report in reports],
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(render_json(reports[0]), end="")
    else:
        print("\n\n".join(render_text(report) for report in reports))
    if any(has_errors(report) for report in reports):
        return CODES["lint_error"].exit_code
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    term = _load_term(args)
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = analysis_initial(term, lattice, _parse_assumes(args.assume))
    from repro.analysis import analyze_direct

    result = analyze_direct(term, domain, initial=initial)
    call_graph = build_call_graph(term, result)
    if args.kind == "call":
        print(call_graph_to_dot(call_graph))
    else:
        print(flow_graph_to_dot(build_flow_graph(term, call_graph)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.serve.codes import exit_codes_help

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Sabry & Felleisen (PLDI 1994) reproduction: interpreters, "
            "CPS transformation, and data flow analyzers for the "
            "language A."
        ),
        epilog=exit_codes_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="evaluate a program")
    _add_program_arguments(run_parser)
    run_parser.add_argument(
        "--interpreter",
        choices=analyzer_choices(INTERPRETERS),
        default="direct",
        help="which Figure 1-3 interpreter to use",
    )
    run_parser.add_argument(
        "--fuel", type=int, default=1_000_000, help="step budget"
    )
    run_parser.add_argument(
        "--stats",
        action="store_true",
        help="print step counts (repro.obs) to stderr",
    )
    run_parser.set_defaults(handler=_cmd_run)

    trace_parser = commands.add_parser(
        "trace",
        help="emit a JSONL repro.obs trace of interpreter transitions",
    )
    _add_program_arguments(trace_parser)
    trace_parser.add_argument(
        "--out",
        metavar="FILE",
        help="trace file (default: stdout)",
    )
    trace_parser.add_argument(
        "--interpreter",
        choices=("all",) + analyzer_choices(INTERPRETERS),
        default="all",
        help="which Figure 1-3 interpreter(s) to trace",
    )
    trace_parser.add_argument(
        "--analyzers",
        action="store_true",
        help="also trace the comparison analyzers (Figures 4-6 plus "
        "the pushdown analyzer)",
    )
    trace_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    trace_parser.add_argument(
        "--loop-mode",
        choices=LOOP_MODES,
        default="top",
        help="`loop` handling when tracing the CPS analyzers",
    )
    trace_parser.add_argument(
        "--fuel", type=int, default=1_000_000, help="step budget"
    )
    trace_parser.set_defaults(handler=_cmd_trace)

    analyze_parser = commands.add_parser(
        "analyze", help="run the data flow analyzers"
    )
    _add_program_arguments(analyze_parser)
    analyze_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    analyze_parser.add_argument(
        "--loop-mode",
        choices=LOOP_MODES,
        default="reject",
        help="`loop` handling for the CPS analyzers",
    )
    analyze_parser.add_argument(
        "--analyzer",
        choices=analyzer_choices(ANALYZERS),
        default=None,
        metavar="NAME",
        help="run exactly one named analyzer instead of the N-way "
        "comparison (pushdown included; aliases accepted)",
    )
    analyze_parser.add_argument(
        "--k",
        type=int,
        default=None,
        metavar="K",
        help="use the polyvariant (k-CFA) direct analyzer instead",
    )
    analyze_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the comparison report as JSON",
    )
    analyze_parser.add_argument(
        "--stats",
        action="store_true",
        help="print the repro.obs work counters and metrics snapshot",
    )
    analyze_parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "enable the analyzers' eval memo (identical results, "
            "fewer visits)"
        ),
    )
    analyze_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="tree",
        help=(
            "tree-walking analyzers (default) or the compiled-plan "
            "engines (identical answers and statistics)"
        ),
    )
    analyze_parser.set_defaults(
        handler=_cmd_analyze, usage_error=analyze_parser.error
    )

    anf_parser = commands.add_parser("anf", help="print the A-normal form")
    _add_program_arguments(anf_parser)
    anf_parser.set_defaults(handler=_cmd_anf)

    cps_parser = commands.add_parser("cps", help="print the CPS transform")
    _add_program_arguments(cps_parser)
    cps_parser.set_defaults(handler=_cmd_cps)

    optimize_parser = commands.add_parser(
        "optimize", help="run the analysis-driven optimizer"
    )
    _add_program_arguments(optimize_parser)
    optimize_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    optimize_parser.add_argument(
        "--passes",
        help="comma-separated subset of inline,dup,fold,dce",
    )
    optimize_parser.set_defaults(handler=_cmd_optimize)

    lint_parser = commands.add_parser(
        "lint",
        help="run the repro.lint diagnostics engine",
        description=(
            "Lint a program: syntactic rules (S1xx) always run; "
            "semantic rules (L0xx) are proved by the chosen analyzer, "
            "so the findings themselves measure analyzer precision. "
            "Exits with the `lint_error` code when any error-severity "
            "diagnostic fires."
        ),
    )
    _add_program_arguments(lint_parser)
    lint_parser.add_argument(
        "--corpus",
        metavar="NAME",
        help="lint a corpus program instead of FILE/-e",
    )
    lint_parser.add_argument(
        "--all",
        action="store_true",
        help="lint every corpus program",
    )
    lint_parser.add_argument(
        "--analyzer",
        choices=analyzer_choices(LINT_ANALYZERS),
        default="direct",
        help="which analyzer powers the semantic rules (Figure 4-6 "
        "analyzers or pushdown; aliases accepted)",
    )
    lint_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    lint_parser.add_argument(
        "--loop-mode",
        choices=LOOP_MODES,
        default="top",
        help="`loop` handling for the CPS analyzers (lint default: top)",
    )
    lint_parser.add_argument(
        "--max-visits",
        type=int,
        default=250_000,
        metavar="N",
        help=(
            "analyzer work budget; exceeding it degrades to "
            "syntactic-only findings instead of failing"
        ),
    )
    lint_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="diagnostic rendering",
    )
    lint_parser.add_argument(
        "--fix",
        action="store_true",
        help="apply every fix-it and include the fixed program",
    )
    lint_parser.add_argument(
        "--syntactic-only",
        action="store_true",
        help="skip the analyzer and the semantic rules",
    )
    lint_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="tree",
        help="analyzer engine powering the semantic rules",
    )
    lint_parser.set_defaults(handler=_cmd_lint)

    graph_parser = commands.add_parser(
        "graph", help="print call/flow graphs as DOT"
    )
    _add_program_arguments(graph_parser)
    graph_parser.add_argument(
        "--kind", choices=("call", "flow"), default="call"
    )
    graph_parser.set_defaults(handler=_cmd_graph)

    report_parser = commands.add_parser(
        "report",
        help="regenerate the EXPERIMENTS.md measured tables",
    )
    report_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="render report sections across N worker processes",
    )
    report_parser.add_argument(
        "--section",
        default=None,
        metavar="NAME",
        help="render only the named section (e.g. witnesses, lint)",
    )
    report_parser.set_defaults(handler=_cmd_report)

    survey_parser = commands.add_parser(
        "survey",
        help="tabulate analysis verdicts over program populations",
    )
    survey_parser.add_argument(
        "--count", type=int, default=100, help="random programs to survey"
    )
    survey_parser.add_argument(
        "--depth", type=int, default=4, help="random program depth"
    )
    survey_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    survey_parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "survey programs across N worker processes (0 = one per "
            "CPU; parallel path requires the default domain)"
        ),
    )
    survey_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="tree",
        help="analyzer engine used for every surveyed program",
    )
    survey_parser.set_defaults(handler=_cmd_survey)

    bench_parser = commands.add_parser(
        "bench",
        help="run the repro.perf regression benchmark",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload sweep (CI smoke)",
    )
    bench_parser.add_argument(
        "--out",
        default="BENCH_perf.json",
        metavar="FILE",
        help="output JSON path (default: BENCH_perf.json)",
    )
    bench_parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        metavar="N",
        help="time each workload N times and report the minimum",
    )
    bench_parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="tree",
        help="engine for the cache-comparison workloads (the "
        "plan-vs-tree section always measures both)",
    )
    bench_parser.add_argument(
        "--timestamp",
        default=None,
        metavar="ISO8601",
        help="generated_at stamp recorded in the payload "
        "(default: current UTC time)",
    )
    bench_parser.add_argument(
        "--jobs",
        type=int,
        default=4,
        metavar="N",
        help="worker count for the parallel-survey section "
        "(persistent pool; speedup only asserted with enough CPUs)",
    )
    bench_parser.set_defaults(handler=_cmd_bench)

    compile_parser = commands.add_parser(
        "compile",
        help="compile to bytecode and run on the abstract machine",
    )
    _add_program_arguments(compile_parser)
    compile_parser.add_argument(
        "--backend",
        choices=("direct", "cps"),
        default="direct",
        help="direct (frame-pushing) or CPS (stackless) code generator",
    )
    compile_parser.add_argument(
        "--no-run",
        action="store_true",
        help="only print the bytecode",
    )
    compile_parser.set_defaults(handler=_cmd_compile)

    dataflow_parser = commands.add_parser(
        "dataflow",
        help="run the classical MFP/MOP solvers over the flow graph",
    )
    _add_program_arguments(dataflow_parser)
    dataflow_parser.add_argument(
        "--solver", choices=("mfp", "mop", "both"), default="both"
    )
    dataflow_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default="constprop"
    )
    dataflow_parser.add_argument(
        "--refine",
        action="store_true",
        help="propagate test=0 along then-edges",
    )
    dataflow_parser.add_argument(
        "--stats",
        action="store_true",
        help="print the solvers' repro.obs metrics snapshot",
    )
    dataflow_parser.set_defaults(handler=_cmd_dataflow)

    corpus_parser = commands.add_parser(
        "corpus",
        help="list corpus program names and parametric families",
    )
    corpus_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the listing as JSON (the GET /v1/corpus body)",
    )
    corpus_parser.set_defaults(handler=_cmd_corpus)

    serve_parser = commands.add_parser(
        "serve",
        help="start the repro.serve HTTP/JSON analysis service",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8184, help="0 picks an ephemeral port"
    )
    serve_parser.add_argument(
        "--workers", type=int, default=4, help="worker pool size"
    )
    serve_parser.add_argument(
        "--worker-model",
        choices=("thread", "process"),
        default="thread",
        help="thread: in-process worker pool; process: --workers "
        "analysis shard processes with consistent-hash routing",
    )
    serve_parser.add_argument(
        "--queue-size",
        type=int,
        default=64,
        help="pending-request bound; a full queue answers `overloaded`",
    )
    serve_parser.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="cross-request LRU result cache entries (0 disables)",
    )
    serve_parser.add_argument(
        "--max-visits",
        type=int,
        default=250_000,
        help="per-request analyzer work budget (and request cap)",
    )
    serve_parser.add_argument(
        "--fuel",
        type=int,
        default=1_000_000,
        help="per-request interpreter step budget (and request cap)",
    )
    serve_parser.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        help="per-request wall-clock budget in seconds",
    )
    serve_parser.add_argument(
        "--trace",
        metavar="FILE",
        help="JSONL repro.obs trace sink (flushed on drain; thread "
        "worker model only)",
    )
    serve_parser.add_argument(
        "--access-log",
        metavar="FILE",
        help="JSONL access log: one record per POST (flushed on drain)",
    )
    serve_parser.add_argument(
        "--slow-threshold",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="capture full span traces for requests at least this "
        "slow (0 captures every request)",
    )
    serve_parser.add_argument(
        "--debug-hooks",
        action="store_true",
        help="honor the debug_sleep_ms request field (tests/smoke only)",
    )
    serve_parser.add_argument(
        "--incr-store",
        metavar="FILE",
        help="persistent repro.incr response store (sqlite); "
        "shared safely between shard processes and server restarts",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log requests to stderr"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    request_parser = commands.add_parser(
        "request",
        help="query a running repro serve instance",
    )
    request_parser.add_argument(
        "endpoint",
        choices=(
            "analyze", "run", "compare", "lint", "corpus", "health",
            "metrics",
        ),
    )
    _add_program_arguments(request_parser)
    request_parser.add_argument(
        "--url",
        default="http://127.0.0.1:8184",
        help="service base URL",
    )
    request_parser.add_argument(
        "--corpus",
        metavar="NAME",
        help="analyze a corpus program instead of FILE/-e",
    )
    request_parser.add_argument(
        "--analyzer",
        choices=analyzer_choices(ANALYZERS),
        default=None,
    )
    request_parser.add_argument(
        "--interpreter",
        choices=analyzer_choices(INTERPRETERS),
        default=None,
    )
    request_parser.add_argument(
        "--domain", choices=sorted(DOMAINS), default=None
    )
    request_parser.add_argument(
        "--loop-mode", choices=LOOP_MODES, default=None
    )
    request_parser.add_argument("--k", type=int, default=None)
    request_parser.add_argument("--max-visits", type=int, default=None)
    request_parser.add_argument("--fuel", type=int, default=None)
    request_parser.add_argument(
        "--engine", choices=ENGINES, default=None
    )
    request_parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the analyzers' eval memo server-side",
    )
    request_parser.add_argument(
        "--retries",
        type=int,
        default=5,
        help="extra attempts on overloaded/timeout/connection errors",
    )
    request_parser.add_argument(
        "--timeout", type=float, default=60.0, help="HTTP timeout seconds"
    )
    request_parser.add_argument(
        "--server-timing",
        action="store_true",
        help="ask the server to embed its stage breakdown "
        "(queue wait, plan compile, analyze, serialize) in the body",
    )
    request_parser.set_defaults(handler=_cmd_request)

    loadgen_parser = commands.add_parser(
        "loadgen",
        help="drive a repro serve instance and write BENCH_serve.json",
    )
    loadgen_parser.add_argument(
        "--url",
        default=None,
        help="base URL of a running server (default: spawn a private "
        "one on an ephemeral port and tear it down afterwards)",
    )
    loadgen_parser.add_argument(
        "--mode",
        choices=("closed", "open"),
        default="closed",
        help="closed: workers fire back-to-back (saturation); open: "
        "fixed arrival rate, latency charged from scheduled arrival",
    )
    loadgen_parser.add_argument(
        "--mix",
        choices=("corpus", "unique"),
        default="corpus",
        help="corpus: cache-friendly route mix; unique: every request "
        "misses the result cache",
    )
    loadgen_parser.add_argument(
        "--replay",
        metavar="LOG",
        help="replay the request payloads of a JSONL access log "
        "instead of a synthetic mix",
    )
    loadgen_parser.add_argument(
        "--concurrency", type=int, default=4, help="worker threads"
    )
    loadgen_parser.add_argument(
        "--requests",
        type=int,
        default=None,
        metavar="N",
        help="closed loop: stop after N requests",
    )
    loadgen_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop after this long (closed default: 10s)",
    )
    loadgen_parser.add_argument(
        "--rate",
        type=float,
        default=50.0,
        help="open loop: arrivals per second",
    )
    loadgen_parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="worker pool size for a spawned server",
    )
    loadgen_parser.add_argument(
        "--server-args",
        default=None,
        metavar="STRING",
        help="extra `repro serve` flags for a spawned server, e.g. "
        '"--worker-model process" (shlex-split; ignored with --url)',
    )
    loadgen_parser.add_argument(
        "--out",
        default="BENCH_serve.json",
        metavar="FILE",
        help="output JSON path (default: BENCH_serve.json)",
    )
    loadgen_parser.add_argument(
        "--timestamp",
        default=None,
        metavar="ISO8601",
        help="generated_at stamp recorded in the payload",
    )
    loadgen_parser.add_argument(
        "--quick",
        action="store_true",
        help="small closed-loop run (CI smoke)",
    )
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    cachectl_parser = commands.add_parser(
        "cachectl",
        help="inspect and manage the persistent repro.incr store",
    )
    cachectl_parser.add_argument(
        "action",
        choices=("stats", "gc", "path"),
        help="stats: counters and bytes; gc: LRU-evict to --max-bytes; "
        "path: print the resolved store path",
    )
    cachectl_parser.add_argument(
        "--store",
        metavar="FILE",
        help="store path (default: $REPRO_INCR_STORE or "
        "~/.cache/repro/incr.sqlite)",
    )
    cachectl_parser.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc: payload-byte budget to evict down to (0 clears all)",
    )
    cachectl_parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    cachectl_parser.set_defaults(handler=_cmd_cachectl)
    return parser


def _cmd_dataflow(args: argparse.Namespace) -> int:
    from repro.dataflow import build_problem, solve_mfp, solve_mop
    from repro.lang.syntax import free_variables as _free

    term = _load_term(args)
    domain = DOMAINS[args.domain]()
    assumes = _parse_assumes(args.assume)
    entry = {
        name: (
            domain.const(assumes[name]) if name in assumes else domain.top
        )
        for name in _free(term)
    }
    problem = build_problem(
        term, domain, entry_facts=entry, refine_tests=args.refine
    )
    solvers = {
        "mfp": solve_mfp,
        "mop": solve_mop,
    }
    metrics = Metrics() if args.stats else None
    wanted = ("mfp", "mop") if args.solver == "both" else (args.solver,)
    for which in wanted:
        solution = solvers[which](problem, metrics=metrics)
        exit_facts = solution[problem.exit_point]
        print(f"[{which.upper()}] facts at exit:")
        if exit_facts is None:
            print("  (unreachable)")
            continue
        for name in sorted(exit_facts):
            print(f"  {name:12} {exit_facts[name]!r}")
    if metrics is not None:
        _print_metrics_snapshot(metrics)
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.cps import TOP_KVAR, cps_transform as to_cps
    from repro.machine import compile_cps, compile_direct, run_code
    from repro.machine.code import code_size

    term = _load_term(args)
    if args.backend == "direct":
        code = compile_direct(term)
        halt_kvar = None
    else:
        code = compile_cps(to_cps(term))
        halt_kvar = TOP_KVAR
    _print_code(code)
    print(f"; {code_size(code)} instructions", file=sys.stderr)
    if args.no_run:
        return 0
    values = _parse_assumes(args.assume)
    value, stats = run_code(code, initial_env=values, halt_kvar=halt_kvar)
    print(f"; result: {value}", file=sys.stderr)
    print(
        f"; steps: {stats.steps}, control-stack depth: {stats.max_frames}",
        file=sys.stderr,
    )
    return 0


def _print_code(code, depth: int = 0) -> None:
    from dataclasses import fields

    from repro.machine.code import Branch, BranchJump, Close, CloseF, CloseK

    pad = "  " * depth
    for instr in code:
        simple = ", ".join(
            f"{f.name}={getattr(instr, f.name)!r}"
            for f in fields(instr)
            if not isinstance(getattr(instr, f.name), tuple)
        )
        print(f"{pad}{type(instr).__name__}({simple})")
        match instr:
            case Close(_, inner) | CloseK(_, inner):
                _print_code(inner, depth + 1)
            case CloseF(_, _, inner):
                _print_code(inner, depth + 1)
            case Branch(t, e) | BranchJump(t, e):
                _print_code(t, depth + 1)
                print(f"{pad}--else--")
                _print_code(e, depth + 1)
            case _:
                pass


def _cmd_survey(args: argparse.Namespace) -> int:
    from repro.survey import (
        survey_corpus,
        survey_random,
        survey_random_open,
    )

    # None selects the default constant-propagation domain, which is
    # what the parallel (--jobs) worker path requires.
    domain = None if args.domain == "constprop" else DOMAINS[args.domain]()
    print(
        survey_corpus(
            domain,
            jobs=args.jobs,
            engine=args.engine,
        ).summary()
    )
    print()
    print(
        survey_random(
            args.count, args.depth, domain=domain, jobs=args.jobs,
            engine=args.engine,
        ).summary()
    )
    print()
    print(
        survey_random_open(
            args.count, args.depth, domain=domain, jobs=args.jobs,
            engine=args.engine,
        ).summary()
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.report import generate_report, section_keys

    if args.section is not None and args.section not in section_keys():
        raise SystemExit(
            f"unknown report section {args.section!r}; "
            f"choose from {', '.join(section_keys())}"
        )
    print(generate_report(jobs=args.jobs, section=args.section))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import run_bench, summarize

    try:
        payload = run_bench(
            quick=args.quick,
            out=args.out,
            repeat=args.repeat,
            engine=args.engine,
            generated_at=args.timestamp,
            jobs=args.jobs,
        )
    except ValueError as exc:
        print(f"bench FAILED: {exc}", file=sys.stderr)
        return 1
    print(summarize(payload))
    print(f"; wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_cachectl(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.incr.store import (
        IncrStore,
        default_store_path,
        describe,
        render_stats,
    )

    path = args.store or default_store_path()
    if args.action == "path":
        print(path)
        return 0
    if args.action == "stats":
        summary = describe(path)
        if args.json:
            print(json_mod.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_stats(summary))
        return 0
    if args.max_bytes is None:
        raise SystemExit("cachectl gc requires --max-bytes")
    with IncrStore(path) as store:
        report = store.gc(args.max_bytes)
    if args.json:
        print(json_mod.dumps(report, indent=2, sort_keys=True))
    else:
        print(
            f"evicted {report['evicted']} entries; "
            f"{report['bytes']} payload bytes remain "
            f"(generation {report['generation']})"
        )
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.corpus.programs import corpus_listing

    listing = corpus_listing()
    if args.json:
        import json

        print(json.dumps(listing, indent=2, ensure_ascii=False))
        return 0
    print("corpus programs (valid `corpus`/`--corpus` values):")
    for entry in listing["programs"]:
        marker = "  [heavy]" if entry["heavy"] else ""
        print(f"  {entry['name']:26} {entry['description']}{marker}")
    print("\nparametric families (repro.corpus generators):")
    for entry in listing["families"]:
        print(f"  {entry['name']:26} {entry['description']}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import NULL_SINK as null_sink
    from repro.serve.jobs import ServiceDefaults
    from repro.serve.server import AnalysisService

    try:
        trace = JsonlSink(args.trace) if args.trace else null_sink
    except OSError as exc:
        raise SystemExit(f"cannot open trace output: {exc}")
    try:
        service = AnalysisService(
            host=args.host,
            port=args.port,
            workers=args.workers,
            worker_model=args.worker_model,
            queue_size=args.queue_size,
            cache_size=args.cache_size,
            defaults=ServiceDefaults(
                max_visits=args.max_visits,
                fuel=args.fuel,
                timeout_seconds=args.timeout,
                debug_hooks=args.debug_hooks,
            ),
            trace=trace,
            verbose=args.verbose,
            access_log=args.access_log,
            slow_threshold_s=args.slow_threshold,
            incr_store=args.incr_store,
        )
    except (OSError, ValueError) as exc:
        trace.close()
        raise SystemExit(f"cannot start service: {exc}")
    print(f"listening on {service.url}", file=sys.stderr, flush=True)
    code = service.run_until_signal()
    print("drained; bye", file=sys.stderr, flush=True)
    return code


def _cmd_request(args: argparse.Namespace) -> int:
    import json

    from repro.serve.client import RetryPolicy, ServiceClient, ServiceError

    client = ServiceClient(
        args.url,
        policy=RetryPolicy(retries=args.retries),
        request_timeout=args.timeout,
    )
    payload: dict = {}
    if args.corpus is not None:
        payload["corpus"] = args.corpus
    elif args.expr is not None:
        payload["program"] = args.expr
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as handle:
            payload["program"] = handle.read()
    if args.assume:
        payload["assume"] = _parse_assumes(args.assume)
    for name, value in (
        ("analyzer", args.analyzer),
        ("interpreter", args.interpreter),
        ("domain", args.domain),
        ("loop_mode", args.loop_mode),
        ("k", args.k),
        ("max_visits", args.max_visits),
        ("fuel", args.fuel),
        ("engine", args.engine),
    ):
        if value is not None:
            payload[name] = value
    if args.cache:
        payload["cache"] = True
    if args.server_timing:
        payload["server_timing"] = True
    try:
        if args.endpoint == "health":
            body = client.healthz()
        elif args.endpoint == "metrics":
            body = client.metricsz()
        elif args.endpoint == "corpus":
            body = client.corpus()
        else:
            if "program" not in payload and "corpus" not in payload:
                raise SystemExit(
                    "provide a FILE, -e SOURCE, or --corpus NAME"
                )
            body = client.request(f"/v1/{args.endpoint}", payload)
    except ServiceError as exc:
        print(f"repro request: {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    print(json.dumps(body, indent=2, ensure_ascii=False))
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import shlex

    from repro.serve.loadgen import run_loadgen, summarize

    try:
        payload = run_loadgen(
            args.url,
            mode=args.mode,
            mix=args.mix,
            replay=args.replay,
            concurrency=args.concurrency,
            total=args.requests,
            duration_s=args.duration,
            rate=args.rate,
            workers=args.workers,
            server_args=(
                shlex.split(args.server_args) if args.server_args else None
            ),
            out=args.out,
            generated_at=args.timestamp,
            quick=args.quick,
        )
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"loadgen FAILED: {exc}", file=sys.stderr)
        return 1
    print(summarize(payload))
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.analysis.common import AnalysisError, ProgramTooDeep
    from repro.interp.errors import InterpError
    from repro.lang.errors import LangError

    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AnalysisError, InterpError, LangError, ProgramTooDeep) as exc:
        from repro.serve.codes import exit_code_for

        code, message = exit_code_for(exc)
        print(f"repro: {message}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # stdout's reader went away (e.g. `repro corpus | head`);
        # hand the fd a sink so interpreter shutdown can't re-raise
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
