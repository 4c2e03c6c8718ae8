"""The `run_lints` driver: one entry point for both pass families.

The engine parses (when given source text), recovers binder spans,
runs the syntactic passes on the program *as written*, canonicalizes
into the restricted subset, runs the chosen analyzer, and feeds its
result to the semantic passes.  Analysis failures (e.g. a
`BudgetExceeded` on the worst-case-exponential syntactic-CPS
analyzer, Section 6.2) are recoverable: the report carries the serve
error-code name in ``analysis_error`` and the syntactic findings
still stand.

``loop_mode`` defaults to ``"top"`` rather than the analyzers'
``"reject"``, so linting a program containing ``(loop)`` degrades to
imprecise-but-sound facts instead of refusing to run — a linter that
rejects its input is not a linter.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.common import (
    AnalysisError,
    BudgetExceeded,
    EngineUnsupported,
    NonComputableError,
)
from repro.analysis.registry import (
    LINT_ANALYZERS,
    canonical_analyzer,
    run_analyzer,
)
from repro.analysis.result import AnalysisResult
from repro.anf import is_anf, normalize
from repro.corpus.programs import CorpusProgram
from repro.domains.absval import AbsVal, Lattice
from repro.domains.constprop import ConstPropDomain
from repro.domains.protocol import NumDomain
from repro.lang.ast import Term, TERM_CLASSES
from repro.lang.parser import parse
from repro.lang.pretty import pretty
from repro.lang.syntax import has_unique_binders
from repro.lint.diagnostic import Diagnostic, ERROR, LintReport
from repro.lint.semantic import semantic_lints
from repro.lint.spans import binder_spans
from repro.lint.syntactic import syntactic_lints
from repro.obs.events import LintFired
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, RecordingSink, Sink
from repro.opt.constfold import constant_fold
from repro.opt.deadcode import eliminate_dead_code

#: Analyzer names accepted by :func:`run_lints` / the CLI / the
#: service — re-exported from the canonical registry
#: (`repro.analysis.registry.LINT_ANALYZERS`); old spellings are
#: folded through `canonical_analyzer`.

#: Structural rules whose fix is re-normalization.
_STRUCTURAL_CODES = frozenset({"S100", "S101", "S103"})


def _analysis_error_code(exc: AnalysisError) -> str:
    """The `repro.serve.codes` name for an analysis failure."""
    if isinstance(exc, BudgetExceeded):
        return "budget_exceeded"
    if isinstance(exc, NonComputableError):
        return "non_computable"
    if isinstance(exc, EngineUnsupported):
        return "engine_unsupported"
    return "internal"


def run_lints(
    program: "str | Term | CorpusProgram",
    analyzer: str = "direct",
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    loop_mode: str = "top",
    unroll_bound: int = 32,
    max_visits: int | None = None,
    semantic: bool = True,
    fix: bool = False,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
    program_name: str | None = None,
    engine: str = "tree",
) -> LintReport:
    """Lint one program with both pass families.

    Args:
        program: source text, an A term, or a corpus entry (whose
            bundled initial assumptions are used unless ``initial``
            overrides them).
        analyzer: which analyzer powers the semantic passes (one of
            `LINT_ANALYZERS`).
        domain: abstract number domain (default constant propagation).
        initial: free-variable assumptions in the direct domain; their
            names also suppress S102.
        loop_mode, unroll_bound, max_visits: analyzer configuration
            (see `repro.api.run_comparison`); note the lint-specific
            ``loop_mode`` default of ``"top"``.
        semantic: set False to run only the syntactic family.
        fix: apply every fix-it and carry the pretty-printed result in
            ``report.fixed_source``.
        trace: `repro.obs` sink receiving the analyzer's events plus
            one ``lint.fired`` event per finding.
        metrics: `repro.obs` registry (``lint.runs``, ``lint.fired``,
            ``lint.fired.<code>`` counters).
        program_name: display name (defaults to the corpus entry's
            name or ``"<program>"``).

    Returns:
        A `LintReport`; diagnostics are sorted most severe first.
    """
    analyzer = canonical_analyzer(analyzer, LINT_ANALYZERS)
    source: str | None = None
    name = program_name
    if isinstance(program, CorpusProgram):
        term = program.term
        name = name or program.name
        if initial is None:
            lattice = Lattice(
                domain if domain is not None else ConstPropDomain()
            )
            initial = program.initial_for(lattice)
    elif isinstance(program, str):
        source = program
        term = parse(program)
    elif isinstance(program, TERM_CLASSES):
        term = program
    else:
        raise TypeError(f"not an A program: {program!r}")
    name = name or "<program>"
    spans = binder_spans(source) if source is not None else {}
    assumed = frozenset(initial or ())

    diagnostics = syntactic_lints(term, assumed=assumed, spans=spans)

    if is_anf(term) and has_unique_binders(term):
        canonical: Term | None = term
        normalized = False
    else:
        canonical = normalize(term)
        normalized = True

    analysis_error: str | None = None
    result: AnalysisResult | None = None
    if semantic and canonical is not None:
        recorder = RecordingSink()
        try:
            result = run_analyzer(
                analyzer,
                canonical,
                domain=domain,
                initial=initial,
                loop_mode=loop_mode,
                unroll_bound=unroll_bound,
                max_visits=max_visits,
                trace=recorder,
                metrics=metrics,
                engine=engine,
            )
        except AnalysisError as exc:
            analysis_error = _analysis_error_code(exc)
        if trace.enabled:
            for event in recorder:
                trace.emit(event)
        if result is not None:
            diagnostics.extend(
                semantic_lints(
                    canonical,
                    result,
                    spans=spans,
                    loop_events=recorder.by_kind("analysis.loop"),
                )
            )

    diagnostics.sort(key=Diagnostic.sort_key)

    fixed_source: str | None = None
    if fix:
        fixed_source = pretty(_apply_fixes(term, canonical, result))

    report = LintReport(
        program=name,
        analyzer=analyzer,
        diagnostics=tuple(diagnostics),
        normalized=normalized,
        analysis_error=analysis_error,
        fixed_source=fixed_source,
    )
    _observe(report, trace, metrics)
    return report


def _apply_fixes(
    term: Term,
    canonical: Term | None,
    result: AnalysisResult | None,
) -> Term:
    """Every fix-it, applied in dependency order: canonicalize
    (uniquify + normalize), fold with the analysis facts, then drop
    dead bindings.  Each step is one of the repo's safe
    transformations, so the result preserves behaviour."""
    fixed = canonical if canonical is not None else normalize(term)
    if result is not None:
        fixed = constant_fold(fixed, result)
    return eliminate_dead_code(fixed)


def _observe(
    report: LintReport, trace: Sink, metrics: Metrics | None
) -> None:
    if metrics is not None:
        metrics.counter("lint.runs").inc()
        for diagnostic in report.diagnostics:
            metrics.counter("lint.fired").inc()
            metrics.counter(f"lint.fired.{diagnostic.code}").inc()
    if trace.enabled:
        for diagnostic in report.diagnostics:
            trace.emit(
                LintFired(
                    code=diagnostic.code,
                    severity=diagnostic.severity,
                    subject=diagnostic.subject or "",
                    analyzer=diagnostic.analyzer or "",
                )
            )


def has_errors(report: LintReport) -> bool:
    """True when any finding is error-severity (the CLI's exit-code
    condition for `repro.serve.codes`'s ``lint_error``)."""
    return any(d.severity == ERROR for d in report.diagnostics)
