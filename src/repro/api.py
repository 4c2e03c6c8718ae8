"""High-level facade: run the paper's analyzers side by side.

This is the entry point most downstream users want::

    from repro import api
    report = api.run_comparison("(let (a1 (f 1)) (let (a2 (f 2)) a2))",
                                initial={"f": ...})
    report.direct.constant_of("a1")      # 1
    report.direct_vs_syntactic           # Precision.LEFT_MORE_PRECISE
    report.pushdown_vs_direct            # Precision.LEFT_MORE_PRECISE

Accepts raw source text, arbitrary A terms (normalized on the fly), or
`CorpusProgram` records.  `run_comparison` is N-way over the canonical
comparison analyzers (`repro.analysis.registry.COMPARISON_ANALYZERS`),
each built by the registry's one dispatch, which also carries the
initial store to the CPS side by δe.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.analysis.common import front_end_headroom
from repro.analysis.compare import (
    Precision,
    compare_direct_to_cps,
    compare_pushdown_to_direct,
    compare_semantic_to_direct,
    compare_semantic_to_syntactic,
)
from repro.analysis.registry import (
    COMPARISON_ANALYZERS,
    analyzer_class,
    build_analyzer,
    canonical_analyzer,
    engine_analyzers,
)
from repro.analysis.result import AnalysisResult
from repro.anf import is_anf, normalize
from repro.corpus.programs import CorpusProgram
from repro.cps import cps_transform
from repro.cps.ast import CTerm
from repro.domains.absval import AbsVal, Lattice
from repro.domains.constprop import ConstPropDomain
from repro.domains.protocol import NumDomain
from repro.lang.ast import Term, TERM_CLASSES
from repro.lang.parser import parse
from repro.lang.syntax import free_variables
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink

#: The classic paper trio (the plan engine's default selection).
THREE_WAY_ANALYZERS: tuple[str, ...] = (
    "direct",
    "semantic-cps",
    "syntactic-cps",
)


def prepare(program: "str | Term | CorpusProgram") -> Term:
    """Turn source text / an arbitrary term / a corpus entry into a
    program of the restricted subset.

    Runs under `front_end_headroom`, and fills every node's cached
    hash there, so no later first hash of the program recurses
    outside the headroom."""
    if isinstance(program, CorpusProgram):
        return program.term
    with front_end_headroom():
        if isinstance(program, str):
            program = parse(program)
        if not isinstance(program, TERM_CLASSES):
            raise TypeError(f"not an A program: {program!r}")
        if not is_anf(program):
            program = normalize(program)
        hash(program)
    return program


def analysis_initial(
    term: Term,
    lattice: Lattice,
    assume: Mapping[str, int],
    base: Mapping[str, AbsVal] | None = None,
) -> dict[str, AbsVal]:
    """The initial abstract store for analyzing the open program
    ``term``: ``base`` (e.g. a corpus entry's assumptions), then each
    free variable named in ``assume`` as that constant, and ⊤ for every
    other free variable ``base`` leaves out."""
    initial = dict(base or {})
    for name in sorted(free_variables(term)):
        if name in assume:
            initial[name] = lattice.of_const(assume[name])
        elif name not in initial:
            initial[name] = lattice.of_num(lattice.domain.top)
    return initial


@dataclass(frozen=True)
class ComparisonReport:
    """Results of the comparison analyzers on one program, plus the
    Section 5 pairwise verdicts.

    An analyzer that was not requested leaves its field ``None``;
    verdict properties involving it raise ``ValueError``.  By default
    `run_comparison` runs the classic three, plus the pushdown
    analyzer on the tree engine.
    """

    term: Term
    cps_term: CTerm
    direct: AnalysisResult | None
    semantic: AnalysisResult | None
    syntactic: AnalysisResult | None
    pushdown: AnalysisResult | None = None

    def _require(self, name: str) -> AnalysisResult:
        result = getattr(self, name)
        if result is None:
            raise ValueError(
                f"the {name} analyzer was not part of this comparison"
            )
        return result

    @property
    def results(self) -> tuple[AnalysisResult, ...]:
        """The results that were actually computed, in canonical order."""
        return tuple(
            result
            for result in (
                self.direct,
                self.semantic,
                self.syntactic,
                self.pushdown,
            )
            if result is not None
        )

    @property
    def direct_vs_syntactic(self) -> Precision:
        """The Theorem 5.1/5.2 comparison (incomparable in general)."""
        return compare_direct_to_cps(
            self._require("direct"), self._require("syntactic")
        )

    @property
    def semantic_vs_direct(self) -> Precision:
        """The Theorem 5.4 comparison (semantic is never worse)."""
        return compare_semantic_to_direct(
            self._require("semantic"), self._require("direct")
        )

    @property
    def semantic_vs_syntactic(self) -> Precision:
        """The Theorem 5.5 comparison (semantic is never worse)."""
        return compare_semantic_to_syntactic(
            self._require("semantic"), self._require("syntactic")
        )

    @property
    def pushdown_vs_direct(self) -> Precision:
        """The pushdown-vs-direct comparison (pushdown is never worse:
        call/return matching only removes false returns)."""
        return compare_pushdown_to_direct(
            self._require("pushdown"), self._require("direct")
        )

    def summary(self) -> str:
        """A human-readable multi-line summary."""
        lines = []
        if self.direct is not None:
            lines.append(
                f"direct       : value={self.direct.value!r} "
                f"visits={self.direct.stats.visits}"
            )
        if self.semantic is not None:
            lines.append(
                f"semantic-CPS : value={self.semantic.value!r} "
                f"visits={self.semantic.stats.visits}"
            )
        if self.syntactic is not None:
            lines.append(
                f"syntactic-CPS: value={self.syntactic.value!r} "
                f"visits={self.syntactic.stats.visits}"
            )
        if self.pushdown is not None:
            lines.append(
                f"pushdown     : value={self.pushdown.value!r} "
                f"visits={self.pushdown.stats.visits}"
            )
        if self.direct is not None and self.syntactic is not None:
            lines.append(
                f"direct vs syntactic-CPS : {self.direct_vs_syntactic.value}"
            )
        if self.semantic is not None and self.direct is not None:
            lines.append(
                f"semantic vs direct      : {self.semantic_vs_direct.value}"
            )
        if self.semantic is not None and self.syntactic is not None:
            lines.append(
                f"semantic vs syntactic   : {self.semantic_vs_syntactic.value}"
            )
        if self.pushdown is not None and self.direct is not None:
            lines.append(
                f"pushdown vs direct      : {self.pushdown_vs_direct.value}"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The comparison as JSON (the ``repro analyze --json`` and
        ``/v1/compare`` bodies): the three classic results, their
        verdicts, and the pushdown result and verdict when it ran."""
        body = {
            "direct": self.direct.to_dict(),
            "semantic_cps": self.semantic.to_dict(),
            "syntactic_cps": self.syntactic.to_dict(),
            "verdicts": {
                "direct_vs_syntactic": self.direct_vs_syntactic.value,
                "semantic_vs_direct": self.semantic_vs_direct.value,
                "semantic_vs_syntactic": self.semantic_vs_syntactic.value,
            },
        }
        if self.pushdown is not None:
            body["pushdown"] = self.pushdown.to_dict()
            body["verdicts"]["pushdown_vs_direct"] = (
                self.pushdown_vs_direct.value
            )
        return body

    def work_summary(self) -> str:
        """A per-analyzer table of the obs work counters — the paper's
        direct-vs-CPS cost comparison (Section 6.2) on this program."""
        header = (
            f"{'analyzer':14} {'visits':>8} {'joins':>7} {'widenings':>10} "
            f"{'loop_cuts':>10} {'returns':>8} {'max_store':>10}"
        )
        lines = [header]
        for result in self.results:
            stats = result.stats
            lines.append(
                f"{result.analyzer:14} {stats.visits:>8} {stats.joins:>7} "
                f"{stats.widenings:>10} {stats.loop_cuts:>10} "
                f"{stats.returns_analyzed:>8} {stats.max_store_size:>10}"
            )
        return "\n".join(lines)


def run_comparison(
    program: "str | Term | CorpusProgram",
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    analyzers: Iterable[str] | None = None,
    loop_mode: str = "reject",
    unroll_bound: int = 32,
    max_visits: int | None = None,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
) -> ComparisonReport:
    """Run the comparison analyzers on one program.

    Args:
        program: source text, an A term, or a corpus entry (whose
            bundled initial assumptions are used unless ``initial``
            overrides them).
        domain: the abstract number domain (default: constant
            propagation).
        initial: free-variable assumptions, in the *direct* abstract
            domain; the syntactic-CPS analyzer receives their δe image.
        analyzers: which analyzers to run (canonical names or aliases
            from `repro.analysis.registry`).  Default: all comparison
            analyzers the engine supports — the classic three plus
            pushdown on the tree engine; the classic three on the plan
            engine (the pushdown analyzer is tree-only, and asking for
            it explicitly with ``engine="plan"`` raises
            `EngineUnsupported`).
        loop_mode, unroll_bound: `loop` handling for the CPS analyzers.
        max_visits: optional per-analyzer work budget (the CPS
            analyzers are worst-case exponential, Section 6.2);
            exceeding it raises `BudgetExceeded`.
        trace: optional `repro.obs` sink shared by all analyzers
            (events carry the analyzer name; default: disabled).
        metrics: optional `repro.obs` registry; each analyzer gets an
            ``analyze.<name>`` timing span and folds its stats in
            under ``analysis.<name>``.
        cache: turn the eval memo on in every analyzer; results are
            identical either way, only visit counts change.
        engine: ``"tree"`` (default) interprets the AST; ``"plan"``
            runs the compiled-plan engines of
            :mod:`repro.analysis.engine` — same answers, same
            statistics (differentially tested).

    Returns:
        A `ComparisonReport` with the results and pairwise verdicts.
    """
    if analyzers is None:
        # Every comparison analyzer the engine has (pushdown is
        # tree-only).
        wanted = engine_analyzers(engine)
    else:
        wanted = {
            canonical_analyzer(name, COMPARISON_ANALYZERS)
            for name in analyzers
        }
        for name in wanted:
            # An unsupported pair fails before any analyzer runs.
            analyzer_class(name, engine)
    # Each at most once, in canonical order.
    selected = tuple(name for name in COMPARISON_ANALYZERS if name in wanted)
    domain = domain if domain is not None else ConstPropDomain()
    if initial is None and isinstance(program, CorpusProgram):
        initial = program.initial_for(Lattice(domain))
    term = prepare(program)
    options = dict(
        engine=engine,
        domain=domain,
        initial=initial,
        loop_mode=loop_mode,
        unroll_bound=unroll_bound,
        max_visits=max_visits,
        trace=trace,
        metrics=metrics,
        cache=cache,
    )
    # One cps_transform per program, and it validates the A term: the
    # syntactic-CPS analyzer is built first, so the direct-style
    # analyzers below reuse that check (check=False).
    prebuilt = {}
    if "syntactic-cps" in selected:
        prebuilt["syntactic-cps"] = build_analyzer(
            "syntactic-cps", term, **options
        )
        cps_term = prebuilt["syntactic-cps"].term
    else:
        with front_end_headroom():
            cps_term = cps_transform(term)
            hash(cps_term)
    span = metrics.span if metrics is not None else nullcontext
    results = {}
    for name in selected:
        with span(f"analyze.{name}"):
            # Popped, so a finished analyzer is not kept alive through
            # the later runs.
            analyzer = prebuilt.pop(name, None)
            if analyzer is None:
                analyzer = build_analyzer(name, term, check=False, **options)
            results[name] = analyzer.run()
    # The report's result fields follow COMPARISON_ANALYZERS order.
    return ComparisonReport(
        term,
        cps_term,
        *(results.get(name) for name in COMPARISON_ANALYZERS),
    )
