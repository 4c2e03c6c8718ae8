"""Empirical survey: how often do the analyses actually differ?

The paper proves the direct and CPS analyses *can* differ in both
directions and argues the differences matter in practice.  This module
quantifies the phenomenon over program populations: it runs the N-way
comparison (direct, both CPS analyzers, and the pushdown analyzer)
over the corpus and over seeded random programs and tabulates the
Section 5 verdicts — plus the pushdown-vs-direct verdict, which
measures how often false returns actually bite — and the relative
analyzer costs.

``python -m repro survey --count 200`` prints the tabulation;
``--jobs N`` fans the per-program work out over N worker processes
(`repro.perf.parallel_map`).  Each program's outcome travels back as a
picklable `SurveyRow` and rows are folded in input order, so a
parallel survey aggregates to exactly the same `SurveyResult` as a
serial one.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.common import BudgetExceeded
from repro.analysis.compare import Precision
from repro.anf import normalize
from repro.api import run_comparison
from repro.corpus import PROGRAMS, CorpusProgram
from repro.domains.protocol import NumDomain
from repro.domains.absval import Lattice
from repro.domains.constprop import ConstPropDomain
from repro.gen import random_open_term, random_program
from repro.lang.syntax import free_variables, term_size
from repro.perf import effective_jobs, parallel_map

#: Default per-program analyzer work budget.  The syntactic-CPS
#: analyzer is worst-case super-exponential (Section 6.2 + false
#: returns); programs that blow past the budget are counted rather
#: than analyzed to completion.
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class SurveyRow:
    """One program's survey outcome, reduced to picklable plain data
    so it can cross a worker-process boundary."""

    direct_vs_syntactic: str
    semantic_vs_direct: str
    semantic_vs_syntactic: str
    direct_visits: int
    semantic_visits: int
    syntactic_visits: int
    size: int
    #: Empty string when the comparison ran without the pushdown
    #: analyzer (e.g. on the plan engine, which it does not support).
    pushdown_vs_direct: str = ""
    pushdown_visits: int = 0

    @staticmethod
    def from_report(report) -> "SurveyRow":
        """Reduce a `ComparisonReport` to its survey-relevant facts."""
        has_pushdown = report.pushdown is not None
        return SurveyRow(
            direct_vs_syntactic=report.direct_vs_syntactic.value,
            semantic_vs_direct=report.semantic_vs_direct.value,
            semantic_vs_syntactic=report.semantic_vs_syntactic.value,
            direct_visits=report.direct.stats.visits,
            semantic_visits=report.semantic.stats.visits,
            syntactic_visits=report.syntactic.stats.visits,
            size=term_size(report.term),
            pushdown_vs_direct=(
                report.pushdown_vs_direct.value if has_pushdown else ""
            ),
            pushdown_visits=(
                report.pushdown.stats.visits if has_pushdown else 0
            ),
        )


@dataclass
class SurveyResult:
    """Aggregated verdicts and costs over a program population."""

    population: str
    count: int = 0
    direct_vs_syntactic: Counter = field(default_factory=Counter)
    semantic_vs_direct: Counter = field(default_factory=Counter)
    semantic_vs_syntactic: Counter = field(default_factory=Counter)
    pushdown_vs_direct: Counter = field(default_factory=Counter)
    direct_visits: int = 0
    semantic_visits: int = 0
    syntactic_visits: int = 0
    pushdown_visits: int = 0
    total_size: int = 0
    budget_exceeded: int = 0

    def record(self, report) -> None:
        """Fold one comparison report into the aggregate."""
        self.record_row(SurveyRow.from_report(report))

    def record_row(self, row: "SurveyRow | None") -> None:
        """Fold one `SurveyRow` (None means the program blew the work
        budget) into the aggregate."""
        if row is None:
            self.budget_exceeded += 1
            return
        self.count += 1
        self.direct_vs_syntactic[row.direct_vs_syntactic] += 1
        self.semantic_vs_direct[row.semantic_vs_direct] += 1
        self.semantic_vs_syntactic[row.semantic_vs_syntactic] += 1
        if row.pushdown_vs_direct:
            self.pushdown_vs_direct[row.pushdown_vs_direct] += 1
        self.direct_visits += row.direct_visits
        self.semantic_visits += row.semantic_visits
        self.syntactic_visits += row.syntactic_visits
        self.pushdown_visits += row.pushdown_visits
        self.total_size += row.size

    def verdict_share(self, counter: Counter, verdict: Precision) -> float:
        """Fraction of the population with the given verdict."""
        if not self.count:
            return 0.0
        return counter[verdict.value] / self.count

    def summary(self) -> str:
        """A human-readable tabulation."""
        lines = [
            f"population: {self.population} "
            f"({self.count} programs analyzed, {self.budget_exceeded} "
            f"hit the work budget, avg size "
            f"{self.total_size / max(self.count, 1):.1f} nodes)",
            f"  mean analyzer visits: direct "
            f"{self.direct_visits / max(self.count, 1):.1f}, semantic-CPS "
            f"{self.semantic_visits / max(self.count, 1):.1f}, syntactic-CPS "
            f"{self.syntactic_visits / max(self.count, 1):.1f}, pushdown "
            f"{self.pushdown_visits / max(self.count, 1):.1f}",
        ]
        for label, counter in (
            ("direct vs syntactic-CPS", self.direct_vs_syntactic),
            ("semantic vs direct", self.semantic_vs_direct),
            ("semantic vs syntactic", self.semantic_vs_syntactic),
            ("pushdown vs direct", self.pushdown_vs_direct),
        ):
            shares = ", ".join(
                f"{verdict}: {count}" for verdict, count in counter.most_common()
            )
            lines.append(f"  {label:24} {shares}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Per-program workers (module-level, so multiprocessing can pickle
# them; they receive program *names* and random *seeds*, never terms
# or `CorpusProgram` records, whose initial-store builders are
# lambdas).
# ----------------------------------------------------------------------


def _survey_corpus_worker(args: tuple) -> "SurveyRow | None":
    name, budget, engine = args
    try:
        return SurveyRow.from_report(
            run_comparison(
                PROGRAMS[name],
                max_visits=budget,
                engine=engine,
            )
        )
    except BudgetExceeded:
        return None


def _survey_random_worker(args: tuple) -> "SurveyRow | None":
    seed, depth, budget, engine = args
    term = normalize(random_program(seed, depth))
    try:
        return SurveyRow.from_report(
            run_comparison(term, max_visits=budget, engine=engine)
        )
    except BudgetExceeded:
        return None


def _survey_random_open_worker(args: tuple) -> "SurveyRow | None":
    import random as _random

    seed, depth, inputs, budget, engine = args
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    term = normalize(random_open_term(_random.Random(seed), depth, inputs))
    initial = {
        name: lattice.of_num(domain.top) for name in free_variables(term)
    }
    try:
        return SurveyRow.from_report(
            run_comparison(
                term,
                domain=domain,
                initial=initial,
                max_visits=budget,
                engine=engine,
            )
        )
    except BudgetExceeded:
        return None


def _fold(population: str, rows: Iterable["SurveyRow | None"]) -> SurveyResult:
    result = SurveyResult(population)
    for row in rows:
        result.record_row(row)
    return result


def survey_programs(
    programs: Iterable[CorpusProgram],
    population: str,
    domain: NumDomain | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int | None = None,
    engine: str = "tree",
) -> SurveyResult:
    """Survey an iterable of corpus programs.

    ``jobs`` fans the programs out over worker processes; the parallel
    path requires the default domain and registry programs (anything
    else falls back to the serial loop, since program records carry
    unpicklable builders).
    """
    programs = list(programs)
    registry = all(PROGRAMS.get(p.name) is p for p in programs)
    if effective_jobs(jobs, len(programs)) > 1 and domain is None and registry:
        rows = parallel_map(
            _survey_corpus_worker,
            [(p.name, budget, engine) for p in programs],
            jobs=jobs,
        )
        return _fold(population, rows)

    def row_of(program: CorpusProgram) -> "SurveyRow | None":
        try:
            return SurveyRow.from_report(
                run_comparison(
                    program,
                    domain=domain,
                    max_visits=budget,
                    engine=engine,
                )
            )
        except BudgetExceeded:
            return None

    return _fold(population, (row_of(p) for p in programs))


def survey_corpus(
    domain: NumDomain | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int | None = None,
    engine: str = "tree",
) -> SurveyResult:
    """Survey the built-in corpus."""
    return survey_programs(
        PROGRAMS.values(),
        "corpus",
        domain,
        budget,
        jobs=jobs,
        engine=engine,
    )


def survey_random(
    count: int = 100,
    depth: int = 4,
    seed_base: int = 0,
    domain: NumDomain | None = None,
    budget: int = DEFAULT_BUDGET,
    jobs: int | None = None,
    engine: str = "tree",
) -> SurveyResult:
    """Survey ``count`` seeded random closed programs.

    Closed simply-typed programs fold completely under constant
    propagation, so all verdicts come out equal — included as the
    baseline population.  See :func:`survey_random_open` for the
    population where the paper's phenomena occur.
    """
    population = f"random-closed(depth={depth})"
    seeds = range(seed_base, seed_base + count)
    if effective_jobs(jobs, count) > 1 and domain is None:
        rows = parallel_map(
            _survey_random_worker,
            [(seed, depth, budget, engine) for seed in seeds],
            jobs=jobs,
        )
        return _fold(population, rows)

    def row_of(seed: int) -> "SurveyRow | None":
        term = normalize(random_program(seed, depth))
        try:
            return SurveyRow.from_report(
                run_comparison(
                    term,
                    domain=domain,
                    max_visits=budget,
                    engine=engine,
                )
            )
        except BudgetExceeded:
            return None

    return _fold(population, (row_of(seed) for seed in seeds))


def survey_random_open(
    count: int = 100,
    depth: int = 4,
    seed_base: int = 0,
    domain: NumDomain | None = None,
    budget: int = DEFAULT_BUDGET,
    inputs: tuple[str, ...] = ("in0", "in1"),
    jobs: int | None = None,
    engine: str = "tree",
) -> SurveyResult:
    """Survey random programs with unknown numeric inputs.

    Free inputs are assumed ⊤, so conditional tests and arithmetic stay
    statically unknown — the population where branch joins and
    duplication actually bite.
    """
    import random as _random

    population = f"random-open(depth={depth})"
    seeds = range(seed_base, seed_base + count)
    if effective_jobs(jobs, count) > 1 and domain is None:
        rows = parallel_map(
            _survey_random_open_worker,
            [(seed, depth, inputs, budget, engine) for seed in seeds],
            jobs=jobs,
        )
        return _fold(population, rows)

    domain = domain if domain is not None else ConstPropDomain()
    lattice = Lattice(domain)

    def row_of(seed: int) -> "SurveyRow | None":
        term = normalize(
            random_open_term(_random.Random(seed), depth, inputs)
        )
        initial = {
            name: lattice.of_num(domain.top)
            for name in free_variables(term)
        }
        try:
            return SurveyRow.from_report(
                run_comparison(
                    term,
                    domain=domain,
                    initial=initial,
                    max_visits=budget,
                    engine=engine,
                )
            )
        except BudgetExceeded:
            return None

    return _fold(population, (row_of(seed) for seed in seeds))
