"""The direct abstract collecting interpreter ``Me`` — paper Figure 4.

The analyzer abstracts the direct interpreter of Figure 1 by the 0CFA
store abstraction of Section 4.1 (one location per variable, values
joined) and the number abstraction of Section 4.2 (parametric here —
the paper fixes constant propagation).  Termination follows Section
4.4: every judgment ``(M, sigma)`` on the active derivation path is
recorded; re-encountering one returns the least precise value
``(⊤, CL⊤)`` paired with the current store.

The distinguishing rule is the conditional with an unknown test: both
branches are analyzed in the *current* store and their answers are
**merged before the continuation is analyzed** — this single merge
point is where the direct analysis loses the per-path precision that
the CPS analyzers retain by duplication (Theorem 5.2), and gains the
single-control-stack precision the syntactic-CPS analysis loses to
false returns (Theorem 5.1).
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.registry import analyzer_class
from repro.analysis.result import AnalysisResult
from repro.analysis.semantic_cps import SemanticCpsAnalyzer
from repro.domains.absval import AbsVal
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore
from repro.lang.ast import Term
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink


class DirectAnalyzer(SemanticCpsAnalyzer):
    """Figure 4, as an object so the active set, statistics and
    program-wide ``CL⊤`` live across the recursion.

    ``Me`` is the ``Ce`` machine of `SemanticCpsAnalyzer` with one rule
    changed (Theorem 5.4): with `joins_at_return`, an application,
    conditional or ``loop`` is analyzed under the empty continuation,
    its answers are joined at that return, and the rest of the
    let-spine is analyzed once in the joined store.  ``loop`` is the
    ``'top'`` rule there: the join of all naturals, bound once.
    """

    analyzer_name = "direct"
    joins_at_return = True
    loop_mode = "top"

    def __init__(
        self,
        term: Term,
        domain: NumDomain | None = None,
        initial: Mapping[str, AbsVal] | None = None,
        check: bool = True,
        max_visits: int | None = None,
        trace: Sink | None = None,
        metrics: Metrics | None = None,
        cache: bool = False,
    ) -> None:
        """Prepare an analysis of ``term``.

        Args:
            term: a program of the restricted (A-normal form) subset.
            domain: the abstract number domain (default: constant
                propagation, as in the paper).
            initial: assumptions for free variables, as a mapping from
                variable name to abstract value.
            check: validate that ``term`` is in the restricted subset.
            max_visits: optional work budget; exceeding it raises
                `BudgetExceeded`.
            trace: optional `repro.obs` sink receiving per-rule trace
                events (default: disabled, zero overhead).
            metrics: optional `repro.obs` metrics registry; the final
                stats are folded in under ``analysis.direct``.
            cache: turn the eval memo on; results are identical
                either way, only visit counts and wall time change.
        """
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.initial_store = AbsStore(self.lattice, initial)


def analyze_direct(
    term: Term,
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    check: bool = True,
    max_visits: int | None = None,
    trace: Sink | None = None,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
) -> AnalysisResult:
    """Run the direct data flow analysis (Figure 4) on ``term``.

    ``engine`` selects the implementation: ``"tree"`` (default)
    interprets the AST, ``"plan"`` runs the compiled instruction
    arrays of :mod:`repro.machine.absplan` — same judgments, same
    answer, same statistics (differentially tested).
    """
    return analyzer_class("direct", engine)(
        term,
        domain,
        initial,
        check,
        max_visits,
        trace=trace,
        metrics=metrics,
        cache=cache,
    ).run()
