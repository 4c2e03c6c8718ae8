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

from functools import cached_property
from typing import Hashable, Mapping

from repro.analysis.common import (
    A_DEC,
    A_INC,
    AAnswer,
    AbsClo,
    WorkBudgetMixin,
    abstract_value,
    canonical_order,
    closures_of_store,
    closures_of_term,
)
from repro.analysis.registry import analyzer_class
from repro.analysis.result import AnalysisResult
from repro.domains.absval import AbsVal
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore
from repro.lang.ast import (
    App,
    If0,
    Let,
    Loop,
    PrimApp,
    Term,
    is_value,
)
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink


class DirectAnalyzer(WorkBudgetMixin):
    """Figure 4, as an object so the active set, statistics and
    program-wide ``CL⊤`` live across the recursion."""

    analyzer_name = "direct"

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

    @cached_property
    def top_value(self) -> AbsVal:
        """The least precise value: ``(⊤, CL⊤)`` (Section 4.4).  Built
        on first use: only a loop cut reads it."""
        cl_top = closures_of_term(self.term) | closures_of_store(
            self.initial_store
        )
        return AbsVal(self.lattice.domain.top, cl_top)

    # ------------------------------------------------------------------
    # phi_e: abstract syntactic values (Figure 4, auxiliary function)
    # ------------------------------------------------------------------

    def eval_value(self, value: Term, store: AbsStore) -> AbsVal:
        """``phi_e``: the abstract value of a syntactic value."""
        return abstract_value(self.lattice, value, store)

    # ------------------------------------------------------------------
    # Me: abstract evaluation of terms
    # ------------------------------------------------------------------

    def eval(self, term: Term, store: AbsStore) -> AAnswer:
        """``Me``: analyze ``term`` in ``store``.

        With memoization off this is exactly `_eval`; with it on, the
        frame around `_eval` tracks the taint / footprint bookkeeping
        that keeps cached answers bit-identical to uncached ones (see
        `WorkBudgetMixin`).
        """
        if self._memo is None:
            return self._eval(term, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(term, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            (id(term), store),
            start_seq,
            footprint,
            answer,
            cacheable=not is_value(term),
        )

    def _eval(self, term: Term, store: AbsStore) -> AAnswer:
        """The Figure 4 ``Me`` clauses proper.

        Walks the let-spine iteratively; every intermediate judgment
        ``(M, sigma)`` is registered on the active path so the
        Section 4.4 loop detection fires exactly as in the paper.
        """
        registered: list[tuple[int, AbsStore]] = []
        memo = self._memo
        self._depth += 1
        self.stats.max_depth = max(self.stats.max_depth, self._depth)
        try:
            while True:
                self.tick(term)
                if is_value(term):
                    # Value judgments have no recursive premises, so
                    # they never need loop detection.
                    return AAnswer(self.eval_value(term, store), store)
                key = (id(term), store)
                owner = self._active.get(key)
                if owner is not None:
                    self.note_loop_cut(owner, term)
                    return AAnswer(self.top_value, store)
                if memo is not None:
                    hit = self.memo_probe(key, key, term)
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)
                if not isinstance(term, Let):
                    raise TypeError(
                        f"term is not in the restricted subset: {term!r}"
                    )
                name, rhs, body = term.name, term.rhs, term.body
                if is_value(rhs):
                    result = self.eval_value(rhs, store)
                elif isinstance(rhs, App):
                    fun = self.eval_value(rhs.fun, store)
                    arg = self.eval_value(rhs.arg, store)
                    answer = self.apply(fun, arg, store)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, If0):
                    answer = self._branch(rhs, store)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, PrimApp):
                    result = self._primop(rhs, store)
                elif isinstance(rhs, Loop):
                    # Section 6.2: the exact collecting semantics of
                    # `loop` is {0, 1, 2, ...}; its direct abstraction
                    # is the join of all naturals.
                    result = self.lattice.of_num(self.lattice.domain.iota)
                else:
                    raise TypeError(f"invalid let right-hand side: {rhs!r}")
                store = self.bind_join(store, name, result)
                term = body
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    # ------------------------------------------------------------------
    # app_e: abstract application (Figure 4)
    # ------------------------------------------------------------------

    def apply(self, fun: AbsVal, arg: AbsVal, store: AbsStore) -> AAnswer:
        """``app_e``: apply every abstract closure in the function
        position and join the resulting answers."""
        lattice = self.lattice
        domain = lattice.domain
        value = lattice.bottom
        out_store = store
        seen = 0
        for clo in canonical_order(fun.clos):
            if clo is A_INC:
                branch_value = lattice.of_num(domain.add1(arg.num))
                branch_store = store
            elif clo is A_DEC:
                branch_value = lattice.of_num(domain.sub1(arg.num))
                branch_store = store
            elif isinstance(clo, AbsClo):
                entry = self.bind_join(store, clo.param, arg)
                answer = self.eval(clo.body, entry)
                branch_value, branch_store = answer.value, answer.store
            else:
                # CPS-only closures cannot appear in a direct analysis.
                raise TypeError(f"unexpected abstract closure {clo!r}")
            seen += 1
            if seen > 1:
                self.count_join("apply")
            value = lattice.join(value, branch_value)
            out_store = out_store.join(branch_store)
        return AAnswer(value, out_store)

    # ------------------------------------------------------------------
    # Conditionals and operators
    # ------------------------------------------------------------------

    def _branch(self, rhs: If0, store: AbsStore) -> AAnswer:
        """The two ``if0`` rules of Figure 4: a definite test selects
        one branch; an indefinite test analyzes both **and merges the
        answers before the continuation**."""
        test = self.eval_value(rhs.test, store)
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test.num)
        nonzero_possible = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero_possible and not nonzero_possible:
            return self.eval(rhs.then, store)
        if nonzero_possible and not zero_possible:
            return self.eval(rhs.orelse, store)
        if not zero_possible and not nonzero_possible:
            # No value reaches the test: the conditional is dead code.
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(rhs.then, store)
        else_answer = self.eval(rhs.orelse, store)
        return self.join_answers(then_answer, else_answer, "if0")

    def _primop(self, rhs: PrimApp, store: AbsStore) -> AbsVal:
        """Abstract a second-class operator application."""
        domain = self.lattice.domain
        nums: list[Hashable] = [
            self.eval_value(arg, store).num for arg in rhs.args
        ]
        return self.lattice.of_num(domain.binop(rhs.op, nums[0], nums[1]))


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
