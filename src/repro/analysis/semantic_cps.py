"""The semantic-CPS abstract collecting interpreter ``Ce`` — Figure 5.

The analyzer abstracts the machine of Figure 2: the continuation is an
explicit stack of abstract frames ``(let (x []) M)`` (environments are
dropped by the 0CFA abstraction).  The crucial difference from the
direct analyzer is the return operation ``appre``: when a conditional
(or a call with several abstract closures) splits the analysis, the
continuation frames are re-analyzed **per path** and the results are
joined only at the very end — the *duplication* of Section 6.2, which
gains precision in non-distributive analyses (Theorem 5.4) at
worst-case exponential cost.

Loop detection (Section 4.4) keys on ``(M, sigma)`` only — not on the
continuation — and on a hit returns ``(⊤, CL⊤)`` *to the current
continuation* (the frames still get analyzed with the top value).

For the Section 6.2 ``loop`` construct the exact result is the
undecidable join ``⊔_i appre(κ, (i, ∅))``; the ``loop_mode``
constructor argument selects between raising `NonComputableError`
(default, the faithful reading), applying the continuation once to the
join of all naturals (sound but duplication-free), or unrolling a
finite prefix (demonstrative, unsound in general).

The class is the one machine for both Figure 4 and Figure 5.  Theorem
5.4's difference is its class constant `joins_at_return`: ``False``
here, ``True`` for `repro.analysis.direct.DirectAnalyzer`, which runs
each application, conditional and ``loop`` under the empty
continuation and joins at its return before going on down the spine.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from repro.analysis.common import (
    A_DEC,
    A_INC,
    AAnswer,
    AbsClo,
    AFrame,
    AKont,
    CpsAnalyzerMixin,
    canonical_order,
    closures_of_store,
    closures_of_term,
)
from repro.analysis.registry import analyzer_class
from repro.analysis.result import AnalysisResult
from repro.domains.absval import AbsVal
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore
from repro.lang.ast import App, If0, Let, Loop, PrimApp, Term, Var, is_value
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink


class SemanticCpsAnalyzer(CpsAnalyzerMixin):
    """Figure 5, with Section 4.4 loop detection."""

    analyzer_name = "semantic-cps"
    #: Theorem 5.4's one rule: ``False`` runs the rest of the let-spine
    #: once per path, through a pushed frame (``Ce``); ``True`` joins
    #: the paths at the return of the right-hand side and runs the rest
    #: once (``Me``).
    joins_at_return = False
    cut_values = False
    loop_reject_message = (
        "semantic-CPS analysis of `loop` requires the join of "
        "appre(kont, (i, {})) over all naturals i, which is "
        "undecidable (paper Section 6.2); re-run with "
        "loop_mode='top' or loop_mode='unroll'"
    )

    def __init__(
        self,
        term: Term,
        domain: NumDomain | None = None,
        initial: Mapping[str, AbsVal] | None = None,
        loop_mode: str = "reject",
        unroll_bound: int = 32,
        check: bool = True,
        cut_values: bool = False,
        max_visits: int | None = None,
        trace: Sink | None = None,
        metrics: Metrics | None = None,
        cache: bool = False,
    ) -> None:
        """Prepare an analysis of ``term``.

        Args:
            term: a program of the restricted subset.
            domain: abstract number domain (default constant propagation).
            initial: assumptions for free variables.
            loop_mode: treatment of the ``loop`` construct — 'reject'
                (raise), 'top', or 'unroll' (see module docstring).
            unroll_bound: iterations joined in 'unroll' mode.
            check: validate that ``term`` is in the restricted subset.
            cut_values: ablation switch — also register *value*
                judgments in the Section 4.4 active set (the literal
                reading of "the arguments (M, σ) have already been
                considered").  Termination does not need it, and it
                lets cuts deliver (⊤, CL⊤) straight into join frames,
                perturbing the Theorem 5.4 relationship on recursive
                programs; see DESIGN.md §3.5.
            trace: optional `repro.obs` sink receiving per-rule trace
                events (default: disabled, zero overhead).
            metrics: optional `repro.obs` metrics registry.
            cache: turn the eval memo on; results are identical
                either way, only visit counts and wall time change.
        """
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.init_loop(loop_mode, unroll_bound)
        self.cut_values = cut_values
        self.initial_store = AbsStore(self.lattice, initial)

    @cached_property
    def top_value(self) -> AbsVal:
        """The least precise value ``(⊤, CL⊤)`` (Section 4.4), built on
        first use: only a loop cut reads it."""
        cl_top = closures_of_term(self.term) | closures_of_store(
            self.initial_store
        )
        return AbsVal(self.lattice.domain.top, cl_top)

    def run(self, kont: AKont = ()) -> AnalysisResult:
        """Analyze the program under continuation ``kont`` (default nil)."""
        return super().run(kont)

    def _entry(self, kont: AKont) -> AAnswer:
        return self.eval(self.term, kont, self.initial_store)

    # ------------------------------------------------------------------
    # phi_e (Figures 4 and 5)
    # ------------------------------------------------------------------

    def eval_value(self, value: Term, store: AbsStore) -> AbsVal:
        """``phi_e``: the abstract value of a syntactic value (off a
        variable, from the φ table)."""
        if type(value) is Var:
            return store.get(value.name)
        return self.phi(value)

    # ------------------------------------------------------------------
    # Ce (and Me)
    # ------------------------------------------------------------------

    def eval(self, term: Term, kont: AKont, store: AbsStore) -> AAnswer:
        """``Ce``: analyze ``term`` with continuation ``kont`` (``Me``
        when `joins_at_return`, where ``kont`` is always empty).

        With memoization off this is exactly `_eval`; with it on, the
        frame around `_eval` tracks the taint / footprint bookkeeping
        that keeps cached answers bit-identical to uncached ones (see
        `WorkBudgetMixin`).  Memo keys include the continuation: an
        answer here is the value delivered through every frame below.
        """
        if self._memo is None:
            return self._eval(term, kont, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(term, kont, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            (id(term), kont, store),
            start_seq,
            footprint,
            answer,
            cacheable=not is_value(term),
        )

    def _eval(self, term: Term, kont: AKont, store: AbsStore) -> AAnswer:
        """The Figure 5 ``Ce`` clauses proper — and, with
        `joins_at_return`, the Figure 4 ``Me`` clauses.

        Walks the let-spine iteratively; every intermediate judgment
        ``(M, sigma)`` is registered on the active path so the Section
        4.4 loop detection fires exactly as in the paper.  At an
        application, conditional or ``loop`` the two figures part:
        ``Ce`` pushes the frame ``(let (x []) M)`` and returns the
        per-path answers; ``Me`` analyzes the right-hand side under
        the empty continuation, binds the joined answer and goes on
        down the spine once.
        """
        registered: list[tuple[int, AbsStore]] = []
        memo = self._memo
        self._depth += 1
        self.stats.max_depth = max(self.stats.max_depth, self._depth)
        try:
            while True:
                self.tick(term)
                if is_value(term) and not self.cut_values:
                    # Value judgments are not registered: any infinite
                    # derivation passes through let-headed judgments
                    # infinitely often, so cutting there suffices for
                    # termination — and cutting at values would deliver
                    # (⊤, CL⊤) straight into join frames, perturbing
                    # the Theorem 5.4 relationship on recursive
                    # programs (see DESIGN.md §3.5; the `cut_values`
                    # ablation switch restores the literal reading).
                    return self.ret(
                        kont, self.eval_value(term, store), store
                    )
                key = (id(term), store)
                owner = self._active.get(key)
                if owner is not None:
                    # Section 4.4: return (⊤, CL⊤) *to the continuation*.
                    self.note_loop_cut(owner, term)
                    return self.ret(kont, self.top_value, store)
                if memo is not None and not is_value(term):
                    hit = self.memo_probe((id(term), kont, store), key, term)
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)
                if is_value(term):
                    return self.ret(
                        kont, self.eval_value(term, store), store
                    )
                if not isinstance(term, Let):
                    raise TypeError(
                        f"term is not in the restricted subset: {term!r}"
                    )
                name, rhs, body = term.name, term.rhs, term.body
                if is_value(rhs):
                    result = self.eval_value(rhs, store)
                elif isinstance(rhs, PrimApp):
                    nums = [
                        self.eval_value(a, store).num for a in rhs.args
                    ]
                    result = self.lattice.of_num(
                        self.lattice.domain.binop(rhs.op, nums[0], nums[1])
                    )
                else:
                    joins = self.joins_at_return
                    inner: AKont = (
                        () if joins else (AFrame(name, body),) + kont
                    )
                    if isinstance(rhs, App):
                        fun = self.eval_value(rhs.fun, store)
                        arg = self.eval_value(rhs.arg, store)
                        answer = self.apply(fun, arg, inner, store)
                    elif isinstance(rhs, If0):
                        answer = self._branch(rhs, inner, store)
                    elif isinstance(rhs, Loop):
                        answer = self._loop(inner, store)
                    else:
                        raise TypeError(
                            f"invalid let right-hand side: {rhs!r}"
                        )
                    if not joins:
                        return answer
                    result, store = answer.value, answer.store
                store = self.bind_join(store, name, result)
                term = body
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    # ------------------------------------------------------------------
    # appk_e (app_e): abstract application
    # ------------------------------------------------------------------

    def apply(
        self, fun: AbsVal, arg: AbsVal, kont: AKont, store: AbsStore
    ) -> AAnswer:
        """``appk_e``: apply every abstract closure, each returning
        through the (duplicated) continuation; join the answers.  Under
        the empty continuation this is Figure 4's ``app_e``."""
        lattice = self.lattice
        domain = lattice.domain
        answer: AAnswer | None = None
        for clo in canonical_order(fun.clos):
            if clo is A_INC:
                branch = self.ret(
                    kont, lattice.of_num(domain.add1(arg.num)), store
                )
            elif clo is A_DEC:
                branch = self.ret(
                    kont, lattice.of_num(domain.sub1(arg.num)), store
                )
            elif isinstance(clo, AbsClo):
                entry = self.bind_join(store, clo.param, arg)
                branch = self.eval(clo.body, kont, entry)
            else:
                raise TypeError(f"unexpected abstract closure {clo!r}")
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "apply")
            )
        if answer is None:
            return AAnswer(self.lattice.bottom, store)
        return answer

    # ------------------------------------------------------------------
    # appr_e: the return operation
    # ------------------------------------------------------------------

    def ret(self, kont: AKont, value: AbsVal, store: AbsStore) -> AAnswer:
        """``appr_e``: return ``value`` through the continuation.

        This is where the CPS-style duplication lives: every caller
        that reaches a return with a different value re-analyzes the
        frames below."""
        if not kont:
            return AAnswer(value, store)
        self.stats.returns_analyzed += 1
        frame, rest = kont[0], kont[1:]
        return self.eval(
            frame.body, rest, self.bind_join(store, frame.name, value)
        )

    # ------------------------------------------------------------------
    # Conditionals (``loop`` is `CpsAnalyzerMixin._loop`)
    # ------------------------------------------------------------------

    def _branch(self, rhs: If0, inner: AKont, store: AbsStore) -> AAnswer:
        """The ``if0`` rules of Figures 4 and 5: a definite test selects
        one branch; an indefinite test analyzes both under ``inner``
        and joins the answers.  In ``Ce``, ``inner`` holds the join
        frame, so each branch runs the rest of the program on its own;
        in ``Me`` it is empty, so the answers **merge before the
        continuation**."""
        test = self.eval_value(rhs.test, store)
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test.num)
        nonzero_possible = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero_possible and not nonzero_possible:
            return self.eval(rhs.then, inner, store)
        if nonzero_possible and not zero_possible:
            return self.eval(rhs.orelse, inner, store)
        if not zero_possible and not nonzero_possible:
            # No value reaches the test: the conditional is dead code.
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(rhs.then, inner, store)
        else_answer = self.eval(rhs.orelse, inner, store)
        return self.join_answers(then_answer, else_answer, "if0")


def analyze_semantic_cps(
    term: Term,
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    loop_mode: str = "reject",
    unroll_bound: int = 32,
    check: bool = True,
    max_visits: int | None = None,
    trace: Sink | None = None,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
) -> AnalysisResult:
    """Run the semantic-CPS data flow analysis (Figure 5) on ``term``.

    ``engine="plan"`` runs the compiled-plan implementation (same
    judgments and statistics; see :mod:`repro.analysis.engine`).
    """
    return analyzer_class("semantic-cps", engine)(
        term, domain, initial, loop_mode, unroll_bound, check,
        max_visits=max_visits, trace=trace, metrics=metrics, cache=cache,
    ).run()
