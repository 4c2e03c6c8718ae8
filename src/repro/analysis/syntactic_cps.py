"""The syntactic-CPS abstract collecting interpreter ``Ms`` — Figure 6.

The analyzer abstracts the interpreter of Figure 3.  Because the CPS
transformation reifies continuations into values the program
manipulates, the analysis must collect, at every continuation variable
``k``, the *set* of abstract continuations ``(coe x, P)`` that may
flow there — and a return ``(k W)`` applies **every** collected
continuation and joins the results.  This is the *false return*
problem of Section 6.1 (Theorem 5.1, and Shivers' 0CFA example):
distinct procedure returns are confused, so the analysis may follow
infeasible paths.

At the same time, each individual continuation application re-analyzes
the continuation body per incoming value — the same duplication as the
semantic-CPS analyzer — so the analysis may also *gain* information
over the direct analyzer in non-distributive analyses (Theorem 5.2).
Theorem 5.5 bounds it from above by the semantic-CPS analysis.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping

from repro.analysis.common import (
    A_DECK,
    A_INCK,
    A_STOP,
    AAnswer,
    AbsCo,
    AbsCpsClo,
    CpsAnalyzerMixin,
    canonical_order,
    closures_of_store,
    cps_tops_of_term,
    konts_of_store,
)
from repro.analysis.registry import analyzer_class
from repro.analysis.result import AnalysisResult
from repro.cps.ast import (
    CApp,
    CIf0,
    CLam,
    CLet,
    CLoop,
    CNum,
    CPrim,
    CPrimLet,
    CTerm,
    CValue,
    CVar,
    KApp,
    KLam,
)
from repro.cps.transform import TOP_KVAR
from repro.cps.validate import validate_cps
from repro.domains.absval import AbsVal, Lattice
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink


class SyntacticCpsAnalyzer(CpsAnalyzerMixin):
    """Figure 6, with Section 4.4 loop detection."""

    analyzer_name = "syntactic-cps"
    loop_reject_message = (
        "syntactic-CPS analysis of `loop` requires the join of "
        "the continuation applied to every natural, which is "
        "undecidable (paper Section 6.2); re-run with "
        "loop_mode='top' or loop_mode='unroll'"
    )

    def __init__(
        self,
        term: CTerm,
        domain: NumDomain | None = None,
        initial: Mapping[str, AbsVal] | None = None,
        top_kvar: str = TOP_KVAR,
        loop_mode: str = "reject",
        unroll_bound: int = 32,
        check: bool = True,
        max_visits: int | None = None,
        trace: Sink | None = None,
        metrics: Metrics | None = None,
        cache: bool = False,
    ) -> None:
        """Prepare an analysis of the cps(A) program ``term``.

        Args:
            term: a cps(A) program, usually ``cps_transform(M)``.
            domain: abstract number domain (default constant propagation).
            initial: assumptions for free variables — pass the δe-image
                of the direct initial store (see
                :func:`repro.analysis.delta.delta_store`).
            top_kvar: the program's continuation variable; if absent
                from ``initial`` it is bound to ``{stop}``.
            loop_mode: treatment of the ``loop`` construct ('reject',
                'top', or 'unroll').
            unroll_bound: iterations joined in 'unroll' mode.
            check: validate the cps(A) grammar and scoping.
            trace: optional `repro.obs` sink receiving per-rule trace
                events (default: disabled, zero overhead).
            metrics: optional `repro.obs` metrics registry.
            cache: turn the eval memo on; results are identical
                either way, only visit counts and wall time change.
        """
        self._top_kvar = top_kvar
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.init_loop(loop_mode, unroll_bound)
        self.initial_store = _cps_initial_store(
            self.lattice, initial, top_kvar
        )

    def check_term(self, term: CTerm) -> None:
        """The cps(A) grammar and scoping, with ``top_kvar`` free."""
        validate_cps(term, frozenset((self._top_kvar,)))

    @cached_property
    def top_value(self) -> AbsVal:
        """The least precise value ``(⊤, CL⊤, K⊤)`` (Section 4.4), built
        on first use: only a loop cut reads it."""
        closures, konts = cps_tops_of_term(self.term)
        return AbsVal(
            self.lattice.domain.top,
            closures | closures_of_store(self.initial_store),
            konts | konts_of_store(self.initial_store),
        )

    # ------------------------------------------------------------------
    # phi_s: abstract cps(A) values
    # ------------------------------------------------------------------

    def eval_value(self, value: CValue, store: AbsStore) -> AbsVal:
        """``phi_s`` of Figure 6 (off a variable, from the φ table)."""
        if type(value) is CVar:
            return store.get(value.name)
        return self.phi(value)

    def build_phi(self, node) -> AbsVal:
        """``phi_s`` of a non-variable value, and the continuation
        value ``{(coe x, P)}`` of a continuation lambda, built afresh."""
        lattice = self.lattice
        match node:
            case CNum(n):
                return lattice.of_const(n)
            case CPrim("add1k"):
                return lattice.of_clos(A_INCK)
            case CPrim("sub1k"):
                return lattice.of_clos(A_DECK)
            case CLam(param, kparam, body):
                return lattice.of_clos(AbsCpsClo(param, kparam, body))
            case KLam(param, body):
                return lattice.of_konts(AbsCo(param, body))
        raise TypeError(f"not a cps(A) value: {node!r}")

    # ------------------------------------------------------------------
    # Ms
    # ------------------------------------------------------------------

    def eval(self, term: CTerm, store: AbsStore) -> AAnswer:
        """``Ms``: analyze the serious term ``term`` in ``store``.

        With memoization off this is exactly `_eval`; with it on, the
        frame around `_eval` tracks the taint / footprint bookkeeping
        that keeps cached answers bit-identical to uncached ones (see
        `WorkBudgetMixin`).  Every cps(A) term is serious, so every
        frame answer is cacheable.
        """
        if self._memo is None:
            return self._eval(term, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(term, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            (id(term), store), start_seq, footprint, answer
        )

    def _eval(self, term: CTerm, store: AbsStore) -> AAnswer:
        """The Figure 6 ``Ms`` clauses proper."""
        registered: list[tuple[int, AbsStore]] = []
        memo = self._memo
        self._depth += 1
        self.stats.max_depth = max(self.stats.max_depth, self._depth)
        try:
            while True:
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
                self.tick(term)

                match term:
                    case KApp(kvar, value):
                        # The false-return rule: k may hold *several*
                        # continuations; apply them all and join.
                        kont_val = store.get(kvar)
                        result = self.eval_value(value, store)
                        return self.ret(kont_val, result, store)
                    case CLet(name, value, body):
                        store = self.bind_join(
                            store, name, self.eval_value(value, store)
                        )
                        term = body
                    case CApp(fun, arg, klam):
                        fun_v = self.eval_value(fun, store)
                        arg_v = self.eval_value(arg, store)
                        return self.apply(
                            fun_v, arg_v, self.phi(klam), store
                        )
                    case CIf0(kvar, klam, test, then, orelse):
                        return self._branch(
                            kvar, klam, test, then, orelse, store
                        )
                    case CPrimLet(name, op, args, body):
                        nums = [
                            self.eval_value(a, store).num for a in args
                        ]
                        result = self.lattice.of_num(
                            self.lattice.domain.binop(op, nums[0], nums[1])
                        )
                        store = self.bind_join(store, name, result)
                        term = body
                    case CLoop(klam):
                        return self._loop(self.phi(klam), store)
                    case _:
                        raise TypeError(f"not a cps(A) term: {term!r}")
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    # ------------------------------------------------------------------
    # app_s: abstract application
    # ------------------------------------------------------------------

    def apply(
        self, fun: AbsVal, arg: AbsVal, kont_val: AbsVal, store: AbsStore
    ) -> AAnswer:
        """``app_s``: apply every abstract closure; user closures also
        receive the continuation value through their k-parameter."""
        lattice = self.lattice
        domain = lattice.domain
        answer: AAnswer | None = None
        for clo in canonical_order(fun.clos):
            if clo is A_INCK:
                branch = self.ret(
                    kont_val, lattice.of_num(domain.add1(arg.num)), store
                )
            elif clo is A_DECK:
                branch = self.ret(
                    kont_val, lattice.of_num(domain.sub1(arg.num)), store
                )
            elif isinstance(clo, AbsCpsClo):
                entry = self.bind_join(
                    self.bind_join(store, clo.param, arg),
                    clo.kparam,
                    kont_val,
                )
                branch = self.eval(clo.body, entry)
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
    # appr_s: abstract return
    # ------------------------------------------------------------------

    def ret(self, kont_val: AbsVal, value: AbsVal, store: AbsStore) -> AAnswer:
        """``appr_s``: pass ``value`` to every abstract continuation in
        ``kont_val`` and join the answers.

        When several continuations have been merged at one variable,
        this is exactly the false-return confusion of Section 6.1."""
        answer: AAnswer | None = None
        for kont in canonical_order(kont_val.konts):
            self.stats.returns_analyzed += 1
            if kont is A_STOP:
                branch = AAnswer(value, store)
            elif isinstance(kont, AbsCo):
                branch = self.eval(
                    kont.body, self.bind_join(store, kont.param, value)
                )
            else:
                raise TypeError(f"unexpected abstract continuation {kont!r}")
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "return")
            )
        if answer is None:
            return AAnswer(self.lattice.bottom, store)
        return answer

    # ------------------------------------------------------------------
    # Conditionals (``loop`` is `CpsAnalyzerMixin._loop`)
    # ------------------------------------------------------------------

    def _branch(
        self,
        kvar: str,
        klam,
        test: CValue,
        then: CTerm,
        orelse: CTerm,
        store: AbsStore,
    ) -> AAnswer:
        """The ``if0`` rules of Figure 6: the join continuation is
        bound to ``kvar`` in the store, then each feasible branch is
        analyzed; both-branch answers join at the end."""
        test_v = self.eval_value(test, store)
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test_v.num)
        nonzero_possible = domain.may_be_nonzero(test_v.num) or bool(
            test_v.clos
        )
        bound = self.bind_join(store, kvar, self.phi(klam))
        if zero_possible and not nonzero_possible:
            return self.eval(then, bound)
        if nonzero_possible and not zero_possible:
            return self.eval(orelse, bound)
        if not zero_possible and not nonzero_possible:
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(then, bound)
        else_answer = self.eval(orelse, bound)
        return self.join_answers(then_answer, else_answer, "if0")


def _cps_initial_store(
    lattice: Lattice, initial: Mapping[str, AbsVal] | None, top_kvar: str
) -> AbsStore:
    """The initial store of a syntactic-CPS analysis (tree or plan):
    ``initial``, with ``top_kvar`` bound to ``{stop}`` unless given."""
    table = dict(initial) if initial else {}
    if top_kvar not in table:
        table[top_kvar] = lattice.of_konts(A_STOP)
    return AbsStore(lattice, table)


def analyze_syntactic_cps(
    term: CTerm,
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    top_kvar: str = TOP_KVAR,
    loop_mode: str = "reject",
    unroll_bound: int = 32,
    check: bool = True,
    max_visits: int | None = None,
    trace: Sink | None = None,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
) -> AnalysisResult:
    """Run the syntactic-CPS data flow analysis (Figure 6).

    ``engine="plan"`` runs the compiled-plan implementation (same
    judgments and statistics; see :mod:`repro.analysis.engine`).
    """
    return analyzer_class("syntactic-cps", engine)(
        term, domain, initial, top_kvar, loop_mode, unroll_bound, check,
        max_visits=max_visits, trace=trace, metrics=metrics, cache=cache,
    ).run()
