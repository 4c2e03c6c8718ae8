"""The pushdown (CFA2-style) abstract interpreter — the fifth analyzer.

Theorem 5.1 shows where the syntactic-CPS analysis loses to the direct
one: every call to a function flows through *one* abstract
continuation variable, so every return point is merged — a *false
return*.  The direct analyzer avoids that by construction (the
metalanguage's control stack matches calls with returns exactly), but
it pays twice elsewhere:

- its Section 4.4 loop cut answers a re-encountered judgment with the
  least precise value ``(⊤, CL⊤)``, poisoning every recursive
  function's result; and
- its 0CFA store has one location per variable, so a function applied
  at two call sites reads the *join* of both arguments — a false
  return through the store rather than through the continuation.

CFA2 (Vardoulakis & Shivers; see PAPERS.md) shows a context-free —
pushdown — abstraction fixes both without any CPS transform.  This
module is that analyzer, in the summary-based formulation of
Sharir/Pnueli functional summaries:

- **Frames.**  Evaluation carries a per-activation *frame*: the
  precise abstract values of the parameter and the let-bound names of
  the current activation.  Variable references hit the frame first
  and fall back to the joined 0CFA store (free variables of a closure
  body live in a *different* activation, so they take the fallback —
  that part stays 0CFA-coarse, exactly like CFA2's heap references).
  Every binding still joins into the global store, so the reported
  store keeps the collecting-semantics meaning the soundness tests
  (and the lint rules reading ``constant_of``) rely on.
- **Summaries.**  A call to an abstract closure is keyed by
  ``(closure, argument, entry store)``.  A completed summary maps the
  key to its exit answer; propagating it *only* to call sites with a
  matching key is precisely the call/return matching a pushdown
  system provides — and what the merged return point of Theorem 5.1
  destroys.
- **The worklist.**  A recursive call that re-enters an *in-flight*
  key returns the key's current exit approximation (seeded ``⊥``, not
  ``(⊤, CL⊤)``).  The enclosing entry then re-evaluates its body until
  the approximation stops growing — a fixpoint iteration per entry
  configuration, i.e. the classic summary worklist with the pending
  set carried on the recursion stack.  Consumption of an in-flight
  approximation is the pushdown analogue of the Section 4.4 cut and
  is counted (and traced) as one, so loop-budget tooling keeps
  working.  Summaries derived from a *still-active outer*
  approximation are provisional and are not cached (the ``consumed``
  taint below), mirroring the eval memo's taint rule.
- **Termination.**  All number domains in the repo have finite
  height, so stores and exit approximations stabilize; what could
  still diverge is an ever-growing stack of *distinct* precise
  arguments (``f (add1 x)``-style count-ups that the direct analyzer
  collapses by store saturation).  A per-closure activation budget
  (``widen_depth``) widens the argument by the join of the in-flight
  arguments for the same closure once the stack is that deep; widened
  entries repeat and the in-flight approximation cuts the recursion.
  The visit budget (`BudgetExceeded`) bounds everything else.

The eval memo of `WorkBudgetMixin` is deliberately **not** used: its
keys are ``(id(term), store)``, blind to the frame, so a hit could
replay an answer from a different activation.  The summary table *is*
this analyzer's cache (always on — it is integral to call/return
matching, not an optional accelerator); ``cache`` is accepted for
API parity and changes nothing.  There is no compiled-plan engine:
``engine="plan"`` raises `EngineUnsupported` (the serve layer's
``engine_unsupported`` enum error).
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.analysis.common import (
    A_DEC,
    A_INC,
    AAnswer,
    AbsClo,
    WorkBudgetMixin,
    canonical_order,
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
    Var,
    is_value,
)
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink

#: Default per-closure activation budget before argument widening.
#: Deep enough for every corpus program's concrete descent (factorial
#: recurses 6 deep, the mini-evaluator 5), small enough that a
#: count-up recursion widens long before the visit budget matters.
WIDEN_DEPTH = 32

#: A frame: the current activation's precise bindings.  Plain dict —
#: frames are never hashed or compared, only read through; branch
#: arms get copies so arm-local (possibly shadowing) bindings cannot
#: leak into the continuation.
Frame = dict[str, AbsVal]


class PushdownAnalyzer(WorkBudgetMixin):
    """The summary-based pushdown abstract interpreter."""

    analyzer_name = "pushdown"

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
        widen_depth: int = WIDEN_DEPTH,
    ) -> None:
        """Prepare a pushdown analysis of ``term``.

        The first eight arguments match `DirectAnalyzer` exactly;
        ``widen_depth`` is the per-closure activation budget before
        argument widening (see the module docstring).
        """
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        if widen_depth < 1:
            raise ValueError(f"widen_depth must be positive: {widen_depth}")
        self.widen_depth = widen_depth
        self.initial_store = AbsStore(self.lattice, initial)
        #: Completed entry/exit summaries: key -> exit answer.
        self._summaries: dict[tuple, AAnswer] = {}
        #: In-flight entries: key -> current exit approximation.
        self._active_calls: dict[tuple, AAnswer] = {}
        #: Keys whose in-flight approximation the current fixpoint
        #: iteration consumed (the taint that forces re-iteration and
        #: blocks caching of provisional summaries).
        self._consumed: set[tuple] = set()
        #: Arguments of the in-flight activations, per closure — the
        #: widening stack.
        self._active_args: dict[AbsClo, list[AbsVal]] = {}

    def _entry(self) -> AAnswer:
        return self.eval(self.term, self.initial_store, {})

    # ------------------------------------------------------------------
    # phi_e, frame-first
    # ------------------------------------------------------------------

    def eval_value(self, value: Term, store: AbsStore, frame: Frame) -> AbsVal:
        """``phi_e`` with pushdown precision: a variable bound in the
        current activation reads its frame value; anything else (free
        variables of the enclosing closure body, globals) falls back
        to the joined store."""
        if isinstance(value, Var):
            hit = frame.get(value.name)
            if hit is not None:
                return hit
            return store.get(value.name)
        return self.phi(value)

    # ------------------------------------------------------------------
    # Abstract evaluation of terms
    # ------------------------------------------------------------------

    def eval(self, term: Term, store: AbsStore, frame: Frame) -> AAnswer:
        """Analyze ``term`` in ``store`` within the activation
        ``frame``.  Walks the let-spine iteratively like the direct
        analyzer; only applications recurse, so loop detection lives
        entirely in the summary machinery of `_call`."""
        self._depth += 1
        if self._depth > self.stats.max_depth:
            self.stats.max_depth = self._depth
        try:
            while True:
                self.tick(term)
                if is_value(term):
                    return AAnswer(self.eval_value(term, store, frame), store)
                if not isinstance(term, Let):
                    raise TypeError(
                        f"term is not in the restricted subset: {term!r}"
                    )
                name, rhs, body = term.name, term.rhs, term.body
                if is_value(rhs):
                    result = self.eval_value(rhs, store, frame)
                elif isinstance(rhs, App):
                    fun = self.eval_value(rhs.fun, store, frame)
                    arg = self.eval_value(rhs.arg, store, frame)
                    answer = self.apply(fun, arg, store)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, If0):
                    answer = self._branch(rhs, store, frame)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, PrimApp):
                    result = self._primop(rhs, store, frame)
                elif isinstance(rhs, Loop):
                    # Section 6.2: the join of all naturals, as in the
                    # direct analyzer.
                    result = self.lattice.of_num(self.lattice.domain.iota)
                else:
                    raise TypeError(f"invalid let right-hand side: {rhs!r}")
                # The frame keeps the precise value for this
                # activation; the store keeps the sound join over all
                # activations (and is what escapes into summaries,
                # reports, and lint facts).
                store = self.bind_join(store, name, result)
                frame[name] = result
                term = body
        finally:
            self._depth -= 1

    # ------------------------------------------------------------------
    # Application: summaries and call/return matching
    # ------------------------------------------------------------------

    def apply(self, fun: AbsVal, arg: AbsVal, store: AbsStore) -> AAnswer:
        """Apply every abstract closure in the function position and
        join the answers (the 0CFA function-position join is kept;
        the pushdown precision is per closure, in `_call`)."""
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
                answer = self._call(clo, arg, store)
                branch_value, branch_store = answer.value, answer.store
            else:
                # CPS-only closures cannot appear here.
                raise TypeError(f"unexpected abstract closure {clo!r}")
            seen += 1
            if seen > 1:
                self.count_join("apply")
            value = lattice.join(value, branch_value)
            out_store = out_store.join(branch_store)
        return AAnswer(value, out_store)

    def _call(self, clo: AbsClo, arg: AbsVal, store: AbsStore) -> AAnswer:
        """One call edge: consult the summary table, the in-flight
        approximations, or push a new entry configuration."""
        active_args = self._active_args.get(clo)
        if active_args and len(active_args) >= self.widen_depth:
            # Too many in-flight activations of this closure with
            # distinct precise arguments: widen toward their join so
            # the entry configurations start repeating.
            widened = arg
            for prev in active_args:
                widened = self.lattice.join(widened, prev)
            if widened != arg:
                self.stats.widenings += 1
                arg = widened
        entry_store = self.bind_join(store, clo.param, arg)
        key = (clo, arg, entry_store)
        summary = self._summaries.get(key)
        if summary is not None:
            # Call/return matched from the table: the exit answer
            # flows to exactly the call sites sharing this entry.
            self.perf.eval_cache_hits += 1
            return summary
        approximation = self._active_calls.get(key)
        if approximation is not None:
            # Re-entry of an in-flight configuration — the pushdown
            # analogue of the Section 4.4 cut, answering with the
            # ⊥-seeded approximation instead of (⊤, CL⊤).
            self.count_loop_cut(clo.body)
            self._consumed.add(key)
            return approximation
        return self._solve(key, clo, arg, entry_store)

    def _solve(
        self, key: tuple, clo: AbsClo, arg: AbsVal, entry_store: AbsStore
    ) -> AAnswer:
        """Compute the exit summary for a new entry configuration:
        iterate the body until the exit approximation stabilizes."""
        lattice = self.lattice
        self._active_calls[key] = AAnswer(lattice.bottom, entry_store)
        self._active_args.setdefault(clo, []).append(arg)
        all_consumed: set[tuple] = set()
        try:
            while True:
                saved = self._consumed
                self._consumed = set()
                try:
                    answer = self.eval(
                        clo.body, entry_store, {clo.param: arg}
                    )
                finally:
                    iter_consumed = self._consumed
                    self._consumed = saved
                all_consumed |= iter_consumed
                previous = self._active_calls[key]
                merged = AAnswer(
                    lattice.join(previous.value, answer.value),
                    previous.store.join(answer.store),
                )
                if key not in iter_consumed or merged == previous:
                    # Either the body never re-entered this
                    # configuration (no self-recursion at this entry)
                    # or the approximation stopped growing.
                    result = merged
                    break
                self._active_calls[key] = merged
        finally:
            del self._active_calls[key]
            self._active_args[clo].pop()
        all_consumed.discard(key)
        if not any(k in self._active_calls for k in all_consumed):
            # Derived without consulting any still-active outer
            # approximation: the summary is final and reusable.
            self._summaries[key] = result
            self.stats.returns_analyzed += 1
        # Propagate the remaining taint so enclosing fixpoints know
        # they consumed in-flight state through this call.
        self._consumed |= all_consumed
        return result

    # ------------------------------------------------------------------
    # Conditionals and operators
    # ------------------------------------------------------------------

    def _branch(self, rhs: If0, store: AbsStore, frame: Frame) -> AAnswer:
        """The two ``if0`` rules, on frames: each arm runs on a *copy*
        of the activation frame (arm-local bindings may shadow and
        must not leak into the continuation or the other arm); an
        indefinite test still merges the answers before the
        continuation, exactly as in the direct analyzer."""
        test = self.eval_value(rhs.test, store, frame)
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test.num)
        nonzero_possible = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero_possible and not nonzero_possible:
            return self.eval(rhs.then, store, dict(frame))
        if nonzero_possible and not zero_possible:
            return self.eval(rhs.orelse, store, dict(frame))
        if not zero_possible and not nonzero_possible:
            # No value reaches the test: the conditional is dead code.
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(rhs.then, store, dict(frame))
        else_answer = self.eval(rhs.orelse, store, dict(frame))
        return self.join_answers(then_answer, else_answer, "if0")

    def _primop(self, rhs: PrimApp, store: AbsStore, frame: Frame) -> AbsVal:
        """Abstract a second-class operator application."""
        domain = self.lattice.domain
        nums: list[Hashable] = [
            self.eval_value(arg, store, frame).num for arg in rhs.args
        ]
        return self.lattice.of_num(domain.binop(rhs.op, nums[0], nums[1]))


def analyze_pushdown(
    term: Term,
    domain: NumDomain | None = None,
    initial: Mapping[str, AbsVal] | None = None,
    check: bool = True,
    max_visits: int | None = None,
    trace: Sink | None = None,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
    widen_depth: int = WIDEN_DEPTH,
) -> AnalysisResult:
    """Run the pushdown (CFA2-style) data flow analysis on ``term``.

    Tree engine only: ``engine="plan"`` raises `EngineUnsupported`
    (summary tables are keyed by abstract closures and stores, not
    compiled instruction offsets) — callers that speak the serve enum
    vocabulary surface it as ``engine_unsupported``.
    """
    return analyzer_class("pushdown", engine)(
        term,
        domain,
        initial,
        check,
        max_visits,
        trace=trace,
        metrics=metrics,
        cache=cache,
        widen_depth=widen_depth,
    ).run()
