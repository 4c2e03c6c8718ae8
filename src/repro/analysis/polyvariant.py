"""A polyvariant (k-CFA) variant of the direct analyzer.

The paper's analyzers are monovariant (0CFA, Section 4.1: one abstract
location per variable).  Shivers' thesis [16] proposes *call-string
polyvariance* instead: one location per variable **and** per context,
where a context is the string of the last ``k`` call sites.  This
module implements that generalization of Figure 4, for two reasons:

1. as an ablation against the paper's central claim — the precision
   the CPS analyses gain is *duplication of returns*, which call-string
   contexts do **not** provide: k-CFA fixes the classic repeated-call
   imprecision but leaves both Theorem 5.2 witnesses exactly as
   imprecise as 0CFA (the tests pin this); and
2. as the natural "more precision without CPS" extension alongside
   the Section 6.3 inlining/duplication transformations.

Design notes
------------

- Abstract locations are ``(variable, context)`` pairs; the store is
  the same hashable `AbsStore`, keyed by `CtxVar`.
- Abstract closures (`PolyClo`) carry a *binding-time environment*
  mapping their free variables to the contexts those variables were
  bound in, so a closure applied far from its definition still reads
  the right bindings.  A closure with a missing entry falls back to
  the join over every context of that variable (used for closures
  assumed in the initial store and for the loop-cut top value, where
  no specific context is known — always sound, merely coarser).
- Termination follows the same Section 4.4 argument: contexts and
  environments are drawn from finite sets, the store lattice has
  finite height, and ``(term, env, ctx, store)`` active-path keys
  repeat on any infinite derivation.
- ``k = 0`` degenerates to exactly one context ``()`` and reproduces
  the monovariant analyzer's results on cut-free programs (a
  regression property the tests check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from repro.analysis.common import (
    A_DEC,
    A_INC,
    AAnswer,
    AbsClo,
    WorkBudgetMixin,
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
    Lam,
    Let,
    Loop,
    Num,
    Prim,
    PrimApp,
    Term,
    Var,
    is_value,
)
from repro.lang.syntax import free_variables
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink

#: A call-string context: the labels of the last k call sites.
Context = tuple[str, ...]

#: The context everything starts in.
TOP_CONTEXT: Context = ()


@dataclass(frozen=True, slots=True)
class CtxVar:
    """A context-sensitive abstract location ``(variable, context)``."""

    name: str
    ctx: Context

    def __str__(self) -> str:
        inner = ",".join(self.ctx) or "ε"
        return f"{self.name}@{inner}"


@dataclass(frozen=True, slots=True)
class PolyClo:
    """A polyvariant abstract closure.

    ``env`` records, for each free variable of the body, the context
    its binding lives at — sorted tuple of pairs so the value is
    hashable.  Variables absent from ``env`` are read with the
    join-over-all-contexts fallback.
    """

    param: str
    body: Term
    env: tuple[tuple[str, Context], ...] = ()

    def lookup_ctx(self, name: str) -> Context | None:
        for entry_name, ctx in self.env:
            if entry_name == name:
                return ctx
        return None

    def __str__(self) -> str:
        return f"(cle {self.param})"


def _clo_order(clo) -> tuple:
    """`canonical_order`'s key for polyvariant closures: one lambda
    can be closed in several contexts, so its ``str`` alone is not
    unique."""
    return (str(clo), getattr(clo, "env", ()))


def _truncate(ctx: Context, k: int) -> Context:
    return ctx[-k:] if k else TOP_CONTEXT


class _PolyvariantSkeleton(WorkBudgetMixin):
    """What the k-CFA tree analyzer and its plan engine share: the
    ``k`` check, the context-keyed initial store and ``(⊤, CL⊤)``,
    the context-sensitive variable read, and the result."""

    analyzer_name = "direct-kcfa"

    def setup_polyvariant(
        self,
        term,
        domain: NumDomain | None,
        k: int,
        initial: Mapping[str, AbsVal] | None,
        check: bool,
        max_visits: int | None,
        trace: Sink | None,
        metrics: Metrics | None,
        cache: bool,
    ) -> None:
        """The constructor preamble: `WorkBudgetMixin.setup`, then the
        initial store at the top context."""
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        if k < 0:
            raise ValueError("context length k must be >= 0")
        self.k = k
        table: dict[Hashable, AbsVal] = {
            CtxVar(name, TOP_CONTEXT): _polyvariant_value(value)
            for name, value in (initial or {}).items()
        }
        self.initial_store = AbsStore(
            self.lattice, table  # type: ignore[arg-type]
        )

    def set_top(self, closures: frozenset) -> None:
        """``(⊤, CL⊤)`` from the program's monovariant closures and the
        initial store's."""
        top = _polyvariant_value(AbsVal(self.lattice.domain.top, closures))
        self.top_value = AbsVal(
            top.num, top.clos | closures_of_store(self.initial_store)
        )

    def _lookup(
        self, name: str, ctx: Context | None, store: AbsStore
    ) -> AbsVal:
        """Read a variable: at its binding context when known, else the
        join over every context (the sound fallback)."""
        if ctx is not None:
            return store.get(CtxVar(name, ctx))  # type: ignore[arg-type]
        value = self.lattice.bottom
        for key, entry in store.items():
            if isinstance(key, CtxVar) and key.name == name:
                value = self.lattice.join(value, entry)
        return value

    def _result(self, answer: AAnswer) -> "PolyvariantResult":
        return PolyvariantResult(self, answer.value, answer.store)


class PolyvariantDirectAnalyzer(_PolyvariantSkeleton):
    """Figure 4 with call-string polyvariance."""

    def __init__(
        self,
        term: Term,
        domain: NumDomain | None = None,
        k: int = 1,
        initial: Mapping[str, AbsVal] | None = None,
        check: bool = True,
        max_visits: int | None = None,
        trace: Sink | None = None,
        metrics: Metrics | None = None,
        cache: bool = False,
    ) -> None:
        """Prepare a k-CFA analysis of ``term``.

        Args:
            term: a program of the restricted subset.
            domain: abstract number domain (default constant
                propagation).
            k: call-string length (0 reproduces the monovariant
                analyzer).
            initial: assumptions for free variables, in the monovariant
                abstract domain (closures are converted to polyvariant
                closures with the fallback environment).
            check: validate that ``term`` is in the restricted subset.
            cache: turn the eval memo on; results are identical
                either way, only visit counts and wall time change.
        """
        self.setup_polyvariant(
            term, domain, k, initial, check, max_visits, trace, metrics, cache
        )
        self.set_top(closures_of_term(term))
        #: ``id(body)`` → ``free_variables(body)`` of each closure body
        #: met, so a body is walked once per analysis, not at every
        #: closure creation and application.
        self._body_free: dict[int, frozenset[str]] = {}

    def _free_in(self, body: Term) -> frozenset[str]:
        free = self._body_free.get(id(body))
        if free is None:
            free = self._body_free[id(body)] = free_variables(body)
        return free

    def _entry(self) -> AAnswer:
        env: dict[str, Context] = {
            name: TOP_CONTEXT for name in free_variables(self.term)
        }
        return self.eval(self.term, env, TOP_CONTEXT, self.initial_store)

    # ------------------------------------------------------------------
    # Abstract values
    # ------------------------------------------------------------------

    def eval_value(
        self,
        value: Term,
        env: Mapping[str, Context],
        store: AbsStore,
    ) -> AbsVal:
        """``phi_e`` with context-sensitive variable lookup."""
        lattice = self.lattice
        match value:
            case Num(n):
                return lattice.of_const(n)
            case Var(name):
                return self._lookup(name, env.get(name), store)
            case Prim("add1"):
                return lattice.of_clos(A_INC)
            case Prim("sub1"):
                return lattice.of_clos(A_DEC)
            case Lam(param, body):
                captured = tuple(
                    sorted(
                        (name, env[name])
                        for name in self._free_in(body)
                        if name in env and name != param
                    )
                )
                return lattice.of_clos(PolyClo(param, body, captured))
        raise TypeError(f"not a syntactic value: {value!r}")

    # ------------------------------------------------------------------
    # The analyzer
    # ------------------------------------------------------------------

    def eval(
        self,
        term: Term,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        """Analyze ``term`` under binding environment ``env`` in
        context ``ctx``.

        With memoization off this is exactly `_eval`; with it on, the
        frame around `_eval` tracks the taint / footprint bookkeeping
        that keeps cached answers bit-identical to uncached ones (see
        `WorkBudgetMixin`)."""
        if self._memo is None:
            return self._eval(term, env, ctx, store)
        memo_key = (id(term), frozenset(env.items()), ctx, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(term, env, ctx, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            memo_key,
            start_seq,
            footprint,
            answer,
            cacheable=not is_value(term),
        )

    def _eval(
        self,
        term: Term,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        """The polyvariant Figure 4 clauses proper."""
        registered: list = []
        memo = self._memo
        self._depth += 1
        self.stats.max_depth = max(self.stats.max_depth, self._depth)
        env = dict(env)
        try:
            while True:
                self.tick(term)
                if is_value(term):
                    return AAnswer(self.eval_value(term, env, store), store)
                if not isinstance(term, Let):
                    raise TypeError(
                        f"term is not in the restricted subset: {term!r}"
                    )
                key = (id(term), frozenset(env.items()), ctx, store)
                owner = self._active.get(key)
                if owner is not None:
                    self.note_loop_cut(owner, term)
                    return AAnswer(self.top_value, store)
                if memo is not None:
                    hit = self.memo_probe(key, key, term)
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)

                name, rhs, body = term.name, term.rhs, term.body
                if is_value(rhs):
                    result = self.eval_value(rhs, env, store)
                elif isinstance(rhs, App):
                    fun = self.eval_value(rhs.fun, env, store)
                    arg = self.eval_value(rhs.arg, env, store)
                    answer = self.apply(name, fun, arg, ctx, store)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, If0):
                    answer = self._branch(rhs, env, ctx, store)
                    result, store = answer.value, answer.store
                elif isinstance(rhs, PrimApp):
                    nums = [
                        self.eval_value(a, env, store).num for a in rhs.args
                    ]
                    result = self.lattice.of_num(
                        self.lattice.domain.binop(rhs.op, nums[0], nums[1])
                    )
                elif isinstance(rhs, Loop):
                    result = self.lattice.of_num(self.lattice.domain.iota)
                else:
                    raise TypeError(f"invalid let right-hand side: {rhs!r}")
                store = self.bind_join(store, CtxVar(name, ctx), result)
                env[name] = ctx
                term = body
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    def apply(
        self,
        site: str,
        fun: AbsVal,
        arg: AbsVal,
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        """Apply every abstract closure; user closures run in the
        context extended with this call site."""
        lattice = self.lattice
        domain = lattice.domain
        value = lattice.bottom
        out_store = store
        seen = 0
        for clo in canonical_order(fun.clos, _clo_order):
            if clo is A_INC:
                branch_value = lattice.of_num(domain.add1(arg.num))
                branch_store = store
            elif clo is A_DEC:
                branch_value = lattice.of_num(domain.sub1(arg.num))
                branch_store = store
            elif isinstance(clo, PolyClo):
                callee_ctx = _truncate(ctx + (site,), self.k)
                entry = self.bind_join(
                    store, CtxVar(clo.param, callee_ctx), arg
                )
                callee_env = dict(clo.env)
                for free in self._free_in(clo.body):
                    if free not in callee_env and free != clo.param:
                        known = clo.lookup_ctx(free)
                        if known is not None:
                            callee_env[free] = known
                callee_env[clo.param] = callee_ctx
                answer = self.eval(clo.body, callee_env, callee_ctx, entry)
                branch_value, branch_store = answer.value, answer.store
            else:
                raise TypeError(f"unexpected abstract closure {clo!r}")
            seen += 1
            if seen > 1:
                self.count_join("apply")
            value = lattice.join(value, branch_value)
            out_store = out_store.join(branch_store)
        return AAnswer(value, out_store)

    def _branch(
        self,
        rhs: If0,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        test = self.eval_value(rhs.test, env, store)
        domain = self.lattice.domain
        zero = domain.may_be_zero(test.num)
        nonzero = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero and not nonzero:
            return self.eval(rhs.then, env, ctx, store)
        if nonzero and not zero:
            return self.eval(rhs.orelse, env, ctx, store)
        if not zero and not nonzero:
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(rhs.then, env, ctx, store)
        else_answer = self.eval(rhs.orelse, env, ctx, store)
        return self.join_answers(then_answer, else_answer, "if0")


def _polyvariant_value(value: AbsVal) -> AbsVal:
    """Convert a monovariant abstract value (initial-store assumption)
    into the polyvariant domain."""
    clos = frozenset(
        PolyClo(c.param, c.body) if isinstance(c, AbsClo) else c
        for c in value.clos
    )
    return AbsVal(value.num, clos, value.konts)


def _monovariant_value(value: AbsVal) -> AbsVal:
    """Drop the context components of a polyvariant value."""
    clos = frozenset(
        AbsClo(c.param, c.body) if isinstance(c, PolyClo) else c
        for c in value.clos
    )
    return AbsVal(value.num, clos, value.konts)


class PolyvariantResult:
    """The result of a k-CFA analysis, with a per-context view and a
    collapsed (monovariant) view for comparison against Figure 4."""

    def __init__(
        self,
        analyzer: PolyvariantDirectAnalyzer,
        value: AbsVal,
        store: AbsStore,
    ) -> None:
        self.analyzer = analyzer
        self.lattice = analyzer.lattice
        self.stats = analyzer.stats
        self.value = _monovariant_value(value)
        self._store = store

    def contexts_of(self, name: str) -> dict[Context, AbsVal]:
        """Every context-specific value recorded for ``name``."""
        return {
            key.ctx: _monovariant_value(entry)
            for key, entry in self._store.items()
            if isinstance(key, CtxVar) and key.name == name
        }

    def value_of(self, name: str, ctx: Context | None = None) -> AbsVal:
        """The value of ``name`` in a specific context, or the join
        over every context when ``ctx`` is None."""
        if ctx is not None:
            return _monovariant_value(
                self._store.get(CtxVar(name, ctx))  # type: ignore[arg-type]
            )
        value = self.lattice.bottom
        for entry in self.contexts_of(name).values():
            value = self.lattice.join(value, entry)
        return value

    def constant_of(self, name: str, ctx: Context | None = None) -> int | None:
        """The proven integer constant for ``name``, if any."""
        num = self.value_of(name, ctx).num
        if isinstance(num, int) and not isinstance(num, bool):
            return num
        return None

    def collapse(self) -> AnalysisResult:
        """A monovariant `AnalysisResult` view (join over contexts),
        directly comparable with :func:`repro.analysis.analyze_direct`
        output."""
        table: dict[str, AbsVal] = {}
        for key, entry in self._store.items():
            if not isinstance(key, CtxVar):
                continue
            mono = _monovariant_value(entry)
            existing = table.get(key.name)
            table[key.name] = (
                mono if existing is None else self.lattice.join(existing, mono)
            )
        collapsed = AbsStore(self.lattice, table)
        return AnalysisResult(
            self.analyzer.analyzer_name,
            AAnswer(self.value, collapsed),
            self.stats,
            self.lattice,
        )


def analyze_polyvariant(
    term: Term,
    domain: NumDomain | None = None,
    k: int = 1,
    initial: Mapping[str, AbsVal] | None = None,
    check: bool = True,
    max_visits: int | None = None,
    trace: Sink | None = None,
    metrics: Metrics | None = None,
    cache: bool = False,
    engine: str = "tree",
) -> PolyvariantResult:
    """Run the k-CFA direct data flow analysis on ``term``.

    ``engine="plan"`` runs the compiled-plan implementation (same
    judgments and statistics; see :mod:`repro.analysis.engine`).
    """
    return analyzer_class("polyvariant", engine)(
        term, domain, k, initial, check, max_visits,
        trace=trace, metrics=metrics, cache=cache,
    ).run()
