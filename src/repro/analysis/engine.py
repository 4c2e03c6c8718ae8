"""Compiled (plan) engines for the four analyzers.

Each engine here replays its tree analyzer's derivation exactly —
same rule order, same judgment keys (pc ↔ ``id(term)``, slot-store ↔
name-store), same loop cuts, joins, widenings and visit counts — but
over the flat instruction arrays of :mod:`repro.machine.absplan` and
the tuple-backed `SlotStore`:

- no ``isinstance`` dispatch per visit: one integer opcode switch;
- no name hashing in the store: integer slots into a tuple;
- O(1) store binds: each new store derives its hash from its parent's
  and bottom slots are found by identity, so the ``(pc, store)`` key
  of a fresh store never re-hashes every slot;
- no per-visit ``AbsVal`` construction for literals: a constant pool
  materialized once per run;
- Section 4.4 loop detection keys on ``(pc, store)`` with slot-store
  equality, which is the same relation as ``(id(term), sigma)`` on the
  name-keyed store.

Select an engine with ``engine="plan"`` on the ``analyze_*`` entry
points or `repro.analysis.registry.build_analyzer`, whose
``(name, engine)`` table maps to these classes (``"tree"``, the
default, is the reference implementation; the differential suite in
``tests/analysis/test_engine_differential.py`` pins bit-identical
answers and statistics between the two).

The polyvariant engine keeps the `AbsStore` keyed by ``(variable,
context)`` pairs — its location space is not dense — but still gains
the flat dispatch, precomputed free-variable sets, and interned
constants.

Only the rules live here: ``eval``/``_eval``, ``apply``, ``ret``,
``_branch`` and value references, in plan form.  The engine-independent
rest is shared with the tree analyzers: set-up, ``run()``, the answer
join and the visit/trace/memo bookkeeping come from
`repro.analysis.common.WorkBudgetMixin`, the Section 6.2 ``loop`` rule
and each ``reject`` message from `CpsAnalyzerMixin` and the tree
classes, the k-CFA set-up from the polyvariant module, and the
syntactic-CPS initial store from the syntactic-CPS module.  Among the
engines, `_SlotEngine` loads a plan into a slot store, and
`_entry_lookup` is the one closure/continuation → entry table.

The direct and semantic-CPS engines are one machine, as on the tree
engine: `DirectPlanAnalyzer` is `SemanticCpsPlanAnalyzer` with the
class constant `joins_at_return` set (Theorem 5.4's one rule), so an
application, conditional or ``loop`` runs under the empty continuation
and its answer is bound before the spine goes on, where semantic-CPS
pushes a ``(dst_slot, next_pc)`` frame.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.common import (
    A_DEC,
    A_DECK,
    A_INC,
    A_INCK,
    A_STOP,
    AAnswer,
    AbsClo,
    AbsCo,
    AbsCpsClo,
    CpsAnalyzerMixin,
    WorkBudgetMixin,
    canonical_order,
    closures_of_store,
    konts_of_store,
)
from repro.analysis.polyvariant import (
    TOP_CONTEXT,
    Context,
    CtxVar,
    PolyClo,
    _clo_order,
    _PolyvariantSkeleton,
    _truncate,
)
from repro.analysis.direct import DirectAnalyzer
from repro.analysis.result import AnalysisResult
from repro.analysis.semantic_cps import SemanticCpsAnalyzer
from repro.analysis.syntactic_cps import (
    SyntacticCpsAnalyzer,
    _cps_initial_store,
)
from repro.cps.ast import CTerm
from repro.cps.transform import TOP_KVAR
from repro.domains.absval import AbsVal, Lattice
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore, SlotStore
from repro.lang.ast import Term
from repro.lang.syntax import free_variables
from repro.machine.absplan import (
    OP_APP,
    OP_BIND,
    OP_IF,
    OP_PRIM,
    OP_TAIL,
    COP_BIND,
    COP_CAPP,
    COP_CIF,
    COP_CLOOP,
    COP_KRET,
    COP_PRIM,
    PLAN_CACHE,
    PlanCache,
    compile_anf_plan,
    compile_cps_plan,
    extend_anf_plan,
    extend_cps_plan,
)
from repro.obs.events import StoreWidened
from repro.obs.metrics import Metrics
from repro.obs.sinks import Sink


def _anf_plan_for(term: Term, plan_cache: PlanCache | None):
    """The `AnfPlan` for ``term``, through the cache when one is
    given."""
    if plan_cache is not None:
        return plan_cache.anf_plan(term)
    return compile_anf_plan(term)


def _cps_plan_for(term: CTerm, plan_cache: PlanCache | None):
    """The `CpsPlan` for ``term``, through the cache when one is
    given."""
    if plan_cache is not None:
        return plan_cache.cps_plan(term)
    return compile_cps_plan(term)


# ----------------------------------------------------------------------
# Constant-pool materialization (descriptors → lattice values)
# ----------------------------------------------------------------------


def _materialize_anf(consts, lattice: Lattice) -> tuple:
    out = []
    for desc in consts:
        kind = desc[0]
        if kind == "num":
            out.append(lattice.of_const(desc[1]))
        elif kind == "prim":
            out.append(
                lattice.of_clos(A_INC if desc[1] == "add1" else A_DEC)
            )
        else:  # "clo"
            lam = desc[1]
            out.append(lattice.of_clos(AbsClo(lam.param, lam.body)))
    return tuple(out)


def _materialize_cps(consts, lattice: Lattice) -> tuple:
    out = []
    for desc in consts:
        kind = desc[0]
        if kind == "num":
            out.append(lattice.of_const(desc[1]))
        elif kind == "cps_prim":
            out.append(
                lattice.of_clos(A_INCK if desc[1] == "add1k" else A_DECK)
            )
        elif kind == "cps_clo":
            lam = desc[1]
            out.append(
                lattice.of_clos(AbsCpsClo(lam.param, lam.kparam, lam.body))
            )
        else:  # "konts"
            klam = desc[1]
            out.append(lattice.of_konts(AbsCo(klam.param, klam.body)))
    return tuple(out)


def _materialize_poly(consts, lattice: Lattice) -> tuple:
    """Polyvariant pool: numerals and primitives are plain values;
    lambdas stay descriptors ``(param, body, needed)`` because their
    captured environment is only known at closure-creation time."""
    out = []
    for desc in consts:
        kind = desc[0]
        if kind == "num":
            out.append(lattice.of_const(desc[1]))
        elif kind == "prim":
            out.append(
                lattice.of_clos(A_INC if desc[1] == "add1" else A_DEC)
            )
        else:  # "clo"
            lam = desc[1]
            needed = tuple(sorted(free_variables(lam.body) - {lam.param}))
            out.append((lam.param, lam.body, needed))
    return tuple(out)


def _entry_lookup(table: Mapping, what: str, key=None):
    """``table[key(obj)]`` for an abstract closure or continuation
    ``obj``, probed by identity first: hashing one hashes its whole
    body term.  An object missing from the table is a `TypeError`."""
    by_id: dict[int, tuple] = {}

    def entry_of(obj):
        hit = by_id.get(id(obj))
        if hit is not None and hit[0] is obj:
            return hit[1]
        entry = table.get(obj if key is None else key(obj))
        if entry is None:
            raise TypeError(f"unexpected abstract {what} {obj!r}")
        by_id[id(obj)] = (obj, entry)
        return entry

    return entry_of


# ----------------------------------------------------------------------
# Shared slot-store plumbing
# ----------------------------------------------------------------------


class _SlotEngine(WorkBudgetMixin):
    """Mixin for engines whose store is a `SlotStore`."""

    _slot_names: tuple[str, ...]
    _cvals: tuple

    def _ref(self, ref: int, store: SlotStore) -> AbsVal:
        """Resolve a value reference: slot read or constant."""
        if ref >= 0:
            return store.vals[ref]
        return self._cvals[-1 - ref]

    def bind_slot(
        self, store: SlotStore, slot: int, value: AbsVal
    ) -> SlotStore:
        """`WorkBudgetMixin.bind_join` specialized to slots, keeping
        the widening/store-size bookkeeping and trace labels of the
        tree analyzers."""
        before = store.vals[slot]
        after = store.joined_bind(slot, value)
        size = after.size
        if size > self.stats.max_store_size:
            self.stats.max_store_size = size
        if after is not store and before is not self.lattice.bottom:
            self.stats.widenings += 1
            if self._emit is not None:
                self._emit(
                    StoreWidened(
                        self.analyzer_name, self._slot_names[slot], size
                    )
                )
        return after

    def load_plan(
        self, plan, src, initial_abs: AbsStore, materialize
    ) -> None:
        """Take the instruction arrays of ``src`` (``plan`` extended
        with the initial store's closures) and the slot-addressed image
        of ``initial_abs``; initial-store names the program itself never
        mentions get slots past the compiled ones."""
        self._code = src.code
        self._terms = src.terms
        self._entry_pc = plan.entry_pc
        self._cvals = materialize(src.consts, self.lattice)
        slot_of = src.slot_of
        names = list(src.slot_names)
        missing = [
            name for name, _ in initial_abs.items() if name not in slot_of
        ]
        if missing:
            slot_of = dict(slot_of)
            for name in missing:
                slot_of[name] = len(names)
                names.append(name)
        self._slot_names = tuple(names)
        vals = [self.lattice.bottom] * len(names)
        for name, value in initial_abs.items():
            vals[slot_of[name]] = value
        self.initial_store = SlotStore(
            self.lattice, tuple(vals), len(initial_abs)
        )

    def _entry(self) -> AAnswer:
        return self.eval(self._entry_pc, self.initial_store)

    def _result(self, answer: AAnswer) -> AnalysisResult:
        """Convert the slot-store answer back to the name-keyed form the
        rest of the repo (results, reports, serve) consumes."""
        return super()._result(
            AAnswer(answer.value, answer.store.to_abs_store(self._slot_names))
        )


# ----------------------------------------------------------------------
# Semantic-CPS and direct engines (Figures 5 and 4 over plans)
# ----------------------------------------------------------------------


class SemanticCpsPlanAnalyzer(_SlotEngine, CpsAnalyzerMixin):
    """The Figure 5 judgments over a compiled `AnfPlan`.

    Continuations are tuples of ``(dst_slot, next_pc)`` frames — the
    compiled image of the tree analyzer's ``AFrame`` stacks.  As on the
    tree engine, the class is one machine for Figures 4 and 5:
    `joins_at_return` is Theorem 5.4's one rule (`DirectPlanAnalyzer`
    sets it).
    """

    analyzer_name = "semantic-cps"
    joins_at_return = SemanticCpsAnalyzer.joins_at_return
    loop_reject_message = SemanticCpsAnalyzer.loop_reject_message

    def __init__(
        self,
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
        plan_cache: PlanCache | None = PLAN_CACHE,
    ) -> None:
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.init_loop(loop_mode, unroll_bound)
        self.load_anf_plan(term, initial, plan_cache)

    def load_anf_plan(
        self,
        term: Term,
        initial: Mapping[str, AbsVal] | None,
        plan_cache: PlanCache | None,
    ) -> None:
        """Compile (or fetch) the plan of ``term``, extended with the
        closures of the initial store, and set ``(⊤, CL⊤)``."""
        plan = _anf_plan_for(term, plan_cache)
        initial_abs = AbsStore(self.lattice, initial)
        store_clos = closures_of_store(initial_abs)
        ext_closures = [
            clo
            for clo in store_clos
            if isinstance(clo, AbsClo) and clo not in plan.entries
        ]
        src = extend_anf_plan(plan, ext_closures) if ext_closures else plan
        self.load_plan(plan, src, initial_abs, _materialize_anf)
        self._entry_of = _entry_lookup(src.entries, "closure")
        self.top_value = AbsVal(
            self.lattice.domain.top, plan.cl_top | store_clos
        )

    def _entry(self) -> AAnswer:
        return self.eval(self._entry_pc, (), self.initial_store)

    def eval(self, pc: int, kont: tuple, store: SlotStore) -> AAnswer:
        if self._memo is None:
            return self._eval(pc, kont, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(pc, kont, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            (pc, kont, store),
            start_seq,
            footprint,
            answer,
            cacheable=self._code[pc][0] != OP_TAIL,
        )

    def _eval(self, pc: int, kont: tuple, store: SlotStore) -> AAnswer:
        registered: list = []
        memo = self._memo
        code = self._code
        terms = self._terms
        cvals = self._cvals
        active = self._active
        tick = self.tick
        self._depth += 1
        if self._depth > self.stats.max_depth:
            self.stats.max_depth = self._depth
        try:
            while True:
                instr = code[pc]
                op = instr[0]
                tick(terms[pc])
                if op == OP_TAIL:
                    ref = instr[1]
                    return self.ret(
                        kont,
                        store.vals[ref] if ref >= 0 else cvals[-1 - ref],
                        store,
                    )
                key = (pc, store)
                owner = active.get(key)
                if owner is not None:
                    # Section 4.4: return (⊤, CL⊤) *to the continuation*.
                    self.note_loop_cut(owner, terms[pc])
                    return self.ret(kont, self.top_value, store)
                if memo is not None:
                    hit = self.memo_probe((pc, kont, store), key, terms[pc])
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)
                # Every instruction but OP_TAIL is (op, dst_slot, ...,
                # next_pc).
                if op == OP_BIND:
                    ref = instr[2]
                    result = (
                        store.vals[ref] if ref >= 0 else cvals[-1 - ref]
                    )
                elif op == OP_PRIM:
                    lattice = self.lattice
                    result = lattice.of_num(
                        lattice.domain.binop(
                            instr[2],
                            self._ref(instr[3], store).num,
                            self._ref(instr[4], store).num,
                        )
                    )
                else:
                    joins = self.joins_at_return
                    inner = () if joins else ((instr[1], instr[-1]),) + kont
                    if op == OP_APP:
                        answer = self.apply(
                            self._ref(instr[2], store),
                            self._ref(instr[3], store),
                            inner,
                            store,
                        )
                    elif op == OP_IF:
                        answer = self._branch(
                            instr, self._ref(instr[2], store), inner, store
                        )
                    else:  # OP_LOOP
                        answer = self._loop(inner, store)
                    if not joins:
                        return answer
                    result, store = answer.value, answer.store
                store = self.bind_slot(store, instr[1], result)
                pc = instr[-1]
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    def apply(
        self, fun: AbsVal, arg: AbsVal, kont: tuple, store: SlotStore
    ) -> AAnswer:
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
            else:
                param_slot, body_pc = self._entry_of(clo)
                entry = self.bind_slot(store, param_slot, arg)
                branch = self.eval(body_pc, kont, entry)
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "apply")
            )
        if answer is None:
            return AAnswer(self.lattice.bottom, store)
        return answer

    def ret(self, kont: tuple, value: AbsVal, store: SlotStore) -> AAnswer:
        if not kont:
            return AAnswer(value, store)
        self.stats.returns_analyzed += 1
        frame = kont[0]
        return self.eval(
            frame[1], kont[1:], self.bind_slot(store, frame[0], value)
        )

    def _branch(
        self, instr, test: AbsVal, inner: tuple, store: SlotStore
    ) -> AAnswer:
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test.num)
        nonzero_possible = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero_possible and not nonzero_possible:
            return self.eval(instr[3], inner, store)
        if nonzero_possible and not zero_possible:
            return self.eval(instr[4], inner, store)
        if not zero_possible and not nonzero_possible:
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(instr[3], inner, store)
        else_answer = self.eval(instr[4], inner, store)
        return self.join_answers(then_answer, else_answer, "if0")


class DirectPlanAnalyzer(SemanticCpsPlanAnalyzer):
    """The Figure 4 judgments, replayed over a compiled `AnfPlan`: the
    semantic-CPS plan machine joining at return, with ``loop`` bound
    to the join of all naturals (as `repro.analysis.direct`)."""

    analyzer_name = "direct"
    joins_at_return = DirectAnalyzer.joins_at_return
    loop_mode = DirectAnalyzer.loop_mode

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
        plan_cache: PlanCache | None = PLAN_CACHE,
    ) -> None:
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.load_anf_plan(term, initial, plan_cache)


# ----------------------------------------------------------------------
# Syntactic-CPS engine (Figure 6 over plans)
# ----------------------------------------------------------------------


class SyntacticCpsPlanAnalyzer(_SlotEngine, CpsAnalyzerMixin):
    """The Figure 6 judgments over a compiled `CpsPlan`."""

    analyzer_name = "syntactic-cps"
    loop_reject_message = SyntacticCpsAnalyzer.loop_reject_message
    check_term = SyntacticCpsAnalyzer.check_term

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
        plan_cache: PlanCache | None = PLAN_CACHE,
    ) -> None:
        self._top_kvar = top_kvar
        self.setup(term, domain, check, max_visits, trace, metrics, cache)
        self.init_loop(loop_mode, unroll_bound)
        plan = _cps_plan_for(term, plan_cache)
        initial_abs = _cps_initial_store(self.lattice, initial, top_kvar)
        store_clos = closures_of_store(initial_abs)
        store_konts = konts_of_store(initial_abs)
        ext_closures = [
            clo
            for clo in store_clos
            if isinstance(clo, AbsCpsClo) and clo not in plan.cps_entries
        ]
        ext_konts = [
            kont
            for kont in store_konts
            if isinstance(kont, AbsCo) and kont not in plan.kont_entries
        ]
        src = (
            extend_cps_plan(plan, ext_closures, ext_konts)
            if ext_closures or ext_konts
            else plan
        )
        self.load_plan(plan, src, initial_abs, _materialize_cps)
        self._entry_of = _entry_lookup(src.cps_entries, "closure")
        self._kont_entry_of = _entry_lookup(src.kont_entries, "continuation")
        self.top_value = AbsVal(
            self.lattice.domain.top,
            plan.cl_top | store_clos,
            plan.k_top | store_konts,
        )

    def eval(self, pc: int, store: SlotStore) -> AAnswer:
        if self._memo is None:
            return self._eval(pc, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(pc, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            (pc, store), start_seq, footprint, answer
        )

    def _eval(self, pc: int, store: SlotStore) -> AAnswer:
        registered: list = []
        memo = self._memo
        code = self._code
        terms = self._terms
        self._depth += 1
        if self._depth > self.stats.max_depth:
            self.stats.max_depth = self._depth
        try:
            while True:
                key = (pc, store)
                owner = self._active.get(key)
                if owner is not None:
                    self.note_loop_cut(owner, terms[pc])
                    return AAnswer(self.top_value, store)
                if memo is not None:
                    hit = self.memo_probe(key, key, terms[pc])
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)
                self.tick(terms[pc])

                instr = code[pc]
                op = instr[0]
                if op == COP_KRET:
                    kont_val = store.vals[instr[1]]
                    result = self._ref(instr[2], store)
                    return self.ret(kont_val, result, store)
                if op == COP_BIND:
                    store = self.bind_slot(
                        store, instr[1], self._ref(instr[2], store)
                    )
                    pc = instr[3]
                elif op == COP_CAPP:
                    fun_v = self._ref(instr[1], store)
                    arg_v = self._ref(instr[2], store)
                    return self.apply(
                        fun_v, arg_v, self._cvals[instr[3]], store
                    )
                elif op == COP_CIF:
                    return self._branch(
                        instr, self._ref(instr[3], store), store
                    )
                elif op == COP_PRIM:
                    lattice = self.lattice
                    result = lattice.of_num(
                        lattice.domain.binop(
                            instr[2],
                            self._ref(instr[3], store).num,
                            self._ref(instr[4], store).num,
                        )
                    )
                    store = self.bind_slot(store, instr[1], result)
                    pc = instr[5]
                else:  # COP_CLOOP
                    return self._loop(self._cvals[instr[1]], store)
        finally:
            self._depth -= 1
            self.unregister_judgments(registered)

    def apply(
        self, fun: AbsVal, arg: AbsVal, kont_val: AbsVal, store: SlotStore
    ) -> AAnswer:
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
            else:
                param_slot, kparam_slot, body_pc = self._entry_of(clo)
                entry = self.bind_slot(
                    self.bind_slot(store, param_slot, arg),
                    kparam_slot,
                    kont_val,
                )
                branch = self.eval(body_pc, entry)
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "apply")
            )
        if answer is None:
            return AAnswer(self.lattice.bottom, store)
        return answer

    def ret(
        self, kont_val: AbsVal, value: AbsVal, store: SlotStore
    ) -> AAnswer:
        answer: AAnswer | None = None
        for kont in canonical_order(kont_val.konts):
            self.stats.returns_analyzed += 1
            if kont is A_STOP:
                branch = AAnswer(value, store)
            else:
                param_slot, body_pc = self._kont_entry_of(kont)
                branch = self.eval(
                    body_pc, self.bind_slot(store, param_slot, value)
                )
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "return")
            )
        if answer is None:
            return AAnswer(self.lattice.bottom, store)
        return answer

    def _branch(self, instr, test_v: AbsVal, store: SlotStore) -> AAnswer:
        domain = self.lattice.domain
        zero_possible = domain.may_be_zero(test_v.num)
        nonzero_possible = domain.may_be_nonzero(test_v.num) or bool(
            test_v.clos
        )
        bound = self.bind_slot(store, instr[1], self._cvals[instr[2]])
        if zero_possible and not nonzero_possible:
            return self.eval(instr[4], bound)
        if nonzero_possible and not zero_possible:
            return self.eval(instr[5], bound)
        if not zero_possible and not nonzero_possible:
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(instr[4], bound)
        else_answer = self.eval(instr[5], bound)
        return self.join_answers(then_answer, else_answer, "if0")


# ----------------------------------------------------------------------
# Polyvariant engine (k-CFA over plans)
# ----------------------------------------------------------------------


class PolyvariantPlanAnalyzer(_PolyvariantSkeleton):
    """The k-CFA judgments over a compiled `AnfPlan`.

    The store stays the `(variable, context)`-keyed `AbsStore` (the
    location space is not dense), but dispatch runs over the flat
    instruction array with precomputed free-variable captures.
    """

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
        plan_cache: PlanCache | None = PLAN_CACHE,
    ) -> None:
        self.setup_polyvariant(
            term, domain, k, initial, check, max_visits, trace, metrics, cache
        )
        plan = _anf_plan_for(term, plan_cache)
        ext_closures = [
            AbsClo(clo.param, clo.body)
            for _, value in self.initial_store.items()
            for clo in value.clos
            if isinstance(clo, PolyClo)
            and AbsClo(clo.param, clo.body) not in plan.entries
        ]
        src = extend_anf_plan(plan, ext_closures) if ext_closures else plan
        self._code = src.code
        self._terms = src.terms
        self._entry_pc = plan.entry_pc
        self._slot_names = src.slot_names
        self._free_names = plan.free_names
        self._cvals = _materialize_poly(src.consts, self.lattice)
        body_pcs = {
            (clo.param, clo.body): entry[1]
            for clo, entry in src.entries.items()
        }
        self._entry_of = _entry_lookup(
            body_pcs, "closure", lambda clo: (clo.param, clo.body)
        )
        self.set_top(plan.cl_top)

    def _entry(self) -> AAnswer:
        env: dict[str, Context] = {
            name: TOP_CONTEXT for name in self._free_names
        }
        return self.eval(self._entry_pc, env, TOP_CONTEXT, self.initial_store)

    def _value_ref(
        self, ref: int, env: Mapping[str, Context], store: AbsStore
    ) -> AbsVal:
        if ref >= 0:
            name = self._slot_names[ref]
            return self._lookup(name, env.get(name), store)
        return self._const_value(-1 - ref, env)

    def _const_value(
        self, index: int, env: Mapping[str, Context]
    ) -> AbsVal:
        desc = self._cvals[index]
        if type(desc) is AbsVal:
            return desc
        param, body, needed = desc
        captured = tuple((n, env[n]) for n in needed if n in env)
        return self.lattice.of_clos(PolyClo(param, body, captured))

    def eval(
        self,
        pc: int,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        if self._memo is None:
            return self._eval(pc, env, ctx, store)
        memo_key = (pc, frozenset(env.items()), ctx, store)
        start_seq, footprint = self.memo_frame()
        try:
            answer = self._eval(pc, env, ctx, store)
        finally:
            self.memo_frame_end(footprint)
        return self.memo_complete(
            memo_key,
            start_seq,
            footprint,
            answer,
            cacheable=self._code[pc][0] != OP_TAIL,
        )

    def _eval(
        self,
        pc: int,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        registered: list = []
        memo = self._memo
        code = self._code
        terms = self._terms
        slot_names = self._slot_names
        self._depth += 1
        if self._depth > self.stats.max_depth:
            self.stats.max_depth = self._depth
        env = dict(env)
        try:
            while True:
                instr = code[pc]
                op = instr[0]
                self.tick(terms[pc])
                if op == OP_TAIL:
                    return AAnswer(
                        self._value_ref(instr[1], env, store), store
                    )
                key = (pc, frozenset(env.items()), ctx, store)
                owner = self._active.get(key)
                if owner is not None:
                    self.note_loop_cut(owner, terms[pc])
                    return AAnswer(self.top_value, store)
                if memo is not None:
                    hit = self.memo_probe(key, key, terms[pc])
                    if hit is not None:
                        return hit
                self.register_judgment(key, registered)
                if op == OP_BIND:
                    result = self._value_ref(instr[2], env, store)
                    next_pc = instr[3]
                elif op == OP_APP:
                    fun = self._value_ref(instr[2], env, store)
                    arg = self._value_ref(instr[3], env, store)
                    answer = self.apply(
                        slot_names[instr[1]], fun, arg, ctx, store
                    )
                    result, store = answer.value, answer.store
                    next_pc = instr[4]
                elif op == OP_IF:
                    answer = self._branch(instr, env, ctx, store)
                    result, store = answer.value, answer.store
                    next_pc = instr[5]
                elif op == OP_PRIM:
                    lattice = self.lattice
                    result = lattice.of_num(
                        lattice.domain.binop(
                            instr[2],
                            self._value_ref(instr[3], env, store).num,
                            self._value_ref(instr[4], env, store).num,
                        )
                    )
                    next_pc = instr[5]
                else:  # OP_LOOP
                    result = self.lattice.of_num(self.lattice.domain.iota)
                    next_pc = instr[2]
                name = slot_names[instr[1]]
                store = self.bind_join(store, CtxVar(name, ctx), result)
                env[name] = ctx
                pc = next_pc
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
                body_pc = self._entry_of(clo)
                callee_ctx = _truncate(ctx + (site,), self.k)
                entry = self.bind_join(
                    store, CtxVar(clo.param, callee_ctx), arg
                )
                callee_env = dict(clo.env)
                callee_env[clo.param] = callee_ctx
                answer = self.eval(body_pc, callee_env, callee_ctx, entry)
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
        instr,
        env: Mapping[str, Context],
        ctx: Context,
        store: AbsStore,
    ) -> AAnswer:
        test = self._value_ref(instr[2], env, store)
        domain = self.lattice.domain
        zero = domain.may_be_zero(test.num)
        nonzero = domain.may_be_nonzero(test.num) or bool(test.clos)
        if zero and not nonzero:
            return self.eval(instr[3], env, ctx, store)
        if nonzero and not zero:
            return self.eval(instr[4], env, ctx, store)
        if not zero and not nonzero:
            return AAnswer(self.lattice.bottom, store)
        then_answer = self.eval(instr[3], env, ctx, store)
        else_answer = self.eval(instr[4], env, ctx, store)
        return self.join_answers(then_answer, else_answer, "if0")
