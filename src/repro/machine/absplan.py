"""Compiled analysis plans: flat instruction arrays for the analyzers.

Every analyzer in this repo interprets the Python AST directly: each
rule visit pattern-matches a node, hashes variable *names* into a
dict-backed store, and keys Section 4.4 judgments on ``id(term)``.
That per-visit interpretive overhead is exactly what the functional
correspondence (interpreter → abstract machine) compiles away for the
concrete semantics in :mod:`repro.machine.compile_direct` /
:mod:`repro.machine.compile_cps`; this module does the same lowering
for the *abstract* semantics.

A **plan** is a one-time, domain-independent compilation of a program:

- every judgment point (let-spine step or spine-terminating value in
  the restricted subset; every serious cps(A) term) becomes one flat
  instruction at an integer ``pc``, with explicit successor pcs — no
  ``isinstance`` dispatch and no AST re-walking in the hot loop;
- every binder and referenced free variable is resolved to a dense
  integer **slot** (total, by the unique-binder invariant), so the
  compiled engines can run over the tuple-backed
  :class:`repro.domains.store.SlotStore` instead of the name-keyed
  ``AbsStore``;
- every literal in value position (numeral, primitive, lambda) becomes
  an index into a constant pool, materialized once per run for the
  run's lattice instead of once per visit;
- the closure universe ``CL⊤`` (and ``K⊤`` for cps(A)) is precomputed,
  and every abstract closure/continuation the program can build maps
  to its compiled entry point.

Plans contain no lattice values and no per-run state, so they are
shared across runs, domains, and threads through the process-wide
:data:`PLAN_CACHE`, keyed by structural term equality — the serve
layer reuses one compilation across every request for the same
program.  The compiled engines living in
:mod:`repro.analysis.engine` replay the tree analyzers' judgments
bit-for-bit (same answers, same statistics); this module is only the
lowering.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

from repro.analysis.common import (
    AbsClo,
    AbsCo,
    AbsCpsClo,
    closures_of_term,
    cps_tops_of_term,
    recursion_headroom,
)
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
    CVar,
    KApp,
    KLam,
)
from repro.cps.validate import cps_subterms
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
from repro.lang.syntax import free_variables, subterms

# ----------------------------------------------------------------------
# Instruction set
# ----------------------------------------------------------------------
#
# Instructions are plain tuples whose first element is the opcode; the
# remaining operands are slots, value references, constant indices and
# successor pcs.  A *value reference* encodes both kinds of operand in
# one int: ``ref >= 0`` reads slot ``ref`` from the store, ``ref < 0``
# reads constant ``-1 - ref`` from the pool.

#: Restricted-subset (A-normal form) opcodes.
OP_TAIL = 0  #: (op, vref) — the spine ends in a value.
OP_BIND = 1  #: (op, dst_slot, vref, next_pc) — let of a value.
OP_APP = 2  #: (op, dst_slot, fun_ref, arg_ref, next_pc)
OP_IF = 3  #: (op, dst_slot, test_ref, then_pc, else_pc, next_pc)
OP_PRIM = 4  #: (op, dst_slot, binop, ref0, ref1, next_pc)
OP_LOOP = 5  #: (op, dst_slot, next_pc)

#: cps(A) opcodes.
COP_KRET = 0  #: (op, kvar_slot, vref) — a return ``(k W)``.
COP_BIND = 1  #: (op, dst_slot, vref, next_pc)
COP_CAPP = 2  #: (op, fun_ref, arg_ref, kont_cidx)
COP_CIF = 3  #: (op, kvar_slot, kont_cidx, test_ref, then_pc, else_pc)
COP_PRIM = 4  #: (op, dst_slot, binop, ref0, ref1, next_pc)
COP_CLOOP = 5  #: (op, kont_cidx)


def encode_const(index: int) -> int:
    """The value reference for constant-pool entry ``index``."""
    return -1 - index


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


class AnfPlan:
    """A compiled restricted-subset program.

    One plan serves the direct, semantic-CPS and polyvariant engines:
    the instruction stream encodes the shared let-spine structure, and
    each engine interprets it with its own store/continuation model.
    """

    __slots__ = (
        "entry_pc",
        "code",
        "terms",
        "slot_names",
        "slot_of",
        "consts",
        "entries",
        "cl_top",
        "free_names",
    )

    def __init__(
        self,
        entry_pc: int,
        code: tuple[tuple, ...],
        terms: tuple[Term, ...],
        slot_names: tuple[str, ...],
        slot_of: dict[str, int],
        consts: tuple[tuple, ...],
        entries: dict[AbsClo, tuple[int, int]],
        cl_top: frozenset,
        free_names: frozenset,
    ) -> None:
        self.entry_pc = entry_pc
        #: Flat instruction tuples, indexed by pc.
        self.code = code
        #: The source node of each pc (trace labels, error messages).
        self.terms = terms
        #: Slot index → variable name (total over binders + free refs).
        self.slot_names = slot_names
        self.slot_of = slot_of
        #: Domain-independent constant descriptors:
        #: ``("num", n) | ("prim", name) | ("clo", Lam)``.
        self.consts = consts
        #: Abstract closure → ``(param_slot, body_pc)``.
        self.entries = entries
        #: ``closures_of_term`` of the compiled program (CL⊤ seed).
        self.cl_top = cl_top
        #: Free variables of the program (polyvariant initial env).
        self.free_names = free_names


class CpsPlan:
    """A compiled cps(A) program for the syntactic-CPS engine."""

    __slots__ = (
        "entry_pc",
        "code",
        "terms",
        "slot_names",
        "slot_of",
        "consts",
        "cps_entries",
        "kont_entries",
        "cl_top",
        "k_top",
    )

    def __init__(
        self,
        entry_pc: int,
        code: tuple[tuple, ...],
        terms: tuple[CTerm, ...],
        slot_names: tuple[str, ...],
        slot_of: dict[str, int],
        consts: tuple[tuple, ...],
        cps_entries: dict[AbsCpsClo, tuple[int, int, int]],
        kont_entries: dict[AbsCo, tuple[int, int]],
        cl_top: frozenset,
        k_top: frozenset,
    ) -> None:
        self.entry_pc = entry_pc
        self.code = code
        self.terms = terms
        self.slot_names = slot_names
        self.slot_of = slot_of
        #: ``("num", n) | ("cps_prim", name) | ("cps_clo", CLam)
        #: | ("konts", KLam)``.
        self.consts = consts
        #: Abstract CPS closure → ``(param_slot, kparam_slot, body_pc)``.
        self.cps_entries = cps_entries
        #: Abstract continuation → ``(param_slot, body_pc)``.
        self.kont_entries = kont_entries
        self.cl_top = cl_top
        self.k_top = k_top


# ----------------------------------------------------------------------
# Compiler for the restricted subset
# ----------------------------------------------------------------------


class _AnfCompiler:
    """Lowers restricted-subset terms to `AnfPlan` instruction arrays.

    Blocks are memoized by node identity, mirroring how the tree
    analyzers key Section 4.4 judgments on ``id(term)``: a shared node
    compiles to one pc, distinct-but-equal nodes to distinct pcs.
    """

    def __init__(self) -> None:
        self.code: list[list] = []
        self.terms: list[Term] = []
        self.slot_names: list[str] = []
        self.slot_of: dict[str, int] = {}
        self.consts: list[tuple] = []
        self._const_of: dict[Hashable, int] = {}
        self._block_of: dict[int, int] = {}
        self.entries: dict[AbsClo, tuple[int, int]] = {}

    @classmethod
    def extending(cls, plan: AnfPlan) -> "_AnfCompiler":
        """A compiler whose arrays continue an existing plan's, for
        per-run extension code (initial-store closure bodies).  The
        plan itself is never mutated."""
        comp = cls()
        comp.code = [list(instr) for instr in plan.code]
        comp.terms = list(plan.terms)
        comp.slot_names = list(plan.slot_names)
        comp.slot_of = dict(plan.slot_of)
        comp.consts = list(plan.consts)
        comp._const_of = {desc: i for i, desc in enumerate(plan.consts)}
        comp.entries = dict(plan.entries)
        return comp

    def slot(self, name: str) -> int:
        index = self.slot_of.get(name)
        if index is None:
            index = len(self.slot_names)
            self.slot_of[name] = index
            self.slot_names.append(name)
        return index

    def vref(self, value: Term) -> int:
        if isinstance(value, Var):
            return self.slot(value.name)
        if isinstance(value, Num):
            desc = ("num", value.value)
        elif isinstance(value, Prim):
            desc = ("prim", value.name)
        elif isinstance(value, Lam):
            desc = ("clo", value)
        else:
            raise TypeError(f"not a syntactic value: {value!r}")
        index = self._const_of.get(desc)
        if index is None:
            index = len(self.consts)
            self._const_of[desc] = index
            self.consts.append(desc)
        return encode_const(index)

    def closure_blocks(self, term: Term) -> None:
        """Compile an entry block for every lambda under ``term``."""
        for sub in subterms(term):
            if isinstance(sub, Lam):
                clo = AbsClo(sub.param, sub.body)
                if clo not in self.entries:
                    self.entries[clo] = (
                        self.slot(sub.param),
                        self.block(sub.body),
                    )

    def block(self, term: Term) -> int:
        """The entry pc of ``term``, compiling its let-spine (and,
        recursively, branch targets) on first encounter."""
        code = self.code
        entry: int | None = None
        patch: tuple[int, int] | None = None
        while True:
            pc = self._block_of.get(id(term))
            if pc is not None:
                if patch is not None:
                    code[patch[0]][patch[1]] = pc
                return entry if entry is not None else pc
            pc = len(code)
            self._block_of[id(term)] = pc
            if entry is None:
                entry = pc
            if patch is not None:
                code[patch[0]][patch[1]] = pc
                patch = None
            if is_value(term):
                code.append([OP_TAIL, self.vref(term)])
                self.terms.append(term)
                return entry
            if not isinstance(term, Let):
                raise TypeError(
                    f"term is not in the restricted subset: {term!r}"
                )
            name, rhs, body = term.name, term.rhs, term.body
            dst = self.slot(name)
            if is_value(rhs):
                code.append([OP_BIND, dst, self.vref(rhs), -1])
                self.terms.append(term)
                patch = (pc, 3)
            elif isinstance(rhs, App):
                code.append(
                    [OP_APP, dst, self.vref(rhs.fun), self.vref(rhs.arg), -1]
                )
                self.terms.append(term)
                patch = (pc, 4)
            elif isinstance(rhs, If0):
                instr = [OP_IF, dst, self.vref(rhs.test), -1, -1, -1]
                code.append(instr)
                self.terms.append(term)
                instr[3] = self.block(rhs.then)
                instr[4] = self.block(rhs.orelse)
                patch = (pc, 5)
            elif isinstance(rhs, PrimApp):
                code.append(
                    [
                        OP_PRIM,
                        dst,
                        rhs.op,
                        self.vref(rhs.args[0]),
                        self.vref(rhs.args[1]),
                        -1,
                    ]
                )
                self.terms.append(term)
                patch = (pc, 5)
            elif isinstance(rhs, Loop):
                code.append([OP_LOOP, dst, -1])
                self.terms.append(term)
                patch = (pc, 2)
            else:
                raise TypeError(f"invalid let right-hand side: {rhs!r}")
            term = body

    def finish(self, entry_pc: int, term: Term) -> AnfPlan:
        return AnfPlan(
            entry_pc,
            tuple(tuple(instr) for instr in self.code),
            tuple(self.terms),
            tuple(self.slot_names),
            dict(self.slot_of),
            tuple(self.consts),
            dict(self.entries),
            closures_of_term(term),
            frozenset(free_variables(term)),
        )

    def extension(self, bodies: "list[AbsClo]") -> "AnfExtension":
        """Compile the bodies of closures assumed in an initial store
        and package the extended arrays (plan arrays are shared, only
        the copies grow)."""
        for clo in bodies:
            if clo not in self.entries:
                self.entries[clo] = (
                    self.slot(clo.param),
                    self.block(clo.body),
                )
                self.closure_blocks(clo.body)
        return AnfExtension(
            tuple(tuple(instr) for instr in self.code),
            tuple(self.terms),
            tuple(self.slot_names),
            dict(self.slot_of),
            tuple(self.consts),
            dict(self.entries),
        )


class AnfExtension:
    """Per-run extended arrays: a plan plus initial-store closure code."""

    __slots__ = (
        "code", "terms", "slot_names", "slot_of", "consts", "entries"
    )

    def __init__(self, code, terms, slot_names, slot_of, consts, entries):
        self.code = code
        self.terms = terms
        self.slot_names = slot_names
        self.slot_of = slot_of
        self.consts = consts
        self.entries = entries


def compile_anf_plan(term: Term) -> AnfPlan:
    """Lower a restricted-subset program to a flat `AnfPlan`."""
    with recursion_headroom():
        comp = _AnfCompiler()
        entry_pc = comp.block(term)
        comp.closure_blocks(term)
        return comp.finish(entry_pc, term)


def extend_anf_plan(plan: AnfPlan, closures: "list[AbsClo]") -> AnfExtension:
    """Extend ``plan`` with compiled bodies for initial-store closures
    (those not already compiled as part of the program)."""
    with recursion_headroom():
        comp = _AnfCompiler.extending(plan)
        return comp.extension(closures)


# ----------------------------------------------------------------------
# Compiler for cps(A)
# ----------------------------------------------------------------------


class _CpsCompiler:
    """Lowers cps(A) terms to `CpsPlan` instruction arrays."""

    def __init__(self) -> None:
        self.code: list[list] = []
        self.terms: list[CTerm] = []
        self.slot_names: list[str] = []
        self.slot_of: dict[str, int] = {}
        self.consts: list[tuple] = []
        self._const_of: dict[Hashable, int] = {}
        self._block_of: dict[int, int] = {}
        self.cps_entries: dict[AbsCpsClo, tuple[int, int, int]] = {}
        self.kont_entries: dict[AbsCo, tuple[int, int]] = {}

    @classmethod
    def extending(cls, plan: CpsPlan) -> "_CpsCompiler":
        comp = cls()
        comp.code = [list(instr) for instr in plan.code]
        comp.terms = list(plan.terms)
        comp.slot_names = list(plan.slot_names)
        comp.slot_of = dict(plan.slot_of)
        comp.consts = list(plan.consts)
        comp._const_of = {desc: i for i, desc in enumerate(plan.consts)}
        comp.cps_entries = dict(plan.cps_entries)
        comp.kont_entries = dict(plan.kont_entries)
        return comp

    def slot(self, name: str) -> int:
        index = self.slot_of.get(name)
        if index is None:
            index = len(self.slot_names)
            self.slot_of[name] = index
            self.slot_names.append(name)
        return index

    def const(self, desc: tuple) -> int:
        index = self._const_of.get(desc)
        if index is None:
            index = len(self.consts)
            self._const_of[desc] = index
            self.consts.append(desc)
        return index

    def vref(self, value) -> int:
        if isinstance(value, CVar):
            return self.slot(value.name)
        if isinstance(value, CNum):
            desc = ("num", value.value)
        elif isinstance(value, CPrim):
            desc = ("cps_prim", value.name)
        elif isinstance(value, CLam):
            desc = ("cps_clo", value)
        else:
            raise TypeError(f"not a cps(A) value: {value!r}")
        return encode_const(self.const(desc))

    def kont(self, klam: KLam) -> int:
        """The constant index of a continuation value, registering its
        compiled entry point."""
        co = AbsCo(klam.param, klam.body)
        if co not in self.kont_entries:
            self.kont_entries[co] = (
                self.slot(klam.param),
                self.block(klam.body),
            )
        return self.const(("konts", klam))

    def closure_blocks(self, term: CTerm) -> None:
        """Compile an entry block for every user lambda under ``term``
        (continuation lambdas are handled at their use sites)."""
        for sub in cps_subterms(term):
            if isinstance(sub, CLam):
                clo = AbsCpsClo(sub.param, sub.kparam, sub.body)
                if clo not in self.cps_entries:
                    self.cps_entries[clo] = (
                        self.slot(sub.param),
                        self.slot(sub.kparam),
                        self.block(sub.body),
                    )

    def block(self, term: CTerm) -> int:
        code = self.code
        entry: int | None = None
        patch: tuple[int, int] | None = None
        while True:
            pc = self._block_of.get(id(term))
            if pc is not None:
                if patch is not None:
                    code[patch[0]][patch[1]] = pc
                return entry if entry is not None else pc
            pc = len(code)
            self._block_of[id(term)] = pc
            if entry is None:
                entry = pc
            if patch is not None:
                code[patch[0]][patch[1]] = pc
                patch = None
            if isinstance(term, KApp):
                code.append(
                    [COP_KRET, self.slot(term.kvar), self.vref(term.value)]
                )
                self.terms.append(term)
                return entry
            if isinstance(term, CLet):
                code.append(
                    [
                        COP_BIND,
                        self.slot(term.name),
                        self.vref(term.value),
                        -1,
                    ]
                )
                self.terms.append(term)
                patch = (pc, 3)
                term = term.body
            elif isinstance(term, CApp):
                instr = [
                    COP_CAPP, self.vref(term.fun), self.vref(term.arg), -1
                ]
                code.append(instr)
                self.terms.append(term)
                instr[3] = self.kont(term.kont)
                return entry
            elif isinstance(term, CIf0):
                instr = [
                    COP_CIF,
                    self.slot(term.kvar),
                    -1,
                    self.vref(term.test),
                    -1,
                    -1,
                ]
                code.append(instr)
                self.terms.append(term)
                instr[2] = self.kont(term.kont)
                instr[4] = self.block(term.then)
                instr[5] = self.block(term.orelse)
                return entry
            elif isinstance(term, CPrimLet):
                code.append(
                    [
                        COP_PRIM,
                        self.slot(term.name),
                        term.op,
                        self.vref(term.args[0]),
                        self.vref(term.args[1]),
                        -1,
                    ]
                )
                self.terms.append(term)
                patch = (pc, 5)
                term = term.body
            elif isinstance(term, CLoop):
                instr = [COP_CLOOP, -1]
                code.append(instr)
                self.terms.append(term)
                instr[1] = self.kont(term.kont)
                return entry
            else:
                raise TypeError(f"not a cps(A) term: {term!r}")

    def finish(self, entry_pc: int, term: CTerm) -> CpsPlan:
        return CpsPlan(
            entry_pc,
            tuple(tuple(instr) for instr in self.code),
            tuple(self.terms),
            tuple(self.slot_names),
            dict(self.slot_of),
            tuple(self.consts),
            dict(self.cps_entries),
            dict(self.kont_entries),
            *cps_tops_of_term(term),
        )

    def extension(
        self,
        closures: "list[AbsCpsClo]",
        konts: "list[AbsCo]",
    ) -> "CpsExtension":
        for clo in closures:
            if clo not in self.cps_entries:
                self.cps_entries[clo] = (
                    self.slot(clo.param),
                    self.slot(clo.kparam),
                    self.block(clo.body),
                )
                self.closure_blocks(clo.body)
        for co in konts:
            if co not in self.kont_entries:
                self.kont_entries[co] = (
                    self.slot(co.param),
                    self.block(co.body),
                )
                self.closure_blocks(co.body)
        return CpsExtension(
            tuple(tuple(instr) for instr in self.code),
            tuple(self.terms),
            tuple(self.slot_names),
            dict(self.slot_of),
            tuple(self.consts),
            dict(self.cps_entries),
            dict(self.kont_entries),
        )


class CpsExtension:
    """Per-run extended arrays for a `CpsPlan`."""

    __slots__ = (
        "code",
        "terms",
        "slot_names",
        "slot_of",
        "consts",
        "cps_entries",
        "kont_entries",
    )

    def __init__(
        self, code, terms, slot_names, slot_of, consts, cps_entries,
        kont_entries,
    ):
        self.code = code
        self.terms = terms
        self.slot_names = slot_names
        self.slot_of = slot_of
        self.consts = consts
        self.cps_entries = cps_entries
        self.kont_entries = kont_entries


def compile_cps_plan(term: CTerm) -> CpsPlan:
    """Lower a cps(A) program to a flat `CpsPlan`."""
    with recursion_headroom():
        comp = _CpsCompiler()
        entry_pc = comp.block(term)
        comp.closure_blocks(term)
        return comp.finish(entry_pc, term)


def extend_cps_plan(
    plan: CpsPlan,
    closures: "list[AbsCpsClo]",
    konts: "list[AbsCo]",
) -> CpsExtension:
    """Extend ``plan`` with compiled bodies for initial-store closures
    and continuations."""
    with recursion_headroom():
        comp = _CpsCompiler.extending(plan)
        return comp.extension(closures, konts)


# ----------------------------------------------------------------------
# The cross-run plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """An in-memory LRU cache of compiled plans, keyed by
    ``("anf" | "cps", term)`` with structural term equality (the
    canonical hash of frozen AST nodes).  A miss calls
    `compile_anf_plan` / `compile_cps_plan`.

    Thread-safe: the serve layer's worker pool shares the process-wide
    :data:`PLAN_CACHE`, so repeated requests for the same program skip
    compilation entirely.  Plans are immutable and domain-independent,
    so sharing across domains and concurrent runs is sound.
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _get(self, kind: str, term, compile_fn):
        key = (kind, term)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += 1
                return plan
            self.misses += 1
        # Trace-context span (a no-op outside an active request trace)
        # so `server_timing` can attribute the one-time compile cost.
        from repro.obs.trace import span as trace_span

        with trace_span("plan.compile", kind=kind):
            plan = compile_fn(term)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                return existing
            self._plans[key] = plan
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def anf_plan(self, term: Term) -> AnfPlan:
        """The cached (or freshly compiled) plan for ``term``."""
        return self._get("anf", term, compile_anf_plan)

    def cps_plan(self, term: CTerm) -> CpsPlan:
        """The cached (or freshly compiled) plan for the cps(A)
        program ``term``."""
        return self._get("cps", term, compile_cps_plan)

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._plans.clear()

    def snapshot(self) -> dict:
        """Counters for ``/metricsz`` and test assertions."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._plans),
                "capacity": self.capacity,
            }


#: The process-wide plan cache shared by serve, survey, lint and bench.
PLAN_CACHE = PlanCache()
