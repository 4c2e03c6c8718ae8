"""Shared machinery for the abstract collecting interpreters.

Abstract closures and continuations (Section 4.1), the ``CL⊤``/``K⊤``
collectors used by the loop-detection rules (Section 4.4), answers,
statistics, and configuration — and the analyzer skeleton: every rule
that does not depend on the engine or on the figure is written once
here (`WorkBudgetMixin` for all nine tree and plan analyzers,
`CpsAnalyzerMixin` for the four CPS ones), so each analyzer class
holds only the rules the paper compares.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator

from repro.analysis.result import AnalysisResult
from repro.anf.validate import validate_anf
from repro.cps.ast import CApp, CIf0, CLam, CLoop, CPrim, CTerm
from repro.cps.validate import cps_subterms
from repro.domains.absval import AbsVal, Lattice
from repro.domains.constprop import ConstPropDomain
from repro.domains.protocol import NumDomain
from repro.domains.store import AbsStore
from repro.lang.ast import Lam, Num, Prim, Term, Var, cached_hash, hash_slot
from repro.lang.syntax import subterms
from repro.obs.events import (
    AnalyzerVisit,
    BudgetAborted,
    CacheHit,
    JoinPerformed,
    LoopDetected,
    StoreWidened,
    TraceEvent,
    term_label,
)
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink


class AnalysisError(Exception):
    """Base class for analyzer errors."""


#: Default recursion headroom for deeply nested abstract derivations.
RECURSION_LIMIT = 100_000

#: Recursion headroom of the front-end passes.  It bounds how deep a
#: program may nest (a let/lambda nest about 3300 levels deep passes),
#: well below `RECURSION_LIMIT`: the analyzers recurse several times
#: per level and copy a store per binder, so their time and memory
#: grow with the square of the nesting depth; and a term's first hash
#: nests C calls once per level, which overflows the C stack (SIGSEGV)
#: near 20 000 levels under `RECURSION_LIMIT`.
FRONT_END_LIMIT = 10_000


@contextmanager
def recursion_headroom(limit: int = RECURSION_LIMIT) -> Iterator[None]:
    """Temporarily raise the interpreter recursion limit to ``limit``.

    The abstract derivations recurse once per judgment, so deep
    let-spines and long continuation chains need far more headroom
    than the interpreter default.  Never *lowers* an already higher
    limit, and restores the previous one on exit."""
    previous = sys.getrecursionlimit()
    if limit > previous:
        sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        if limit > previous:
            sys.setrecursionlimit(previous)


class ProgramTooDeep(ValueError):
    """The program nests past the front end's recursion headroom (the
    ``bad_request`` code, CLI exit 11)."""


@contextmanager
def front_end_headroom() -> Iterator[None]:
    """Run a recursive front-end pass (parse, normalize, uniquify, the
    CPS transform, the grammar checks, a term's first hash) with
    `FRONT_END_LIMIT` headroom; a program that nests past it raises
    `ProgramTooDeep` instead of a raw `RecursionError`."""
    try:
        with recursion_headroom(FRONT_END_LIMIT):
            yield
    except RecursionError:
        raise ProgramTooDeep(
            "program nests too deeply for the front end"
        ) from None


class BudgetExceeded(AnalysisError):
    """The analysis exceeded its optional work budget.

    The CPS analyzers' duplication is worst-case exponential (Section
    6.2); a visit budget lets surveys and services bound the damage and
    observe how often real programs trigger the blowup.
    """

    def __init__(self, budget: int) -> None:
        self.budget = budget
        super().__init__(f"analysis exceeded {budget} rule visits")


class NonComputableError(AnalysisError):
    """The exact analysis result is not computable.

    Raised by the CPS analyzers when they meet the Section 6.2 ``loop``
    construct in ``loop_mode='reject'``: computing the infinite join
    ``⊔_i appre(κ, (i, ∅))`` is undecidable in general (the paper
    adapts Kam & Ullman's MOP-undecidability proof).
    """


class EngineUnsupported(AnalysisError):
    """The requested execution engine has no implementation for this
    analyzer.

    The pushdown analyzer is tree-only: its summary tables are keyed
    by abstract closures and stores, not by compiled instruction
    offsets, so there is no ``engine="plan"`` variant.  The serve
    layer maps this to the ``engine_unsupported`` enum error rather
    than a crash.
    """

    def __init__(self, analyzer: str, engine: str) -> None:
        self.analyzer = analyzer
        self.engine = engine
        super().__init__(
            f"the {analyzer} analyzer has no {engine!r} engine"
            " implementation (tree only)"
        )


# ----------------------------------------------------------------------
# Abstract closures and continuations
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AbsTag:
    """An abstract primitive-procedure tag (``inc``/``dec``/``inck``/``deck``)."""

    tag: str

    def __str__(self) -> str:
        return self.tag

    def __reduce__(self) -> str:
        # The module global's name: `pickle` gives back the singleton,
        # which the analyzers test by identity (``clo is A_INC``).
        return f"A_{self.tag.upper()}"


A_INC = AbsTag("inc")
A_DEC = AbsTag("dec")
A_INCK = AbsTag("inck")
A_DECK = AbsTag("deck")


@cached_hash
@dataclass(frozen=True, slots=True)
class AbsClo:
    """An abstract user closure ``(cle x, M)`` — the environment is
    dropped by the 0CFA abstraction (Section 4.1).  Like the terms, it
    and the other closure, continuation and frame tokens keep their
    hash (`repro.lang.ast.cached_hash`): the first hash of a fresh
    closure set would otherwise re-hash every body."""

    param: str
    body: Term
    _hash: "int | None" = hash_slot()

    def __str__(self) -> str:
        return f"(cle {self.param})"


@cached_hash
@dataclass(frozen=True, slots=True)
class AbsCpsClo:
    """An abstract CPS user closure ``(cle x k, P)``."""

    param: str
    kparam: str
    body: CTerm
    _hash: "int | None" = hash_slot()

    def __str__(self) -> str:
        return f"(cle {self.param} {self.kparam})"


@cached_hash
@dataclass(frozen=True, slots=True)
class AbsCo:
    """An abstract continuation ``(coe x, P)`` of the syntactic-CPS
    analyzer."""

    param: str
    body: CTerm
    _hash: "int | None" = hash_slot()

    def __str__(self) -> str:
        return f"(coe {self.param})"


@dataclass(frozen=True, slots=True)
class AbsStop:
    """The abstract initial continuation ``stop``."""

    def __str__(self) -> str:
        return "stop"

    def __reduce__(self) -> str:
        return "A_STOP"  # the singleton, as `AbsTag.__reduce__`


A_STOP = AbsStop()


def canonical_order(members: frozenset, key: Callable = str):
    """The closures or continuations of a set, in a canonical order.

    Every application site iterates its closure (or continuation) set
    through this.  Hash order depends on ``PYTHONHASHSEED`` and on how
    the set object was built, and with the eval memo on, the order of
    the branches decides which judgments get memoized first, so the
    work counts would follow it.  Sorting by ``str`` is canonical
    because each member prints uniquely in a program with unique
    binders (polyvariant closures pass their own ``key``); a set of
    one is returned as it is.
    """
    return sorted(members, key=key) if len(members) > 1 else members


@cached_hash
@dataclass(frozen=True, slots=True)
class AFrame:
    """An abstract semantic-CPS frame ``(let (x []) M)`` — the
    environment component is dropped by the abstraction."""

    name: str
    body: Term
    _hash: "int | None" = hash_slot()

    def __str__(self) -> str:
        return f"(let ({self.name} []) ...)"


#: An abstract continuation of the semantic-CPS analyzer: a stack of
#: frames, innermost first.
AKont = tuple[AFrame, ...]


# ----------------------------------------------------------------------
# phi_e: abstract syntactic values (shared by Figures 4 and 5)
# ----------------------------------------------------------------------


def abstract_value(lattice: Lattice, value: Term, store: AbsStore) -> AbsVal:
    """``phi_e`` of Figures 4/5: the abstract value of a syntactic value."""
    match value:
        case Num(n):
            return lattice.of_const(n)
        case Var(name):
            return store.get(name)
        case Prim("add1"):
            return lattice.of_clos(A_INC)
        case Prim("sub1"):
            return lattice.of_clos(A_DEC)
        case Lam(param, body):
            return lattice.of_clos(AbsClo(param, body))
    raise TypeError(f"not a syntactic value: {value!r}")


# ----------------------------------------------------------------------
# CL⊤ / K⊤ collectors (Section 4.4)
# ----------------------------------------------------------------------


def closures_of_term(term: Term) -> frozenset:
    """All abstract closures a direct/semantic analysis of ``term`` can
    ever create: one ``(cle x, M)`` per lambda, plus ``inc``/``dec``
    when the corresponding primitive occurs."""
    found: set[Hashable] = set()
    for sub in subterms(term):
        if isinstance(sub, Lam):
            found.add(AbsClo(sub.param, sub.body))
        elif isinstance(sub, Prim):
            found.add(A_INC if sub.name == "add1" else A_DEC)
    return frozenset(found)


def cps_tops_of_term(term: CTerm) -> tuple[frozenset, frozenset]:
    """CL⊤ and K⊤ of a cps(A) program, in one walk: all its abstract
    closures (one per lambda, plus ``inck``/``deck`` when the primitive
    occurs) and all its abstract continuations (one ``(coe x, P)`` per
    continuation lambda, plus ``stop``)."""
    closures: set[Hashable] = set()
    konts: set[Hashable] = {A_STOP}
    for sub in cps_subterms(term):
        kind = type(sub)
        if kind is CLam:
            closures.add(AbsCpsClo(sub.param, sub.kparam, sub.body))
        elif kind is CPrim:
            closures.add(A_INCK if sub.name == "add1k" else A_DECK)
        elif kind is CApp or kind is CIf0 or kind is CLoop:
            konts.add(AbsCo(sub.kont.param, sub.kont.body))
    return frozenset(closures), frozenset(konts)


def closures_of_store(store: AbsStore) -> frozenset:
    """Closures already present in an initial store (free-variable
    assumptions contribute to CL⊤ as well)."""
    found: set[Hashable] = set()
    for _, value in store.items():
        found |= value.clos
    return frozenset(found)


def konts_of_store(store: AbsStore) -> frozenset:
    """Continuations already present in an initial store."""
    found: set[Hashable] = set()
    for _, value in store.items():
        found |= value.konts
    return frozenset(found)


# ----------------------------------------------------------------------
# Answers, statistics, configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AAnswer:
    """An abstract answer: an abstract value paired with a store."""

    value: AbsVal
    store: AbsStore


@dataclass(slots=True)
class AnalysisStats:
    """Instrumentation counters.

    ``visits`` counts analyzer rule applications (the work measure of
    the Section 6.2 cost experiments, independent of wall clock);
    ``loop_cuts`` counts Section 4.4 loop detections; ``max_depth``
    tracks the deepest active derivation path; ``joins`` counts
    abstract-answer merges (branch joins and multi-closure
    applications — where the direct analyzer loses per-path precision
    and the CPS analyzers pay for keeping it); ``widenings`` counts
    store bindings that strictly grew past an existing non-bottom
    value; ``max_store_size`` is the largest abstract store observed.
    """

    visits: int = 0
    loop_cuts: int = 0
    max_depth: int = 0
    returns_analyzed: int = 0
    joins: int = 0
    widenings: int = 0
    max_store_size: int = 0

    @property
    def loop_detections(self) -> int:
        """Alias of ``loop_cuts`` under the obs-schema name."""
        return self.loop_cuts

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports (old keys stay stable)."""
        return {
            "visits": self.visits,
            "loop_cuts": self.loop_cuts,
            "max_depth": self.max_depth,
            "returns_analyzed": self.returns_analyzed,
            "joins": self.joins,
            "widenings": self.widenings,
            "loop_detections": self.loop_cuts,
            "max_store_size": self.max_store_size,
        }


@dataclass(slots=True)
class PerfStats:
    """Counters for the eval memo of one analyzer run."""

    eval_cache_hits: int = 0
    eval_cache_misses: int = 0
    eval_cache_rejects: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view, merged into metrics under ``perf.<name>``."""
        return {
            "eval_cache_hits": self.eval_cache_hits,
            "eval_cache_misses": self.eval_cache_misses,
            "eval_cache_rejects": self.eval_cache_rejects,
        }

    @property
    def eval_cache_hit_rate(self) -> float:
        """Hits over probes of the eval memo (0.0 when never probed)."""
        probes = (
            self.eval_cache_hits
            + self.eval_cache_misses
            + self.eval_cache_rejects
        )
        return self.eval_cache_hits / probes if probes else 0.0


#: Sentinel "no active taint" for the eval memo (any real registration
#: sequence number compares below it).
_NO_TAINT = sys.maxsize

#: Summaries whose footprint outgrows this are not worth storing: the
#: per-probe disjointness check and the retained key references would
#: cost more than re-deriving the answer.
_FOOTPRINT_LIMIT = 50_000


class WorkBudgetMixin:
    """The analyzer skeleton: set-up, ``run``, visit counting, tracing,
    caching, answer joins, and an optional budget.

    A subclass's constructor calls :meth:`setup` (the grammar check of
    :meth:`check_term`, lattice, counters, obs hooks, eval memo and
    active path) and then builds its own initial store; it supplies
    the entry judgment as :meth:`_entry` and may wrap the answer in
    :meth:`_result`.  Everything else it defines is a rule of its
    figure: ``eval``/``_eval``, ``apply``, ``ret``, ``_branch`` and φ.

    Analyzers call :meth:`tick` once per rule application; when
    ``max_visits`` is set, exceeding it aborts the analysis — the
    Section 6.2 exponential blowup made observable and boundable.
    The mixin also owns the analyzer half of `repro.obs`: a trace sink
    (events are only constructed when the sink is enabled, so the
    `NullSink` default costs one ``is None`` check per rule) and the
    join/widening/store-size bookkeeping shared by all analyzers.

    The eval memo lives here too.  A judgment's answer is *not* a
    function of the judgment alone: a Section 4.4 loop cut makes it
    depend on which ancestors are on the active path.  Two
    mechanisms keep cached answers bit-identical to uncached ones:

    - **taint** (write side): every active-path registration gets a
      monotone sequence number; a loop cut taints the memo with the
      still-active owner's number.  A frame's summary is stored only
      when no judgment registered *before* the frame started was cut
      on during it (:meth:`memo_complete`) — i.e. the answer was
      derived without consulting the frame's context.  Cuts on the
      frame's own judgments are deterministic and harmless, and
      discharge the taint when the frame exits.
    - **footprint** (read side): each summary records the judgments
      its sub-derivation registered.  A probe rejects the summary if
      any of them is currently active (:meth:`memo_probe`), because a
      fresh evaluation here *would* cut where the recorded one did
      not.

    Together: a hit reproduces exactly what re-evaluation would have
    produced, so only visit counts (and wall time) change.

    The φ table (:meth:`phi`) makes φ cost one probe per program point.
    Off a variable, φ depends only on the node, so a tree analyzer
    builds the abstract value of each ``Num``/``Prim``/``Lam``
    (``CNum``/``CPrim``/``CLam``) and the ``{(coe x, P)}`` of each
    ``KLam`` once, with :meth:`build_phi`, and returns that one object
    on every later visit.  The contract:

    - one table per analysis, made in :meth:`setup` and dropped with
      the analyzer;
    - probed by ``id(node)`` and checked by identity on the node (as
      `repro.analysis.engine._entry_lookup` does), so a reused id can
      never hit, and equal nodes at two positions keep two entries;
    - its values equal the freshly built ones, so answers, stores and
      hashes do not move;
    - the widening counts and `AbsStore.joined_bind`'s "is ``self``"
      test rest only on `Lattice.join` returning ``a`` exactly when
      ``b`` ⊑ ``a``, not on whether its operands are one object, so
      sharing the value changes no count.

    The k-CFA analyzer does not use it (its closures capture contexts),
    and the plan engines build their constants once per plan instead.
    """

    stats: AnalysisStats
    max_visits: int | None = None
    lattice: Lattice
    analyzer_name: str = "?"
    trace: Sink = NULL_SINK
    metrics: Metrics | None = None
    _emit: Callable[[TraceEvent], None] | None = None
    _depth: int = 0
    # perf defaults, for mixin users that never call init_perf
    perf: PerfStats | None = None
    _memo: "dict | None" = None
    _memo_seq: int = 0
    _memo_taint: int = _NO_TAINT
    #: Class-level fallback is never mutated: init_perf installs a
    #: per-instance stack, and without one the footprint adds are
    #: skipped entirely.
    _fp_stack: "list[set]" = []

    def init_obs(self, trace: Sink | None, metrics: Metrics | None) -> None:
        """Attach a trace sink and metrics registry (constructor
        helper; both default to disabled)."""
        self.trace = trace if trace is not None else NULL_SINK
        self._emit = self.trace.emit if self.trace.enabled else None
        self.metrics = metrics

    def init_perf(self, cache: bool) -> None:
        """Attach the eval memo when ``cache`` is true (constructor
        helper); the counters are kept either way."""
        self.perf = PerfStats()
        self._memo = {} if cache else None
        self._fp_stack: list[set] = []
        self._memo_seq = 0
        self._memo_taint = _NO_TAINT

    # -- eval memo ------------------------------------------------------

    def register_judgment(self, key, registered: list) -> None:
        """Put a judgment on the active path, stamped with the memo's
        taint sequence number, and into the current frame footprint."""
        seq = self._memo_seq
        self._memo_seq = seq + 1
        self._active[key] = seq
        registered.append(key)
        if self._fp_stack:
            self._fp_stack[-1].add(key)

    def unregister_judgments(self, registered: list) -> None:
        """Remove a frame's judgments from the active path."""
        active = self._active
        for key in registered:
            del active[key]

    def note_loop_cut(self, owner_seq: int, subject: object = None) -> None:
        """Count a Section 4.4 cut and taint every memo frame opened
        after the still-active owner judgment was registered."""
        if owner_seq < self._memo_taint:
            self._memo_taint = owner_seq
        self.count_loop_cut(subject)

    def memo_frame(self) -> tuple[int, set]:
        """Open a memo frame: its start sequence number and footprint."""
        footprint: set = set()
        self._fp_stack.append(footprint)
        return self._memo_seq, footprint

    def memo_frame_end(self, footprint: set) -> None:
        """Close a memo frame, folding its footprint into the parent's."""
        self._fp_stack.pop()
        if self._fp_stack:
            self._fp_stack[-1].update(footprint)

    def memo_probe(self, memo_key, active_key, subject):
        """A stored summary for this judgment, or None.

        Rejects summaries whose recorded sub-derivation overlaps the
        currently active path (a fresh evaluation would cut there).
        Only called with the memo enabled.
        """
        entry = self._memo.get(memo_key)
        perf = self.perf
        if entry is None:
            perf.eval_cache_misses += 1
            return None
        answer, footprint = entry
        active = self._active
        if len(footprint) < len(active):
            clash = any(key in active for key in footprint)
        else:
            clash = any(key in footprint for key in active)
        if clash:
            perf.eval_cache_rejects += 1
            return None
        perf.eval_cache_hits += 1
        frame_fp = self._fp_stack[-1]
        frame_fp.add(active_key)
        frame_fp.update(footprint)
        if self._emit is not None:
            self._emit(
                CacheHit(
                    f"analysis.{self.analyzer_name}", term_label(subject)
                )
            )
        return answer

    def memo_complete(
        self, memo_key, start_seq: int, footprint: set, answer, cacheable=True
    ):
        """Finish a memo frame: discharge taints owned by this frame's
        own judgments, and store the summary when it never consulted
        the frame's context (see the class docstring)."""
        if self._memo_taint >= start_seq:
            self._memo_taint = _NO_TAINT
            if cacheable and len(footprint) <= _FOOTPRINT_LIMIT:
                self._memo[memo_key] = (answer, frozenset(footprint))
        return answer

    def tick(self, subject: object = None) -> None:
        """Count one rule application, enforcing the budget."""
        self.stats.visits += 1
        emit = self._emit
        if emit is not None:
            emit(
                AnalyzerVisit(
                    self.analyzer_name,
                    term_label(subject) if subject is not None else "",
                    self._depth,
                )
            )
        if self.max_visits is not None and self.stats.visits > self.max_visits:
            if emit is not None:
                emit(
                    BudgetAborted(
                        self.analyzer_name, self.max_visits, self.stats.visits
                    )
                )
            raise BudgetExceeded(self.max_visits)

    def count_join(self, site: str) -> None:
        """Count one merge of two abstract answers."""
        self.stats.joins += 1
        if self._emit is not None:
            self._emit(JoinPerformed(self.analyzer_name, site))

    def count_loop_cut(self, subject: object = None) -> None:
        """Count one Section 4.4 loop detection."""
        self.stats.loop_cuts += 1
        if self._emit is not None:
            self._emit(
                LoopDetected(
                    self.analyzer_name,
                    term_label(subject) if subject is not None else "",
                )
            )

    def bind_join(self, store: AbsStore, name, value: AbsVal) -> AbsStore:
        """``sigma[x := sigma(x) u u]`` with widening/store-size
        bookkeeping: a binding that strictly grows past an existing
        non-bottom value counts as a widening step.  An `AbsStore`
        holds no bottom entry, so "bound" is a membership test."""
        bound = name in store
        after = store.joined_bind(name, value)
        size = len(after)
        if size > self.stats.max_store_size:
            self.stats.max_store_size = size
        if after is not store and bound:
            self.stats.widenings += 1
            if self._emit is not None:
                self._emit(
                    StoreWidened(self.analyzer_name, str(name), size)
                )
        return after

    # -- skeleton -------------------------------------------------------

    def setup(
        self,
        term,
        domain: NumDomain | None,
        check: bool,
        max_visits: int | None,
        trace: Sink | None,
        metrics: Metrics | None,
        cache: bool,
    ) -> None:
        """The constructor preamble every analyzer shares: check the
        term's grammar when ``check`` is set, then build the lattice
        (constant propagation by default, as in the paper), the
        counters, the obs hooks, the eval memo and the active path."""
        if check:
            with front_end_headroom():
                self.check_term(term)
        self.term = term
        self.lattice = Lattice(
            domain if domain is not None else ConstPropDomain()
        )
        self.stats = AnalysisStats()
        self.max_visits = max_visits
        self.init_obs(trace, metrics)
        self.init_perf(cache)
        self._active: dict = {}
        self._depth = 0
        self._phi: dict[int, tuple] = {}

    def phi(self, node) -> AbsVal:
        """φ of the non-variable syntactic value (or continuation
        lambda) ``node``: one `AbsVal` per node per analysis (see the
        class docstring)."""
        entry = self._phi.get(id(node))
        if entry is not None and entry[0] is node:
            return entry[1]
        value = self.build_phi(node)
        self._phi[id(node)] = (node, value)
        return value

    def build_phi(self, node) -> AbsVal:
        """φ of a non-variable value, built afresh: Figures 4/5's
        ``phi_e`` (the syntactic-CPS analyzers override it)."""
        return abstract_value(self.lattice, node, None)

    def check_term(self, term) -> None:
        """The ``check=True`` grammar check: the restricted (A-normal
        form) subset, overridden by the syntactic-CPS analyzers."""
        validate_anf(term)

    def run(self, *entry):
        """Analyze the program and return the result."""
        try:
            with recursion_headroom():
                answer = self._entry(*entry)
        finally:
            self.finish_metrics()
        return self._result(answer)

    def _entry(self) -> AAnswer:
        """The analysis of the whole program from its initial store."""
        return self.eval(self.term, self.initial_store)

    def _result(self, answer: AAnswer):
        """Wrap the entry judgment's answer for the caller."""
        return AnalysisResult(
            self.analyzer_name, answer, self.stats, self.lattice
        )

    def join_answers(self, a: AAnswer, b: AAnswer, site: str) -> AAnswer:
        """Merge two abstract answers at ``site`` (``if0``, ``apply``,
        ``return`` or ``loop``), counted as one join."""
        self.count_join(site)
        return AAnswer(
            self.lattice.join(a.value, b.value), a.store.join(b.store)
        )

    def finish_metrics(self) -> None:
        """Fold the final stats into the metrics registry (if any)
        under ``analysis.<analyzer_name>``, plus the eval-memo
        counters under ``perf.<analyzer_name>``."""
        if self.metrics is not None:
            self.metrics.merge_stats(
                f"analysis.{self.analyzer_name}", self.stats.as_dict()
            )
            if self.perf is not None:
                self.metrics.merge_stats(
                    f"perf.{self.analyzer_name}", self.perf.as_dict()
                )


#: How the CPS analyzers treat the Section 6.2 ``loop`` construct.
#:
#: - ``'reject'`` — raise `NonComputableError` (the faithful reading:
#:   the exact join over all naturals is undecidable);
#: - ``'top'``    — apply the continuation once to the join of all
#:   naturals (sound, loses the per-iteration duplication — this is
#:   the rule the direct analyzer runs, under the empty continuation);
#: - ``'unroll'`` — join the continuation applied to 0..bound and then
#:   stop; demonstrates the undecidability experimentally (the result
#:   may keep changing as the bound grows) and is NOT sound in general.
LOOP_MODES = ("reject", "top", "unroll")


def check_loop_mode(mode: str) -> str:
    """Validate a loop-handling mode."""
    if mode not in LOOP_MODES:
        raise ValueError(f"loop_mode must be one of {LOOP_MODES}, got {mode!r}")
    return mode


def check_unroll_bound(bound: int) -> int:
    """Validate a ``loop_mode='unroll'`` bound: an integer >= 0 (0
    joins the continuation applied to 0 alone)."""
    if not isinstance(bound, int) or isinstance(bound, bool) or bound < 0:
        raise ValueError(
            f"unroll_bound must be an integer >= 0, got {bound!r}"
        )
    return bound


class CpsAnalyzerMixin(WorkBudgetMixin):
    """What the four CPS analyzers (semantic and syntactic, tree and
    plan) share beyond the skeleton: the Section 6.2 ``loop`` rule.
    The direct analyzers inherit it through the semantic-CPS machine,
    fixed to ``'top'``.

    A subclass names its ``reject`` message in `loop_reject_message`
    and supplies ``ret(kont, value, store)``; the continuation is
    whatever that ``ret`` takes (a frame stack or a set of abstract
    continuations).
    """

    loop_mode: str
    unroll_bound: int
    #: The `NonComputableError` message of ``loop_mode='reject'``.
    loop_reject_message: str

    def init_loop(self, loop_mode: str, unroll_bound: int) -> None:
        """Validate and keep the ``loop`` treatment (constructor
        helper)."""
        self.loop_mode = check_loop_mode(loop_mode)
        self.unroll_bound = check_unroll_bound(unroll_bound)

    def _loop(self, kont, store) -> AAnswer:
        """Section 6.2: ``loop`` passes every natural number to the
        continuation; the exact join is not computable."""
        lattice = self.lattice
        if self.loop_mode == "reject":
            raise NonComputableError(self.loop_reject_message)
        if self.loop_mode == "top":
            return self.ret(kont, lattice.of_num(lattice.domain.iota), store)
        answer: AAnswer | None = None
        for i in range(self.unroll_bound + 1):
            branch = self.ret(kont, lattice.of_const(i), store)
            answer = (
                branch
                if answer is None
                else self.join_answers(answer, branch, "loop")
            )
        assert answer is not None
        return answer
