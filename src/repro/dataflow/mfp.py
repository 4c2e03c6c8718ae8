"""Kildall's worklist algorithm: the MFP solution.

MFP (maximum fixed point) propagates facts along edges and *joins at
every merge point* before continuing — the same single-merge behaviour
as the paper's direct analyzer (Figure 4).  On distributive frameworks
MFP coincides with MOP (Kam & Ullman); on non-distributive ones such
as constant propagation it is strictly coarser whenever paths carry
correlated facts.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from repro.dataflow.framework import ENTRY, DataflowProblem, Facts
from repro.obs.events import CacheHit, SolverIteration
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink


class JoinMemo:
    """A memo for a commutative, deterministic binary join.

    Canonicalizes the solver's fact tables and absorbs repeated edge
    joins.  ``canon_key`` maps an operand to a hashable
    canonicalization key (identity when omitted); ``None`` operands
    pass through untouched (the solver's "unreachable" fact).  The
    canonical table holds every representative, so ``id()`` stays
    stable and the memo keys on the unordered identity pair.
    """

    __slots__ = ("_join", "_canon_key", "_canon", "_memo", "hits", "misses")

    def __init__(
        self,
        join: Callable,
        canon_key: Callable[[object], Hashable] | None = None,
    ) -> None:
        self._join = join
        self._canon_key = canon_key
        self._canon: dict = {}
        self._memo: dict[tuple[int, int], object] = {}
        self.hits = 0
        self.misses = 0

    def canonical(self, operand):
        """The canonical representative of ``operand``."""
        if operand is None:
            return None
        key = self._canon_key(operand) if self._canon_key else operand
        found = self._canon.get(key)
        if found is None:
            self._canon[key] = operand
            return operand
        return found

    def __call__(self, a, b):
        a = self.canonical(a)
        b = self.canonical(b)
        if a is b and a is not None:
            # Joins are idempotent.
            return a
        ia, ib = id(a), id(b)
        key = (ia, ib) if ia < ib else (ib, ia)
        found = self._memo.get(key)
        if found is not None:
            self.hits += 1
            return found
        joined = self.canonical(self._join(a, b))
        self._memo[key] = joined
        self.misses += 1
        return joined


def solve_mfp(
    problem: DataflowProblem,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
    cache: bool = False,
) -> dict[str, Facts]:
    """Solve a dataflow problem by worklist iteration.

    Args:
        problem: the dataflow problem to solve.
        trace: optional `repro.obs` sink; one ``dataflow.iteration``
            event per worklist pop, plus a ``cache.hit`` event for
            every edge delivery that left the destination unchanged.
        metrics: optional registry; records ``mfp.iterations``,
            ``mfp.edges_delivered``, ``mfp.joins``, ``mfp.cache_hits``
            counters and the ``mfp.worklist_depth`` high-water gauge.
        cache: memoize ``problem.join_facts`` on canonicalized fact
            tables (`JoinMemo`) — the solution is identical,
            repeated joins of the same pair are absorbed; adds
            ``perf.mfp.join_memo_hits`` / ``_misses`` metrics.

    Returns:
        The post-state fact table at every program point (None for
        unreachable points).
    """
    emit = trace.emit if trace.enabled else None
    join_facts = problem.join_facts
    join_memo: JoinMemo | None = None
    if cache:
        join_memo = JoinMemo(
            join_facts,
            canon_key=lambda facts: tuple(sorted(facts.items())),
        )
        join_facts = join_memo
    facts: dict[str, Facts] = {point: None for point in problem.points}
    facts[ENTRY] = dict(problem.entry_facts)
    successors: dict[str, list] = {point: [] for point in problem.points}
    for edge in problem.edges:
        successors[edge.src].append(edge)

    iterations = deliveries = joins = hits = max_pending = 0
    worklist: deque[str] = deque([ENTRY])
    while worklist:
        if len(worklist) > max_pending:
            max_pending = len(worklist)
        point = worklist.popleft()
        iterations += 1
        if emit is not None:
            emit(SolverIteration("mfp", point, len(worklist)))
        current = facts[point]
        for edge in successors[point]:
            delivered = edge.transfer(current)
            deliveries += 1
            joined = join_facts(facts[edge.dst], delivered)
            joins += 1
            if joined != facts[edge.dst]:
                facts[edge.dst] = joined
                worklist.append(edge.dst)
            else:
                # The stored facts already cover the delivery — the
                # fixpoint cache absorbed this edge.
                hits += 1
                if emit is not None:
                    emit(CacheHit("mfp", edge.dst))
    if metrics is not None:
        metrics.counter("mfp.iterations").inc(iterations)
        metrics.counter("mfp.edges_delivered").inc(deliveries)
        metrics.counter("mfp.joins").inc(joins)
        metrics.counter("mfp.cache_hits").inc(hits)
        metrics.gauge("mfp.worklist_depth").set_max(max_pending)
        if join_memo is not None:
            metrics.counter("perf.mfp.join_memo_hits").inc(join_memo.hits)
            metrics.counter("perf.mfp.join_memo_misses").inc(
                join_memo.misses
            )
    return facts


def mfp_value(
    problem: DataflowProblem, solution: dict[str, Facts], name: str
) -> Hashable:
    """The abstract value of ``name`` at the program's exit."""
    exit_facts = solution[problem.exit_point]
    if exit_facts is None:
        return problem.domain.bottom
    return exit_facts.get(name, problem.domain.bottom)
