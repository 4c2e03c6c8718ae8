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
from typing import Hashable

from repro.dataflow.framework import ENTRY, DataflowProblem, Facts
from repro.obs.events import CacheHit, SolverIteration
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink


def solve_mfp(
    problem: DataflowProblem,
    trace: Sink = NULL_SINK,
    metrics: Metrics | None = None,
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

    Returns:
        The post-state fact table at every program point (None for
        unreachable points).
    """
    emit = trace.emit if trace.enabled else None
    join_facts = problem.join_facts
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
    return facts


def mfp_value(
    problem: DataflowProblem, solution: dict[str, Facts], name: str
) -> Hashable:
    """The abstract value of ``name`` at the program's exit."""
    exit_facts = solution[problem.exit_point]
    if exit_facts is None:
        return problem.domain.bottom
    return exit_facts.get(name, problem.domain.bottom)
