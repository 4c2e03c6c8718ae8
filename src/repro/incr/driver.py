"""Sub-term incremental re-analysis over the persistent store.

`analyze_incremental(old_term, new_term, ...)` is the top of the
subsystem: it Merkle-diffs the two programs, runs the analyzer on the
new one with a `SummaryRecorder` attached to the (shared) store, and
reports which sub-trees were dirty and how much of the old derivation
was stitched back in.  The result is **bit-identical** to a
from-scratch analysis of the new term — reuse changes only the work
counters, never the answer — which the differential suite enforces
across the corpus, the five analyzers, the domains, and both engines
(the pushdown analyzer participates tree-only and without
persistence; see `run_analysis`).

`run_analysis` is the shared single-run entry with persistence: the
serve layer and ``repro cachectl warm`` use it.  It builds the
analyzer through the registry's one dispatch
(`repro.analysis.registry.build_analyzer`), attaches a
`SummaryRecorder` when it can persist, and runs it.  Persistence
requires the tree engine with the eval memo enabled (``cache=True``)
— the plan engine and uncached runs execute normally and simply skip
the store.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.analysis.registry import (
    ANALYZERS,
    PERSISTENT_ANALYZERS,
    build_analyzer,
    canonical_analyzer,
)
from repro.incr.hash import Path as TreePath
from repro.incr.hash import TermHasher, merkle_diff, term_hash
from repro.incr.recorder import SummaryRecorder
from repro.incr.store import IncrStore

# `run_analysis` and `analyze_incremental` accept the registry's
# `ANALYZERS` (re-exported by `repro.incr`; aliases fold); only the
# `PERSISTENT_ANALYZERS` persist.

#: Environment override for the default store location.
STORE_ENV = "REPRO_INCR_STORE"


def default_store_path() -> str:
    """The store path used when none is given: ``$REPRO_INCR_STORE``
    or ``~/.cache/repro/incr.sqlite``."""
    override = os.environ.get(STORE_ENV)
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "incr.sqlite"
    )


def _coerce_store(store: "IncrStore | str | None") -> tuple[IncrStore, bool]:
    """An open store and whether this call owns (must close) it."""
    if isinstance(store, IncrStore):
        return store, False
    if store is None:
        return IncrStore(":memory:"), True
    parent = os.path.dirname(os.path.abspath(store))
    os.makedirs(parent, exist_ok=True)
    return IncrStore(store), True


def run_analysis(
    analyzer: str,
    term: Any,
    *,
    domain: Any = None,
    initial: "Mapping[str, Any] | None" = None,
    store: IncrStore | None = None,
    hasher: TermHasher | None = None,
    readonly: bool = False,
    k: int = 1,
    loop_mode: str = "reject",
    unroll_bound: int = 32,
    check: bool = True,
    max_visits: "int | None" = None,
    trace: Any = None,
    metrics: Any = None,
    cache: bool = True,
    engine: str = "tree",
):
    """Run one analyzer over ``term``, persisting summaries through
    ``store`` when possible.  Returns ``(result, recorder_or_None)``.

    ``term`` is the direct-style (ANF) program for every analyzer;
    `repro.analysis.registry.build_analyzer` converts it (and the
    initial store) for the syntactic-CPS analyzer, so persisted
    judgments key on the CPS tree the analyzer actually walks.
    """
    instance = build_analyzer(
        analyzer,
        term,
        engine=engine,
        domain=domain,
        initial=initial,
        check=check,
        max_visits=max_visits,
        trace=trace,
        metrics=metrics,
        cache=cache,
        k=k,
        loop_mode=loop_mode,
        unroll_bound=unroll_bound,
    )
    recorder = None
    # The plan engine has its own compiled-plan cache, and an uncached
    # run has no eval memo to persist.
    if (
        store is not None
        and engine == "tree"
        and cache is True
        and canonical_analyzer(analyzer) in PERSISTENT_ANALYZERS
    ):
        recorder = SummaryRecorder(
            instance,
            store,
            program=instance.term,
            initial_store=instance.initial_store,
            hasher=hasher,
            readonly=readonly,
        )
        instance.attach_recorder(recorder)
    result = instance.run()
    if recorder is not None:
        recorder.flush()
    return result, recorder


@dataclass
class IncrReport:
    """What `analyze_incremental` hands back."""

    #: The analysis result for the *new* term (bit-identical to a
    #: from-scratch run).
    result: Any
    #: Alpha-invariant hash of the new term (the serve-layer ETag).
    term_hash: str
    #: Minimal dirty sub-tree paths (in the new term) vs the old one.
    dirty_paths: list[TreePath] = field(default_factory=list)
    #: Store-level counters for the incremental run only.
    store_stats: dict = field(default_factory=dict)
    #: Summaries written while seeding from the old term (0 when the
    #: store was already warm or seeding was skipped).
    seeded: int = 0

    @property
    def reused(self) -> int:
        """Persisted summaries stitched into the new derivation."""
        return int(self.store_stats.get("hits", 0))


def analyze_incremental(
    old_term: Any,
    new_term: Any,
    *,
    analyzer: str = "direct",
    store: "IncrStore | str | None" = None,
    seed: bool = True,
    **options: Any,
) -> IncrReport:
    """Analyze ``new_term`` reusing the derivation of ``old_term``.

    ``seed=True`` (the default) first analyzes ``old_term`` into the
    store — the edit-time flow where both versions are at hand.  With
    ``seed=False`` the store is assumed warm (e.g. populated by an
    earlier run or another process).  ``store`` may be an open
    `IncrStore`, a filesystem path, or None for an in-memory session.

    The answer is exactly what a from-scratch analysis of ``new_term``
    would produce; only the visit counters (and wall clock) differ.
    """
    opened, owns = _coerce_store(store)
    hasher = TermHasher()
    try:
        seeded = 0
        if seed:
            _, seed_rec = run_analysis(
                analyzer, old_term, store=opened, hasher=hasher, **options
            )
            seeded = opened.stats.puts
        dirty = merkle_diff(old_term, new_term, hasher)
        before = opened.stats.as_dict()
        result, _ = run_analysis(
            analyzer, new_term, store=opened, hasher=hasher, **options
        )
        after = opened.stats.as_dict()
        delta = {name: after[name] - before[name] for name in after}
        return IncrReport(
            result=result,
            term_hash=term_hash(new_term),
            dirty_paths=dirty,
            store_stats=delta,
            seeded=seeded,
        )
    finally:
        if owns:
            opened.close()
