"""The analyzer registry: the one vocabulary and the one dispatch.

Every layer that names an analyzer — CLI argument choices, serve enum
validation (and hence cache keys), the survey, the lint engine, and
the benchmarks — takes its names from here, and every layer that
*runs* one goes through the ``(name, engine)`` table below:
`analyzer_class` for the class, `build_analyzer` / `run_analyzer` for
an instance of the direct-style A program (the syntactic-CPS
conversion and the δe transport of the initial store, Theorem 5.5,
happen here for every front end).

Canonical spellings are the serve layer's: ``direct``,
``semantic-cps``, ``syntactic-cps``, ``polyvariant``, and
``pushdown``.  The historical short spellings ``semantic``/
``syntactic`` (the interpreter-flag vocabulary the CLI used before the
registry existed) are accepted everywhere as aliases and *fold to the
canonical name* before a request spec is hashed, so
``{"analyzer": "semantic"}`` and ``{"analyzer": "semantic-cps"}``
share one serve cache entry.

The table names classes by module and attribute, so importing the
registry loads no analyzer (only the δe map and the CPS transform).
"""

from __future__ import annotations

from functools import cache
from importlib import import_module
from typing import Any, Mapping

from repro.analysis.common import front_end_headroom
from repro.analysis.delta import delta_store
from repro.cps.transform import cps_transform
from repro.domains.absval import Lattice
from repro.domains.constprop import ConstPropDomain
from repro.domains.store import AbsStore

#: Every analyzer, canonically spelled.  ``pushdown`` is the
#: CFA2-style summary analyzer (no plan-engine implementation);
#: ``polyvariant`` is the k-CFA ablation.
ANALYZERS: tuple[str, ...] = (
    "direct",
    "semantic-cps",
    "syntactic-cps",
    "polyvariant",
    "pushdown",
)

#: The analyzers `repro.api.run_comparison` runs side by side (all
#: monovariant analyzers of the source program or its CPS image; the
#: polyvariant analyzer is excluded because its results are keyed by
#: call-string contexts and need collapsing before comparison).
COMPARISON_ANALYZERS: tuple[str, ...] = (
    "direct",
    "semantic-cps",
    "syntactic-cps",
    "pushdown",
)

#: The analyzers that can power the semantic lint rules (and hence the
#: precision scoreboard's columns).
LINT_ANALYZERS: tuple[str, ...] = (
    "direct",
    "semantic-cps",
    "syntactic-cps",
    "pushdown",
)

#: The analysis engines.  ``"tree"`` interprets the AST (the reference
#: semantics, Figures 4-6 verbatim, and the oracle the other engine is
#: checked against); ``"plan"`` runs the compiled instruction arrays of
#: `repro.machine.absplan`.
ENGINES: tuple[str, ...] = ("tree", "plan")

#: The one dispatch: ``(canonical name, engine)`` → the analyzer class,
#: as ``(module, attribute)``.  The pushdown analyzer has no plan row:
#: its summary tables are keyed by abstract closures and stores, not by
#: compiled instruction offsets.
_TABLE: dict[tuple[str, str], tuple[str, str]] = {
    ("direct", "tree"): ("repro.analysis.direct", "DirectAnalyzer"),
    ("direct", "plan"): ("repro.analysis.engine", "DirectPlanAnalyzer"),
    ("semantic-cps", "tree"): (
        "repro.analysis.semantic_cps", "SemanticCpsAnalyzer"),
    ("semantic-cps", "plan"): (
        "repro.analysis.engine", "SemanticCpsPlanAnalyzer"),
    ("syntactic-cps", "tree"): (
        "repro.analysis.syntactic_cps", "SyntacticCpsAnalyzer"),
    ("syntactic-cps", "plan"): (
        "repro.analysis.engine", "SyntacticCpsPlanAnalyzer"),
    ("polyvariant", "tree"): (
        "repro.analysis.polyvariant", "PolyvariantDirectAnalyzer"),
    ("polyvariant", "plan"): (
        "repro.analysis.engine", "PolyvariantPlanAnalyzer"),
    ("pushdown", "tree"): ("repro.analysis.pushdown", "PushdownAnalyzer"),
}

#: The constructor keywords an analyzer takes beyond the shared ones
#: (``domain``, ``initial``, ``check``, ``max_visits``, ``trace``,
#: ``metrics``, ``cache``).
_OWN_OPTIONS: dict[str, tuple[str, ...]] = {
    "semantic-cps": ("loop_mode", "unroll_bound"),
    "syntactic-cps": ("loop_mode", "unroll_bound"),
    "polyvariant": ("k",),
}


def check_engine(engine: str) -> str:
    """Validate an engine name."""
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def engine_analyzers(engine: str) -> tuple[str, ...]:
    """Every analyzer the table has on ``engine``, in `ANALYZERS`
    order."""
    check_engine(engine)
    return tuple(name for name in ANALYZERS if (name, engine) in _TABLE)


#: Analyzers with a compiled-plan (``engine="plan"``) implementation.
#: Asking for the plan engine of any other raises
#: `repro.analysis.common.EngineUnsupported` (the serve layer's
#: ``engine_unsupported`` error), never a crash.
PLAN_ANALYZERS: tuple[str, ...] = engine_analyzers("plan")

#: The three concrete interpreters (paper Figures 1-3), canonically
#: spelled like their abstract counterparts.
INTERPRETERS: tuple[str, ...] = (
    "direct",
    "semantic-cps",
    "syntactic-cps",
)

#: Old spellings, still accepted everywhere an analyzer or interpreter
#: is named.
ALIASES: dict[str, str] = {
    "semantic": "semantic-cps",
    "syntactic": "syntactic-cps",
}


def canonical_analyzer(
    name: str, allowed: tuple[str, ...] = ANALYZERS
) -> str:
    """Resolve ``name`` (canonical or alias) to its canonical spelling.

    Raises ``ValueError`` when the resolved name is not in
    ``allowed`` — the caller's vocabulary subset (e.g. only the lint
    analyzers).
    """
    resolved = ALIASES.get(name, name)
    if resolved not in allowed:
        raise ValueError(
            f"unknown analyzer {name!r}; expected one of {allowed} "
            f"(aliases: {sorted(ALIASES)})"
        )
    return resolved


def analyzer_choices(allowed: tuple[str, ...] = ANALYZERS) -> tuple[str, ...]:
    """The argparse ``choices`` tuple for ``allowed``: canonical names
    first, then the aliases that resolve into the set."""
    aliases = tuple(
        alias
        for alias, target in sorted(ALIASES.items())
        if target in allowed
    )
    return tuple(allowed) + aliases


@cache
def analyzer_class(name: str, engine: str = "tree") -> type:
    """The class implementing analyzer ``name`` (canonical or alias) on
    ``engine``.

    Raises ``ValueError`` for an unknown analyzer or engine, then
    `EngineUnsupported` for a pair the table lacks (pushdown on the
    plan engine).
    """
    name = canonical_analyzer(name)
    check_engine(engine)
    entry = _TABLE.get((name, engine))
    if entry is None:
        from repro.analysis.common import EngineUnsupported

        raise EngineUnsupported(name, engine)
    module, attribute = entry
    return getattr(import_module(module), attribute)


def build_analyzer(
    name: str,
    term: Any,
    *,
    engine: str = "tree",
    domain: Any = None,
    initial: "Mapping[str, Any] | None" = None,
    check: bool = True,
    max_visits: "int | None" = None,
    trace: Any = None,
    metrics: Any = None,
    cache: bool = False,
    k: int = 1,
    loop_mode: str = "reject",
    unroll_bound: int = 32,
):
    """An un-run analyzer ``name`` of the direct-style A program
    ``term``, on ``engine``.

    ``initial`` holds free-variable assumptions in the direct abstract
    domain.  The syntactic-CPS analyzer gets ``cps_transform(term)``
    and the δe image of ``initial`` (Theorem 5.5), so every caller
    names the source program.  ``k`` reaches only the polyvariant
    analyzer, ``loop_mode``/``unroll_bound`` only the CPS ones.  Errors
    as `analyzer_class`.
    """
    name = canonical_analyzer(name)
    cls = analyzer_class(name, engine)
    if name == "syntactic-cps":
        term, initial = _cps_image(term, domain, initial, check)
    options = {"k": k, "loop_mode": loop_mode, "unroll_bound": unroll_bound}
    return cls(
        term,
        domain=domain,
        initial=initial,
        check=check,
        max_visits=max_visits,
        trace=trace,
        metrics=metrics,
        cache=cache,
        **{key: options[key] for key in _OWN_OPTIONS.get(name, ())},
    )


def run_analyzer(name: str, term: Any, *, cache: bool = False, **options: Any):
    """``build_analyzer(name, term, cache=cache, **options).run()``."""
    return build_analyzer(name, term, cache=cache, **options).run()


def _cps_image(term: Any, domain: Any, initial, check: bool):
    """The cps(A) program and δe-transported initial store the
    syntactic-CPS analyzer walks instead of ``term`` and ``initial``."""
    with front_end_headroom():
        cps_term = cps_transform(term, check=check)
        hash(cps_term)
    lattice = Lattice(domain if domain is not None else ConstPropDomain())
    return cps_term, dict(delta_store(AbsStore(lattice, initial)).items())
