"""Differential tests: a plan served from a shared `PlanCache` replays
a freshly compiled plan bit for bit.

`repro.machine.absplan` has one plan tier, the compiler output, and
`PlanCache` hands the same immutable plan object to every run of the
same term — across number domains, analyzers, threads and requests.
That sharing is only sound if a run leaves no trace in the plan: a run
on a cached plan (compiled for, and already run by, another domain)
must be indistinguishable from a run on a plan compiled on the spot —
same answer value, same final abstract store, same visit count, same
loop cuts, same widenings (the full `AnalysisStats` dict).  These
tests compare the two over:

- the full corpus, for all four plan analyzers, over every number
  domain;
- the Section 6.2 parametric families (including an ``unroll``
  loop-mode case);
- 300 seeded random open terms (⊤ initial assumptions);
- the `repro.perf` caches stacked on top.

Work-budget agreement is part of the contract: when the fresh plan
raises `BudgetExceeded`, the cached plan must raise it too.  The
structural tests at the bottom pin that nothing rewrites a plan
between the compiler and the run, and that a cached lookup is
idempotent.  (Plan ≡ tree-walker agreement is
`tests/analysis/test_engine_differential.py`.)
"""

import random

import pytest

from repro.analysis.common import BudgetExceeded
from repro.analysis.delta import delta_store
from repro.analysis.engine import (
    DirectPlanAnalyzer,
    PolyvariantPlanAnalyzer,
    SemanticCpsPlanAnalyzer,
    SyntacticCpsPlanAnalyzer,
)
from repro.anf import normalize
from repro.corpus.programs import (
    PROGRAMS,
    call_site_chain,
    conditional_chain,
    loop_feeding_conditional,
    top_conditional_chain,
)
from repro.cps import cps_transform
from repro.domains import (
    ConstPropDomain,
    IntervalDomain,
    Lattice,
    ParityDomain,
    SignDomain,
    UnitDomain,
)
from repro.domains.store import AbsStore
from repro.gen.random_terms import random_open_term
from repro.lang.syntax import free_variables
from repro.machine.absplan import PlanCache, compile_anf_plan, compile_cps_plan

BUDGET = 100_000

DOMAINS = {
    "constprop": ConstPropDomain,
    "unit": UnitDomain,
    "parity": ParityDomain,
    "sign": SignDomain,
    "interval": IntervalDomain,
}

#: Shared across every test in this module, so a cached plan has
#: usually been run before under another domain or analyzer.
SHARED = PlanCache()

#: ``None`` compiles a private plan for the run; ``SHARED`` is asked
#: twice, so the last run is always served from the cache.
PLAN_SOURCES = (None, SHARED, SHARED)


def _plans_equal(left, right) -> bool:
    return type(left) is type(right) and all(
        getattr(left, slot) == getattr(right, slot)
        for slot in type(left).__slots__
    )


def _fingerprint(run):
    """Everything observable about one analysis run, or the budget
    outcome — every plan source must produce the same tuple."""
    try:
        result = run()
    except BudgetExceeded:
        return ("budget-exceeded",)
    return (
        "ok",
        result.value,
        dict(result.store.items()),
        result.stats.as_dict(),
    )


def _poly_fingerprint(run):
    try:
        result = run()
    except BudgetExceeded:
        return ("budget-exceeded",)
    return (
        "ok",
        result.value,
        dict(result._store.items()),
        result.analyzer.stats.as_dict(),
    )


def _assert_all_equal(fingerprints):
    assert fingerprints[0] == fingerprints[1] == fingerprints[2]


def _assert_direct_agrees(term, domain, initial, cache=None):
    _assert_all_equal(
        [
            _fingerprint(
                lambda s=source: DirectPlanAnalyzer(
                    term,
                    domain,
                    initial=initial,
                    max_visits=BUDGET,
                    cache=cache,
                    plan_cache=s,
                ).run()
            )
            for source in PLAN_SOURCES
        ]
    )


def _assert_semantic_agrees(
    term, domain, initial, loop_mode="top", unroll_bound=32, cache=None
):
    _assert_all_equal(
        [
            _fingerprint(
                lambda s=source: SemanticCpsPlanAnalyzer(
                    term,
                    domain,
                    initial=initial,
                    loop_mode=loop_mode,
                    unroll_bound=unroll_bound,
                    max_visits=BUDGET,
                    cache=cache,
                    plan_cache=s,
                ).run()
            )
            for source in PLAN_SOURCES
        ]
    )


def _assert_syntactic_agrees(
    cterm, domain, cps_initial, loop_mode="top", unroll_bound=32, cache=None
):
    _assert_all_equal(
        [
            _fingerprint(
                lambda s=source: SyntacticCpsPlanAnalyzer(
                    cterm,
                    domain,
                    initial=cps_initial,
                    loop_mode=loop_mode,
                    unroll_bound=unroll_bound,
                    max_visits=BUDGET,
                    cache=cache,
                    plan_cache=s,
                ).run()
            )
            for source in PLAN_SOURCES
        ]
    )


def _assert_polyvariant_agrees(term, domain, initial, k, cache=None):
    _assert_all_equal(
        [
            _poly_fingerprint(
                lambda s=source: PolyvariantPlanAnalyzer(
                    term,
                    domain,
                    k=k,
                    initial=initial,
                    max_visits=BUDGET,
                    cache=cache,
                    plan_cache=s,
                ).run()
            )
            for source in PLAN_SOURCES
        ]
    )


def _cps_side(term, lattice, initial):
    return cps_transform(term), dict(
        delta_store(AbsStore(lattice, initial)).items()
    )


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestCorpusAllDomains:
    """Full corpus x all four plan analyzers x every number domain."""

    def test_direct(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_direct_agrees(program.term, domain, initial)

    def test_semantic_cps(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_semantic_agrees(program.term, domain, initial)

    def test_syntactic_cps(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        lattice = Lattice(domain)
        initial = program.initial_for(lattice)
        cterm, cps_initial = _cps_side(program.term, lattice, initial)
        _assert_syntactic_agrees(cterm, domain, cps_initial)

    def test_polyvariant(self, name, domain_name):
        domain = DOMAINS[domain_name]()
        program = PROGRAMS[name]
        initial = program.initial_for(Lattice(domain))
        _assert_polyvariant_agrees(program.term, domain, initial, k=1)


@pytest.mark.parametrize(
    "program",
    [
        conditional_chain(8),
        call_site_chain(6),
        top_conditional_chain(10),
        loop_feeding_conditional(3),
    ],
    ids=lambda p: p.name,
)
def test_families(program):
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_direct_agrees(program.term, domain, initial)
    _assert_semantic_agrees(program.term, domain, initial)
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(cterm, domain, cps_initial)


def test_loop_unroll_mode():
    """The `loop` handling must agree in `unroll` mode too (the bound
    changes the answer, identically for every plan source)."""
    program = loop_feeding_conditional(3)
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_semantic_agrees(
        program.term, domain, initial, loop_mode="unroll", unroll_bound=8
    )
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(
        cterm, domain, cps_initial, loop_mode="unroll", unroll_bound=8
    )


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_corpus_with_caches_stacked(name):
    """`repro.perf` caches on top of a cached plan must not change the
    (already cache-perturbed) statistics relative to a fresh plan with
    the same caches."""
    domain = ConstPropDomain()
    program = PROGRAMS[name]
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    _assert_direct_agrees(program.term, domain, initial, cache=True)
    _assert_semantic_agrees(program.term, domain, initial, cache=True)
    cterm, cps_initial = _cps_side(program.term, lattice, initial)
    _assert_syntactic_agrees(cterm, domain, cps_initial, cache=True)
    _assert_polyvariant_agrees(
        program.term, domain, initial, k=1, cache=True
    )


@pytest.mark.parametrize("chunk", range(10))
def test_random_open_terms(chunk):
    """300 seeded random open programs (30 per chunk), all three
    monovariant analyzers, ⊤ assumptions for the free inputs."""
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    for seed in range(chunk * 30, (chunk + 1) * 30):
        term = normalize(random_open_term(random.Random(seed), 4))
        initial = {
            name: lattice.of_num(domain.top)
            for name in free_variables(term)
        }
        cache = True if seed % 5 == 0 else None
        _assert_direct_agrees(term, domain, initial, cache=cache)
        _assert_semantic_agrees(term, domain, initial, cache=cache)
        cterm, cps_initial = _cps_side(term, lattice, initial)
        _assert_syntactic_agrees(cterm, domain, cps_initial, cache=cache)


# ----------------------------------------------------------------------
# Plan shape: the compiler output is what runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_optimizer_preserves_plan_shape(name):
    """No pass sits between the compiler and the run: the plan a cache
    serves is field-identical to a fresh compile (pc numbering,
    source-term labels, slot table, constant pool, entry pcs), and
    stays so after runs under several domains, so trace labels and
    error messages point at the same program points on every run."""
    cache = PlanCache()
    term = PROGRAMS[name].term
    initial_for = PROGRAMS[name].initial_for
    cterm = cps_transform(term)
    for domain_cls in (ConstPropDomain, IntervalDomain):
        domain = domain_cls()
        lattice = Lattice(domain)
        initial = initial_for(lattice)
        _, cps_initial = _cps_side(term, lattice, initial)
        _fingerprint(
            lambda: DirectPlanAnalyzer(
                term, domain, initial=initial, max_visits=BUDGET,
                plan_cache=cache,
            ).run()
        )
        _fingerprint(
            lambda: SyntacticCpsPlanAnalyzer(
                cterm, domain, initial=cps_initial, loop_mode="top",
                max_visits=BUDGET, plan_cache=cache,
            ).run()
        )

    anf = cache.anf_plan(term)
    base = compile_anf_plan(term)
    assert _plans_equal(anf, base)
    assert len(anf.code) == len(base.code)
    assert anf.entry_pc == base.entry_pc

    cps = cache.cps_plan(cterm)
    cbase = compile_cps_plan(cterm)
    assert _plans_equal(cps, cbase)
    assert len(cps.code) == len(cbase.code)
    assert cps.entry_pc == cbase.entry_pc


def test_optimizer_is_idempotent():
    """A second lookup returns the very plan object the first one
    compiled: a hit, not a recompile or a rewrite."""
    cache = PlanCache()
    term = PROGRAMS["factorial"].term
    once = cache.anf_plan(term)
    again = cache.anf_plan(term)
    assert again is once

    cterm = cps_transform(term)
    conce = cache.cps_plan(cterm)
    cagain = cache.cps_plan(cterm)
    assert cagain is conce
    snap = cache.snapshot()
    assert snap["misses"] == 2
    assert snap["hits"] == 2
