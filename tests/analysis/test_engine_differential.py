"""Differential tests: the compiled-plan engines replay the tree
analyzers bit for bit.

`repro.analysis.engine` is only correct if a plan run is
indistinguishable from the reference tree-walking run — same answer
value, same final abstract store, same visit count, same loop cuts,
same widenings (the full `AnalysisStats` dict).  These tests compare
the two engines over:

- the full corpus, for all four analyzers, over every number domain;
- the Section 6.2 parametric families, including the
  ``loop-feeding-conditional`` computability workload and an
  ``unroll`` loop-mode case, and the widening- and loop-cut-heavy
  ``ackermann-open`` (seeded from a non-empty initial store) and
  ``loop-threshold-open`` programs;
- 300 seeded random open terms (⊤ initial assumptions);
- the `repro.perf` caches stacked on top (``cache=True`` on both
  engines must still agree — the caches change the visit counts, but
  identically on both sides).

Work-budget agreement is part of the contract: when the tree analyzer
raises `BudgetExceeded`, the plan analyzer must raise it too.
"""

import random

import pytest

from repro.analysis.common import BudgetExceeded
from repro.analysis.delta import delta_store
from repro.analysis.direct import analyze_direct
from repro.analysis.polyvariant import analyze_polyvariant
from repro.analysis.semantic_cps import analyze_semantic_cps
from repro.analysis.syntactic_cps import analyze_syntactic_cps
from repro.anf import normalize
from repro.corpus.programs import (
    PROGRAMS,
    ackermann_open,
    call_site_chain,
    conditional_chain,
    loop_feeding_conditional,
    loop_threshold_open,
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

BUDGET = 100_000

DOMAINS = {
    "constprop": ConstPropDomain,
    "unit": UnitDomain,
    "parity": ParityDomain,
    "sign": SignDomain,
    "interval": IntervalDomain,
}


def _fingerprint(run):
    """Everything observable about one analysis run, or the budget
    outcome — both engines must produce the same tuple."""
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


def _assert_direct_agrees(term, domain, initial, cache=None):
    fingerprints = [
        _fingerprint(
            lambda e=engine: analyze_direct(
                term,
                domain,
                initial=initial,
                max_visits=BUDGET,
                cache=cache,
                engine=e,
            )
        )
        for engine in ("tree", "plan")
    ]
    assert fingerprints[0] == fingerprints[1]


def _assert_semantic_agrees(
    term, domain, initial, loop_mode="top", unroll_bound=32, cache=None
):
    fingerprints = [
        _fingerprint(
            lambda e=engine: analyze_semantic_cps(
                term,
                domain,
                initial=initial,
                loop_mode=loop_mode,
                unroll_bound=unroll_bound,
                max_visits=BUDGET,
                cache=cache,
                engine=e,
            )
        )
        for engine in ("tree", "plan")
    ]
    assert fingerprints[0] == fingerprints[1]


def _assert_syntactic_agrees(
    cterm, domain, cps_initial, loop_mode="top", unroll_bound=32, cache=None
):
    fingerprints = [
        _fingerprint(
            lambda e=engine: analyze_syntactic_cps(
                cterm,
                domain,
                initial=cps_initial,
                loop_mode=loop_mode,
                unroll_bound=unroll_bound,
                max_visits=BUDGET,
                cache=cache,
                engine=e,
            )
        )
        for engine in ("tree", "plan")
    ]
    assert fingerprints[0] == fingerprints[1]


def _assert_polyvariant_agrees(term, domain, initial, k, cache=None):
    fingerprints = [
        _poly_fingerprint(
            lambda e=engine: analyze_polyvariant(
                term,
                domain,
                k=k,
                initial=initial,
                max_visits=BUDGET,
                cache=cache,
                engine=e,
            )
        )
        for engine in ("tree", "plan")
    ]
    assert fingerprints[0] == fingerprints[1]


def _cps_side(term, lattice, initial):
    return cps_transform(term), dict(
        delta_store(AbsStore(lattice, initial)).items()
    )


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestCorpusAllDomains:
    """Full corpus x all four analyzers x every number domain."""

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


@pytest.mark.parametrize("k", (0, 1, 2))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_polyvariant_context_depths(name, k):
    domain = ConstPropDomain()
    program = PROGRAMS[name]
    initial = program.initial_for(Lattice(domain))
    _assert_polyvariant_agrees(program.term, domain, initial, k=k)


@pytest.mark.parametrize(
    "program",
    [
        conditional_chain(8),
        call_site_chain(6),
        top_conditional_chain(10),
        loop_feeding_conditional(3),
        ackermann_open(),
        loop_threshold_open(),
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
    """Section 4.4/6.2: the `loop` handling must agree in `unroll`
    mode too (the bound changes the answer, identically on both
    engines)."""
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
    """`repro.perf` caches on top of the plan engine must not change
    the (already cache-perturbed) statistics relative to the tree
    engine with the same caches."""
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
