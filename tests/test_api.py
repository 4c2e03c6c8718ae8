"""Tests for the top-level facade (`repro.api`)."""

import pytest

from repro import ComparisonReport, Precision, prepare, THREE_WAY_ANALYZERS, run_comparison
from repro.anf import is_anf
from repro.corpus import THEOREM_51_WITNESS
from repro.domains import ParityDomain, UnitDomain
from repro.lang.parser import parse


class TestPrepare:
    def test_accepts_source_text(self):
        assert is_anf(prepare("(f (g 1))"))

    def test_accepts_terms(self):
        assert is_anf(prepare(parse("(f (g 1))")))

    def test_accepts_anf_terms_unchanged(self):
        term = prepare("(let (a 1) a)")
        assert prepare(term) == term

    def test_accepts_corpus_programs(self):
        assert prepare(THEOREM_51_WITNESS) is THEOREM_51_WITNESS.term

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            prepare(42)  # type: ignore[arg-type]


class TestRunThreeWay:
    def test_returns_report(self):
        report = run_comparison("(add1 1)", analyzers=THREE_WAY_ANALYZERS)
        assert isinstance(report, ComparisonReport)
        assert report.direct.value.num == 2
        assert report.semantic.value.num == 2
        assert report.syntactic.value.num == 2

    def test_corpus_initial_used_automatically(self):
        report = run_comparison(THEOREM_51_WITNESS, analyzers=THREE_WAY_ANALYZERS)
        assert report.direct.constant_of("a1") == 1

    def test_explicit_initial_overrides(self):
        report = run_comparison(THEOREM_51_WITNESS, initial={}, analyzers=THREE_WAY_ANALYZERS)
        # without the f assumption the calls are dead
        assert report.direct.lattice.is_bottom(report.direct.value_of("a1"))

    def test_domain_parameter(self):
        report = run_comparison("(+ 2 4)", domain=ParityDomain(), analyzers=THREE_WAY_ANALYZERS)
        from repro.domains.parity import EVEN

        assert report.direct.value.num is EVEN

    def test_verdict_properties(self):
        report = run_comparison("(add1 1)", analyzers=THREE_WAY_ANALYZERS)
        assert report.direct_vs_syntactic is Precision.EQUAL
        assert report.semantic_vs_direct is Precision.EQUAL
        assert report.semantic_vs_syntactic is Precision.EQUAL

    def test_summary_text(self):
        text = run_comparison("(add1 1)", analyzers=THREE_WAY_ANALYZERS).summary()
        assert "direct" in text and "semantic" in text and "syntactic" in text

    def test_loop_mode_forwarded(self):
        report = run_comparison("(let (d (loop)) d)", loop_mode="top", analyzers=THREE_WAY_ANALYZERS)
        assert report.semantic.num_of("d") == report.direct.num_of("d")

    def test_unit_domain_three_way_equal(self):
        report = run_comparison(THEOREM_51_WITNESS, domain=UnitDomain(), analyzers=THREE_WAY_ANALYZERS)
        assert report.semantic_vs_direct is Precision.EQUAL
