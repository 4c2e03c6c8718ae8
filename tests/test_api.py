"""Tests for the top-level facade (`repro.api`)."""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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


#: Child script for `TestHashSeedIndependence`: every corpus program
#: plus two Section 6.2 chains, each analyzer run on its own (so a work
#: budget stops one analyzer, not the row), printed as JSON with every
#: value rendered through its sorted repr.
_SEED_CHILD = textwrap.dedent(
    """
    import json
    import sys
    from repro.analysis.common import BudgetExceeded
    from repro.api import run_comparison
    from repro.corpus.programs import (
        PROGRAMS, conditional_chain, top_conditional_chain,
    )
    from repro.obs.metrics import Metrics

    # Default options unless the parent asks for the eval memo.
    options = {"cache": True} if sys.argv[1:] == ["cache"] else {}
    programs = dict(PROGRAMS)
    programs["conditional-chain-6"] = conditional_chain(6)
    programs["top-conditional-chain-6"] = top_conditional_chain(6)
    out = {}
    for name, program in sorted(programs.items()):
        for analyzer in ("direct", "semantic-cps", "syntactic-cps", "pushdown"):
            metrics = Metrics()
            try:
                (result,) = run_comparison(
                    program, analyzers=(analyzer,), loop_mode="top",
                    max_visits=20_000, metrics=metrics, **options,
                ).results
            except BudgetExceeded:
                out[f"{name}/{analyzer}"] = "budget-exceeded"
                continue
            counters = metrics.snapshot()["counters"]
            out[f"{name}/{analyzer}"] = [
                repr(result.value),
                sorted((n, repr(v)) for n, v in result.store.items()),
                result.stats.as_dict(),
                {k: v for k, v in counters.items() if k.startswith("perf.")},
            ]
    print(json.dumps(out))
    """
)


class TestHashSeedIndependence:
    """Store hashes, and with them the iteration order of any set of
    stores, change with ``PYTHONHASHSEED``; answers, stores, full
    `AnalysisStats` and the ``perf.*`` counters must not."""

    @staticmethod
    @functools.cache
    def outcomes(seed: str, *args: str) -> dict:
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", _SEED_CHILD, *args],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        return json.loads(proc.stdout)

    def test_results_repeat_across_hash_seeds(self):
        first, second = self.outcomes("0"), self.outcomes("1")
        assert first == second
        assert first["ackermann/syntactic-cps"] == "budget-exceeded"
        assert first["theorem-5.1/direct"][2]["visits"] > 0
        assert first["theorem-5.1/direct"][3] == {
            "perf.direct.eval_cache_hits": 0,
            "perf.direct.eval_cache_misses": 0,
            "perf.direct.eval_cache_rejects": 0,
        }

    def test_cached_answers_repeat_across_hash_seeds(self):
        first = self.outcomes("0", "cache")
        second = self.outcomes("1", "cache")
        assert first.keys() == second.keys()
        for key, outcome in first.items():
            # value and store: the eval memo never moves a result
            assert outcome[:2] == second[key][:2], key
        perf = first["theorem-5.1/direct"][3]
        assert perf["perf.direct.eval_cache_misses"] > 0

    def test_cached_work_counts_repeat_across_hash_seeds(self):
        # Application sites iterate closure and continuation sets in a
        # canonical order, so which judgments the eval memo sees first
        # does not follow the seed.
        assert self.outcomes("0", "cache") == self.outcomes("1", "cache")
