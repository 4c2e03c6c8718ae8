"""The Section 6.2 `loop` experiments: computability of the analyses.

`loop`'s exact collecting semantics is {0, 1, 2, ...}.  The direct
analyzer handles it exactly (the join of all naturals is a single
domain element, `iota`).  The CPS analyzers would have to compute the
join of the continuation applied to *every* natural — undecidable in
general (Kam & Ullman) — so they either refuse, approximate with one
`iota` application, or unroll a prefix whose answer keeps changing as
the prefix grows.
"""

import pytest

from repro import THREE_WAY_ANALYZERS, run_comparison
from repro.analysis import (
    NonComputableError,
    analyze_direct,
    analyze_semantic_cps,
    analyze_syntactic_cps,
)
from repro.corpus import loop_feeding_conditional
from repro.cps import cps_transform
from repro.domains import ConstPropDomain, IntervalDomain
from repro.domains.constprop import TOP

DOM = ConstPropDomain()


class TestDirectAlwaysComputable:
    @pytest.mark.parametrize("threshold", [1, 5, 50])
    def test_direct_terminates_with_iota(self, threshold):
        program = loop_feeding_conditional(threshold)
        result = analyze_direct(program.term, DOM)
        assert result.num_of("i") is TOP
        assert result.num_of("r") is TOP  # both branches merged

    def test_direct_with_interval_keeps_naturals(self):
        program = loop_feeding_conditional(3)
        result = analyze_direct(program.term, IntervalDomain(bound=8))
        from repro.domains.interval import Interval

        assert result.num_of("i") == Interval(0, None)


class TestCpsAnalyzersRefuse:
    def test_semantic_rejects_by_default(self):
        program = loop_feeding_conditional(3)
        with pytest.raises(NonComputableError):
            analyze_semantic_cps(program.term, DOM)

    def test_syntactic_rejects_by_default(self):
        program = loop_feeding_conditional(3)
        with pytest.raises(NonComputableError):
            analyze_syntactic_cps(cps_transform(program.term), DOM)

    def test_run_comparison_propagates(self):
        with pytest.raises(NonComputableError):
            run_comparison(loop_feeding_conditional(3), analyzers=THREE_WAY_ANALYZERS)


class TestTopModeMatchesDirect:
    def test_semantic_top_equals_direct(self):
        program = loop_feeding_conditional(3)
        direct = analyze_direct(program.term, DOM)
        semantic = analyze_semantic_cps(program.term, DOM, loop_mode="top")
        assert semantic.num_of("r") == direct.num_of("r")


class TestUnrollNeverSettles:
    """The experimental face of undecidability: for any unroll bound N
    there is a program (threshold > N) whose exact answer differs from
    the N-bounded one — the unrolled result keeps changing as the
    bound crosses the threshold."""

    def test_unroll_below_threshold_gives_wrong_constant(self):
        threshold = 10
        program = loop_feeding_conditional(threshold)
        shallow = analyze_semantic_cps(
            program.term, DOM, loop_mode="unroll", unroll_bound=5
        )
        # every i in 0..5 makes (- i 10) nonzero: only the 222 branch
        assert shallow.constant_of("r") == 222

    def test_unroll_past_threshold_changes_the_answer(self):
        threshold = 10
        program = loop_feeding_conditional(threshold)
        deep = analyze_semantic_cps(
            program.term, DOM, loop_mode="unroll", unroll_bound=20
        )
        # i = 10 reaches the 111 branch: the 5-bounded answer was wrong
        assert deep.num_of("r") is TOP

    @pytest.mark.parametrize("bound", [0, 3, 7])
    def test_no_finite_bound_is_stable_across_thresholds(self, bound):
        # for every bound there is a threshold that flips the answer
        program = loop_feeding_conditional(bound + 2)
        below = analyze_semantic_cps(
            program.term, DOM, loop_mode="unroll", unroll_bound=bound
        )
        above = analyze_semantic_cps(
            program.term, DOM, loop_mode="unroll", unroll_bound=bound + 4
        )
        assert below.value_of("r") != above.value_of("r")

    def test_syntactic_unroll_behaves_identically(self):
        threshold = 10
        program = loop_feeding_conditional(threshold)
        cps = cps_transform(program.term)
        shallow = analyze_syntactic_cps(
            cps, DOM, loop_mode="unroll", unroll_bound=5
        )
        deep = analyze_syntactic_cps(
            cps, DOM, loop_mode="unroll", unroll_bound=20
        )
        assert shallow.constant_of("r") == 222
        assert deep.num_of("r") is TOP


class TestDuplicationValueOfLoop:
    def test_unrolling_can_beat_iota(self):
        """The flip side (why the paper cares): per-value duplication
        is *more precise* than the single iota application when the
        continuation's result is insensitive to the concrete value."""
        from repro.anf import normalize
        from repro.lang.parser import parse

        term = normalize(parse("(let (d (loop)) (let (r (* d 0)) r))"))
        top_mode = analyze_semantic_cps(term, DOM, loop_mode="top")
        unrolled = analyze_semantic_cps(
            term, DOM, loop_mode="unroll", unroll_bound=8
        )
        assert top_mode.constant_of("r") == 0  # 0 * TOP = 0 (constprop)
        assert unrolled.constant_of("r") == 0
        # with a domain that cannot fold 0 * TOP the gap appears:
        from repro.domains import SignDomain
        from repro.domains.sign import ZERO

        sign_top = analyze_semantic_cps(
            term, SignDomain(), loop_mode="top"
        )
        sign_unrolled = analyze_semantic_cps(
            term, SignDomain(), loop_mode="unroll", unroll_bound=8
        )
        assert sign_top.num_of("r") is ZERO  # 0 absorbs in sign too
        assert sign_unrolled.num_of("r") is ZERO


class TestUnrollBoundRule:
    """One rule for ``unroll_bound`` (`check_unroll_bound`): an integer
    >= 0.  Every CPS analyzer, tree and plan, checks it at
    construction, and the service applies the same rule, so library
    and service agree on 0 and refuse the same values."""

    CPS = [
        (name, engine)
        for name in ("semantic-cps", "syntactic-cps")
        for engine in ("tree", "plan")
    ]

    @pytest.mark.parametrize("name, engine", CPS)
    @pytest.mark.parametrize("bound", [-1, 1.5, None, True, "3"])
    def test_bad_bound_is_a_value_error(self, name, engine, bound):
        from repro.analysis.registry import build_analyzer

        program = loop_feeding_conditional(3)
        with pytest.raises(ValueError, match="unroll_bound must be"):
            build_analyzer(
                name, program.term, engine=engine, loop_mode="unroll",
                unroll_bound=bound,
            )

    @pytest.mark.parametrize("name, engine", CPS)
    def test_zero_joins_the_first_iteration_only(self, name, engine):
        from repro.analysis.registry import run_analyzer

        program = loop_feeding_conditional(3)
        result = run_analyzer(
            name, program.term, engine=engine, loop_mode="unroll",
            unroll_bound=0,
        )
        assert result.constant_of("r") == 222  # i = 0 only: (- 0 3) != 0

    def test_the_service_applies_the_same_rule(self):
        from repro.serve.codes import ServeError
        from repro.serve.jobs import execute_request

        body = {
            "program": "(let (i (loop)) (let (r (if0 i 111 222)) r))",
            "analyzer": "semantic-cps",
            "loop_mode": "unroll",
        }
        zero = execute_request("analyze", {**body, "unroll_bound": 0})
        assert zero["ok"] and zero["result"]["store"]["r"]["num"] == "111"
        for bad in (-1, None, 2.5):
            with pytest.raises(ServeError) as info:
                execute_request("analyze", {**body, "unroll_bound": bad})
            assert info.value.code == "bad_request"
            assert "unroll_bound must be" in str(info.value)
