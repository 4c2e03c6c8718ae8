"""Tests for the classical MFP and MOP dataflow solvers.

The scientific content: MOP ⊒ MFP always (Kam–Ullman), strictly on the
paper's non-distributive witness, equal on distributive frameworks —
and the split aligns exactly with the interpreter-derived analyzers
(direct = MFP-like, semantic-CPS = MOP-like), which is Nielson's
result the paper cites in Section 6.2.
"""

import itertools

import pytest

from repro.analysis import analyze_direct, analyze_semantic_cps
from repro.anf import normalize
from repro.dataflow import (
    ENTRY,
    PathExplosion,
    build_problem,
    solve_mfp,
    solve_mop,
)
from repro.dataflow.mfp import mfp_value
from repro.dataflow.mop import mop_value
from repro.domains import ConstPropDomain, Lattice, ParityDomain, UnitDomain
from repro.domains.constprop import TOP
from repro.interp import run_direct
from repro.interp.values import Env, Store
from repro.lang.parser import parse
from repro.lang.syntax import free_variables

DOM = ConstPropDomain()

WITNESS = normalize(
    parse(
        """(let (a1 (if0 x 0 1))
             (let (a2 (if0 a1 (+ a1 3) (+ a1 2)))
               a2))"""
    ),
    ensure_unique=False,
)


def solve_both(term, domain=DOM, entry=None, **kwargs):
    problem = build_problem(term, domain, entry_facts=entry, **kwargs)
    return problem, solve_mfp(problem), solve_mop(problem)


class TestStraightLine:
    def test_constants_propagate(self):
        term = normalize(parse("(let (a (+ 1 2)) (let (b (* a a)) b))"))
        problem, mfp, mop = solve_both(term)
        assert mfp_value(problem, mfp, "b") == 9
        assert mop_value(problem, mop, "b") == 9
        assert mfp_value(problem, mfp, "<result>") == 9

    def test_prim_application(self):
        term = normalize(parse("(add1 (sub1 5))"))
        problem, mfp, _ = solve_both(term)
        assert mfp_value(problem, mfp, "<result>") == 5

    def test_unknown_call_is_top(self):
        term = normalize(parse("(let (r (f 1)) r)"))
        problem, mfp, _ = solve_both(term, entry={"f": DOM.top})
        assert mfp_value(problem, mfp, "r") is TOP

    def test_loop_is_iota(self):
        term = normalize(parse("(let (d (loop)) d)"))
        problem, mfp, _ = solve_both(term)
        assert mfp_value(problem, mfp, "d") is TOP  # constprop iota


class TestConditionals:
    def test_known_test_prunes_infeasible_edge(self):
        term = normalize(parse("(let (r (if0 0 1 2)) r)"))
        problem, mfp, mop = solve_both(term)
        assert mfp_value(problem, mfp, "r") == 1
        assert mop_value(problem, mop, "r") == 1

    def test_unknown_test_merges_in_mfp(self):
        term = normalize(parse("(let (r (if0 x 1 2)) r)"))
        problem, mfp, mop = solve_both(term, entry={"x": DOM.top})
        assert mfp_value(problem, mfp, "r") is TOP
        assert mop_value(problem, mop, "r") is TOP  # 1 and 2 really differ

    def test_refinement_mode_learns_test_value(self):
        # with refine_tests the then-edge knows x = 0
        term = normalize(
            parse("(let (r (if0 x (+ x 5) 9)) r)"), ensure_unique=False
        )
        problem, mfp, _ = solve_both(
            term, entry={"x": DOM.top}, refine_tests=True
        )
        assert mfp_value(problem, mfp, "r") in (5, TOP)
        # without refinement the then-branch computes TOP + 5 = TOP
        problem2, mfp2, _ = solve_both(term, entry={"x": DOM.top})
        assert mfp_value(problem2, mfp2, "r") is TOP


class TestMopVsMfp:
    def test_the_paper_witness_splits_them(self):
        problem, mfp, mop = solve_both(WITNESS, entry={"x": DOM.top})
        assert mfp_value(problem, mfp, "a2") is TOP  # MFP merges a1 first
        assert mop_value(problem, mop, "a2") == 3  # MOP keeps paths apart

    def test_mop_always_at_least_as_precise(self):
        sources = [
            "(let (a (+ 1 2)) a)",
            "(let (r (if0 x 1 2)) r)",
            "(let (a (if0 x 0 1)) (let (b (+ a a)) b))",
            "(let (a (if0 x 0 1)) (let (b (if0 y a (+ a 1))) b))",
        ]
        for source in sources:
            term = normalize(parse(source), ensure_unique=False)
            entry = {name: DOM.top for name in free_variables(term)}
            problem, mfp, mop = solve_both(term, entry=entry)
            for point in problem.points:
                assert problem.facts_leq(mop[point], mfp[point]), (
                    source,
                    point,
                )

    def test_distributive_framework_coincides(self):
        # the unit domain: all transfers additive, MOP = MFP
        domain = UnitDomain()
        term = WITNESS
        problem = build_problem(
            term, domain, entry_facts={"x": domain.top}
        )
        mfp = solve_mfp(problem)
        mop = solve_mop(problem)
        for point in problem.points:
            assert mfp[point] == mop[point], point

    def test_alignment_with_interpreter_derived_analyzers(self):
        """Nielson's correspondence, reproduced: direct = MFP-like,
        semantic-CPS = MOP-like on the witness."""
        lattice = Lattice(DOM)
        initial = {"x": lattice.of_num(DOM.top)}
        direct = analyze_direct(WITNESS, DOM, initial=initial)
        semantic = analyze_semantic_cps(WITNESS, DOM, initial=initial)
        problem, mfp, mop = solve_both(WITNESS, entry={"x": DOM.top})
        assert direct.num_of("a2") == mfp_value(problem, mfp, "a2") is TOP
        assert (
            semantic.constant_of("a2")
            == mop_value(problem, mop, "a2")
            == 3
        )


class TestSoundness:
    @pytest.mark.parametrize(
        "source",
        [
            "(let (a (if0 x 0 1)) (let (b (if0 a (+ a 3) (+ a 2))) b))",
            "(let (a (* x y)) (let (b (- a x)) (if0 b a b)))",
            "(let (a (if0 x 1 2)) (let (b (if0 y a (* a a))) (+ a b)))",
        ],
    )
    @pytest.mark.parametrize("solver", [solve_mfp, solve_mop])
    @pytest.mark.parametrize("refine", [False, True])
    def test_against_enumerated_runs(self, source, solver, refine):
        term = normalize(parse(source), ensure_unique=False)
        names = sorted(free_variables(term))
        problem = build_problem(
            term,
            DOM,
            entry_facts={n: DOM.top for n in names},
            refine_tests=refine,
        )
        solution = solver(problem)
        exit_facts = solution[problem.exit_point]
        assert exit_facts is not None
        for values in itertools.product(range(-2, 3), repeat=len(names)):
            env, store = Env(), Store()
            for name, value in zip(names, values):
                loc = store.new(name)
                store.bind(loc, value)
                env = env.bind(name, loc)
            answer = run_direct(term, env=env, store=store, fuel=100_000)
            # every binding of this (first-order) run lies on a feasible
            # path to the exit, so the exit facts must describe it
            for loc, value in answer.store.items():
                if isinstance(value, int) and loc.name not in names:
                    fact = exit_facts.get(loc.name, DOM.bottom)
                    assert DOM.abstracts(fact, value), (loc.name, value)
            if isinstance(answer.value, int):
                assert DOM.abstracts(
                    exit_facts.get("<result>", DOM.bottom), answer.value
                )


class TestMopExplosion:
    def test_budget_raises(self):
        # a chain of conditionals has 2^k paths
        from repro.corpus import conditional_chain

        program = conditional_chain(10)
        problem = build_problem(
            program.term,
            DOM,
            entry_facts={f"x{i}": DOM.top for i in range(1, 11)},
        )
        with pytest.raises(PathExplosion):
            solve_mop(problem, max_paths=100)
        # MFP is linear and unbothered
        mfp = solve_mfp(problem)
        assert mfp[problem.exit_point] is not None


class TestParityFramework:
    def test_parity_mop_gain(self):
        domain = ParityDomain()
        term = normalize(
            parse("(let (a (if0 x 1 3)) (let (b (+ a 1)) b))"),
            ensure_unique=False,
        )
        problem = build_problem(term, domain, entry_facts={"x": domain.top})
        mop = solve_mop(problem)
        from repro.domains.parity import EVEN

        # both branches give odd a, so b is even on every path — parity
        # keeps this even through the MFP merge (1 and 3 are both odd)
        mfp = solve_mfp(problem)
        assert mfp_value(problem, mfp, "b") is EVEN
        assert mop_value(problem, mop, "b") is EVEN
