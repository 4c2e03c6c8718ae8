"""Differential validation of semantic lints (ISSUE 4 satellite).

Every L001/L002/L003 a lint run fires must be *actionable*: applying
the corresponding `repro.opt` transformation removes the flagged site,
and re-running the proving analyzer on the transformed program yields
the same final abstract value.  For closed programs we additionally
check the concrete direct interpreter agrees before and after.
"""

import itertools

import pytest

from repro.analysis.registry import run_analyzer
from repro.corpus.programs import PROGRAMS
from repro.domains.absval import Lattice
from repro.domains.constprop import ConstPropDomain
from repro.interp.direct import run_direct
from repro.interp.errors import InterpError
from repro.lang.ast import If0, Num
from repro.lang.syntax import binders, free_variables
from repro.lint import iter_let_bindings, run_lints
from repro.opt.constfold import constant_fold
from repro.opt.deadcode import eliminate_dead_code

MAX_VISITS = 60_000

CASES = [
    (name, analyzer)
    for name, analyzer in itertools.product(
        PROGRAMS, ("direct", "semantic-cps", "syntactic-cps")
    )
    if not (PROGRAMS[name].heavy and analyzer == "syntactic-cps")
]


def _let_rhs(term):
    return {name: rhs for name, rhs, _ in iter_let_bindings(term)}


@pytest.mark.parametrize("name,analyzer", CASES)
def test_semantic_lints_are_actionable(name, analyzer):
    prog = PROGRAMS[name]
    report = run_lints(prog, analyzer=analyzer, max_visits=MAX_VISITS)
    assert report.analysis_error is None
    flagged = {
        code: [d.subject for d in report.by_code(code)]
        for code in ("L001", "L002", "L003")
    }
    if not any(flagged.values()):
        pytest.skip(f"{name}/{analyzer}: no foldable semantic findings")

    lattice = Lattice(ConstPropDomain())
    initial = prog.initial_for(lattice)
    result = run_analyzer(
        analyzer, prog.term, initial=initial, max_visits=MAX_VISITS,
        loop_mode="top",
    )
    folded = constant_fold(prog.term, result)
    cleaned = eliminate_dead_code(folded)

    folded_rhs = _let_rhs(folded)
    # L003: the flagged binder now binds the proven literal — or the
    # site vanished entirely because an enclosing binding folded first
    # (e.g. a whole decided conditional collapsing to its constant).
    for subject in flagged["L003"]:
        if subject in folded_rhs:
            assert isinstance(folded_rhs[subject], Num), (
                f"{name}/{analyzer}: L003 on {subject!r} but constfold "
                f"left {folded_rhs[subject]!r}"
            )
    # L001: the decided conditional is gone after folding.
    for subject in flagged["L001"]:
        assert not isinstance(folded_rhs.get(subject), If0), (
            f"{name}/{analyzer}: L001 on {subject!r} but the if0 survived"
        )
    # L002: the binding is removed by the fold+deadcode pipeline.
    surviving = set(binders(cleaned))
    for subject in flagged["L002"]:
        assert subject not in surviving, (
            f"{name}/{analyzer}: L002 on {subject!r} but deadcode kept it"
        )

    # The proving analyzer computes the same final value on the
    # transformed program: the lint-suggested rewrites are
    # semantics-preserving under its own abstraction.
    after = run_analyzer(
        analyzer, cleaned, initial=initial, max_visits=MAX_VISITS,
        loop_mode="top",
    )
    assert after.answer.value == result.answer.value, (
        f"{name}/{analyzer}: final abstract value changed after rewrite"
    )

    # Closed programs: the concrete machine agrees too.
    if not free_variables(prog.term):
        try:
            before = run_direct(prog.term, fuel=200_000)
            assert run_direct(cleaned, fuel=200_000).value == before.value
        except InterpError:
            pytest.skip(f"{name}: concrete run exceeds the fuel budget")
