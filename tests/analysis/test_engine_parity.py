"""Both engines refuse the same inputs the same way.

The differential suite pins that the tree and plan engines agree on
every answer; this file pins that they agree on every *refusal*, for
each ``(analyzer, engine)`` row of the registry: a bad ``loop_mode``,
a negative ``k``, an ill-formed term under ``check=True``, and the
``loop_mode='reject'`` message of the Section 6.2 ``loop``.  The
refusals live in the shared analyzer skeleton and in each analyzer's
own set-up, so a drift between the two engines shows up here.
"""

import pytest

from repro.analysis.common import NonComputableError
from repro.analysis.registry import _TABLE, analyzer_class, build_analyzer
from repro.corpus.programs import PROGRAMS, loop_feeding_conditional
from repro.cps.ast import CNum, KApp
from repro.lang.ast import App, Lam, Num, Prim, Var
from repro.lang.errors import SyntaxValidationError

PAIRS = sorted(_TABLE)

#: A term outside the restricted subset: a nested application.
NON_ANF = App(Lam("x", Var("x")), App(Prim("add1"), Num(1)))

#: A cps(A) term returning through an unbound continuation variable.
NON_CPS = KApp("k-unbound", CNum(1))

#: Which analyzers take each option; the registry drops it for the rest.
TAKES = {
    "loop_mode": {"semantic-cps", "syntactic-cps"},
    "k": {"polyvariant"},
}

BAD_OPTIONS = {
    "loop_mode": {"loop_mode": "sideways"},
    "k": {"k": -1},
}

#: The ``loop_mode='reject'`` message of each CPS analyzer, byte for byte.
REJECT_MESSAGES = {
    "semantic-cps": (
        "semantic-CPS analysis of `loop` requires the join of "
        "appre(kont, (i, {})) over all naturals i, which is "
        "undecidable (paper Section 6.2); re-run with "
        "loop_mode='top' or loop_mode='unroll'"
    ),
    "syntactic-cps": (
        "syntactic-CPS analysis of `loop` requires the join of "
        "the continuation applied to every natural, which is "
        "undecidable (paper Section 6.2); re-run with "
        "loop_mode='top' or loop_mode='unroll'"
    ),
}


def outcome(build):
    """``None`` when the analyzer builds and runs, else the exception's
    type and message."""
    try:
        build().run()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("option", sorted(BAD_OPTIONS))
@pytest.mark.parametrize("name, engine", PAIRS)
def test_bad_option_fails_alike_on_both_engines(name, engine, option):
    term = PROGRAMS["factorial"].term
    options = BAD_OPTIONS[option]
    got = outcome(
        lambda: build_analyzer(name, term, engine=engine, **options)
    )
    tree = outcome(
        lambda: build_analyzer(name, term, engine="tree", **options)
    )
    assert got == tree
    if name in TAKES[option]:
        assert got is not None and got[0] is ValueError
    else:
        assert got is None


@pytest.mark.parametrize("name, engine", PAIRS)
def test_ill_formed_term_fails_alike_on_both_engines(name, engine):
    # The syntactic-CPS analyzer checks cps(A) terms, the rest the
    # restricted subset; construct the class directly so the registry's
    # CPS transform does not refuse the term first.
    term = NON_CPS if name == "syntactic-cps" else NON_ANF
    got = outcome(lambda: analyzer_class(name, engine)(term, check=True))
    tree = outcome(lambda: analyzer_class(name, "tree")(term, check=True))
    assert got == tree
    assert got is not None and got[0] is SyntaxValidationError


@pytest.mark.parametrize("name, engine", PAIRS)
def test_loop_reject_message_is_pinned_per_analyzer(name, engine):
    term = loop_feeding_conditional(3).term
    got = outcome(
        lambda: build_analyzer(name, term, engine=engine, loop_mode="reject")
    )
    if name in REJECT_MESSAGES:
        assert got == (NonComputableError, REJECT_MESSAGES[name])
    else:
        # the direct-style analyzers join all naturals at `loop`
        assert got is None


def test_every_cps_analyzer_has_a_pinned_message():
    assert set(REJECT_MESSAGES) == TAKES["loop_mode"]
    for name in REJECT_MESSAGES:
        assert (name, "tree") in _TABLE and (name, "plan") in _TABLE
