"""``top_value`` of the tree analyzers is built on first use, once.

(⊤, CL⊤) and (⊤, CL⊤, K⊤) are read only at a Section 4.4 loop cut (and
by the incr codec), so the analyzers build them lazily.  The lazy value
must equal the eager formula over the whole program and initial store,
which is checked here against reference copies of the collectors.
"""

import pytest

from repro.analysis import (
    A_DEC,
    A_DECK,
    A_INC,
    A_INCK,
    A_STOP,
    DirectAnalyzer,
    SemanticCpsAnalyzer,
    SyntacticCpsAnalyzer,
)
from repro.analysis import semantic_cps, syntactic_cps
from repro.analysis.common import AbsCo, AbsCpsClo, AbsClo
from repro.cps import TOP_KVAR, cps_transform
from repro.cps.ast import CApp, CIf0, CLam, CLoop, CPrim
from repro.cps.validate import cps_subterms
from repro.corpus.programs import PROGRAMS, loop_feeding_conditional
from repro.domains import AbsVal, ConstPropDomain, Lattice
from repro.lang.ast import Lam, Prim
from repro.lang.syntax import subterms

LATTICE = Lattice(ConstPropDomain())
NAMES = sorted(name for name, program in PROGRAMS.items() if not program.heavy)


def eager_direct_top(term, initial):
    closures = set()
    for sub in subterms(term):
        if isinstance(sub, Lam):
            closures.add(AbsClo(sub.param, sub.body))
        elif isinstance(sub, Prim):
            closures.add(A_INC if sub.name == "add1" else A_DEC)
    for value in initial.values():
        closures |= value.clos
    return AbsVal(LATTICE.domain.top, frozenset(closures))


def eager_cps_top(cps_term, initial):
    closures, konts = set(), {A_STOP}
    for sub in cps_subterms(cps_term):
        if isinstance(sub, CLam):
            closures.add(AbsCpsClo(sub.param, sub.kparam, sub.body))
        elif isinstance(sub, CPrim):
            closures.add(A_INCK if sub.name == "add1k" else A_DECK)
        elif isinstance(sub, (CApp, CIf0, CLoop)):
            konts.add(AbsCo(sub.kont.param, sub.kont.body))
    for value in initial.values():
        closures |= value.clos
        konts |= value.konts
    return AbsVal(LATTICE.domain.top, frozenset(closures), frozenset(konts))


class Counter:
    def __init__(self, function):
        self.function, self.calls = function, 0

    def __call__(self, *args):
        self.calls += 1
        return self.function(*args)


@pytest.mark.parametrize("name", NAMES)
def test_direct_style_tops(name, monkeypatch):
    term = PROGRAMS[name].term
    initial = PROGRAMS[name].initial_for(LATTICE)
    initial["unused"] = LATTICE.of_clos(A_DEC)  # the store adds to CL⊤
    # Both classes build the top in the one machine's module: the
    # direct analyzer is the semantic-CPS machine joining at return.
    for cls in (DirectAnalyzer, SemanticCpsAnalyzer):
        counter = Counter(semantic_cps.closures_of_term)
        monkeypatch.setattr(semantic_cps, "closures_of_term", counter)
        analyzer = cls(term, initial=initial)
        assert counter.calls == 0
        analyzer.run()
        assert counter.calls <= 1
        assert analyzer.top_value == eager_direct_top(term, initial)
        assert analyzer.top_value is analyzer.top_value
        assert counter.calls == 1


@pytest.mark.parametrize("name", NAMES + ["loop-feeding-conditional"])
def test_syntactic_cps_top(name, monkeypatch):
    program = PROGRAMS.get(name) or loop_feeding_conditional(3)
    cps_term = cps_transform(program.term)
    initial = {TOP_KVAR: LATTICE.of_konts(A_STOP), "f": LATTICE.of_clos(A_INCK)}
    counter = Counter(syntactic_cps.cps_tops_of_term)
    monkeypatch.setattr(syntactic_cps, "cps_tops_of_term", counter)
    analyzer = SyntacticCpsAnalyzer(cps_term, initial=initial, loop_mode="top")
    assert counter.calls == 0
    analyzer.run()
    assert counter.calls <= 1
    assert analyzer.top_value == eager_cps_top(cps_term, initial)
    assert analyzer.top_value is analyzer.top_value
    assert counter.calls == 1


def test_a_loop_cut_reads_the_top():
    # factorial recurses, so the direct and syntactic-CPS analyzers cut
    # and build their tops during the run.
    term = PROGRAMS["factorial"].term
    direct_analyzer = DirectAnalyzer(term)
    direct_analyzer.run()
    assert "top_value" in vars(direct_analyzer)
    cps = SyntacticCpsAnalyzer(cps_transform(term))
    cps.run()
    assert "top_value" in vars(cps)
