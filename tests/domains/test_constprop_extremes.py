"""The constant lattice's ⊥ and ⊤ survive `pickle` and `copy.deepcopy`.

`ConstPropDomain` and `Lattice` test the extremes by identity, so a
round trip that made a new ``_Extreme`` would make ⊥ join as a
constant (``join(⊥', 5)`` = ⊤) and ⊥ values look non-bottom.  Worker
pools pickle results, so this is not hypothetical.
"""

import copy
import pickle

import pytest

from repro.domains import ConstPropDomain, Lattice
from repro.domains.constprop import BOT, TOP

DOM = ConstPropDomain()
LATTICE = Lattice(DOM)


def round_trips(value):
    yield copy.deepcopy(value)
    yield copy.copy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol=protocol))


@pytest.mark.parametrize("extreme", [BOT, TOP], ids=repr)
def test_round_trips_return_the_singleton(extreme):
    for copied in round_trips(extreme):
        assert copied is extreme


def test_nested_round_trips_keep_identity():
    for copied in round_trips({"num": [BOT, TOP, 5], "abs": LATTICE.bottom}):
        assert copied["num"][0] is BOT
        assert copied["num"][1] is TOP
        assert copied["abs"].num is BOT


@pytest.mark.parametrize("number", [BOT, TOP, 0, 5])
def test_lattice_operations_agree_after_round_trips(number):
    for copied in round_trips(number):
        for other in (BOT, TOP, 0, 5, 7):
            assert DOM.join(copied, other) == DOM.join(number, other)
            assert DOM.join(other, copied) == DOM.join(other, number)
            assert DOM.leq(copied, other) == DOM.leq(number, other)
            assert DOM.leq(other, copied) == DOM.leq(other, number)
        assert DOM.is_bottom(copied) == DOM.is_bottom(number)


def test_abstract_values_after_round_trips():
    for value in (LATTICE.bottom, LATTICE.of_num(TOP), LATTICE.of_const(5)):
        for copied in round_trips(value):
            assert LATTICE.is_bottom(copied) == LATTICE.is_bottom(value)
            assert LATTICE.join(copied, LATTICE.of_const(5)) == LATTICE.join(
                value, LATTICE.of_const(5)
            )
            assert LATTICE.leq(copied, value) and LATTICE.leq(value, copied)
    copied_bottom = pickle.loads(pickle.dumps(LATTICE.bottom))
    assert LATTICE.join(copied_bottom, LATTICE.of_const(5)).num == 5
