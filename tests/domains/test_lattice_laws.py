"""Property-based lattice-law tests for every number domain.

For each domain we check, on elements generated from integer seeds:

- join is commutative, associative, idempotent;
- bottom is the identity and top the absorbing element of join;
- leq is reflexive, antisymmetric, transitive;
- join is the least upper bound (a <= a∨b, b <= a∨b, and a∨b is below
  any common upper bound);
- transfer functions are monotone;
- transfer functions are *sound* with respect to concrete arithmetic;
- the branch predicates cover concrete reality (if n is abstracted by
  a and n == 0 then may_be_zero(a), etc.).

The product lattice's `Lattice.join` also keeps identity: it returns
an operand whenever the join adds nothing to it, which the stores'
"unchanged" tests rely on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.common import (
    A_DEC,
    A_DECK,
    A_INC,
    A_INCK,
    A_STOP,
    AbsClo,
    AbsCo,
    AbsCpsClo,
)
from repro.cps.ast import CVar
from repro.domains import (
    AbsVal,
    ConstPropDomain,
    IntervalDomain,
    Lattice,
    ParityDomain,
    SignDomain,
    UnitDomain,
)
from repro.lang.ast import Var

DOMAINS = [
    ConstPropDomain(),
    UnitDomain(),
    ParityDomain(),
    SignDomain(),
    IntervalDomain(bound=16),
]

IDS = [d.name for d in DOMAINS]


def element(domain, picks: list[int]):
    """Deterministically build a domain element from seed integers:
    a join of constants, possibly with bottom/top mixed in."""
    value = domain.bottom
    for pick in picks:
        if pick % 7 == 0:
            value = domain.join(value, domain.top)
        else:
            value = domain.join(value, domain.const(pick % 21 - 10))
    return value


elements_strategy = st.lists(st.integers(0, 1_000), min_size=0, max_size=4)


@pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
class TestLatticeLaws:
    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy)
    def test_join_commutative(self, domain, a, b):
        x, y = element(domain, a), element(domain, b)
        assert domain.join(x, y) == domain.join(y, x)

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy, c=elements_strategy)
    def test_join_associative(self, domain, a, b, c):
        x, y, z = element(domain, a), element(domain, b), element(domain, c)
        assert domain.join(domain.join(x, y), z) == domain.join(
            x, domain.join(y, z)
        )

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy)
    def test_join_idempotent(self, domain, a):
        x = element(domain, a)
        assert domain.join(x, x) == x

    @settings(max_examples=40, deadline=None)
    @given(a=elements_strategy)
    def test_bottom_identity_top_absorbing(self, domain, a):
        x = element(domain, a)
        assert domain.join(x, domain.bottom) == x
        assert domain.join(x, domain.top) == domain.top

    @settings(max_examples=40, deadline=None)
    @given(a=elements_strategy)
    def test_leq_reflexive_and_bounds(self, domain, a):
        x = element(domain, a)
        assert domain.leq(x, x)
        assert domain.leq(domain.bottom, x)
        assert domain.leq(x, domain.top)

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy)
    def test_leq_antisymmetric(self, domain, a, b):
        x, y = element(domain, a), element(domain, b)
        if domain.leq(x, y) and domain.leq(y, x):
            assert x == y

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy, c=elements_strategy)
    def test_leq_transitive(self, domain, a, b, c):
        x, y, z = element(domain, a), element(domain, b), element(domain, c)
        if domain.leq(x, y) and domain.leq(y, z):
            assert domain.leq(x, z)

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy, c=elements_strategy)
    def test_join_is_least_upper_bound(self, domain, a, b, c):
        x, y = element(domain, a), element(domain, b)
        joined = domain.join(x, y)
        assert domain.leq(x, joined)
        assert domain.leq(y, joined)
        upper = domain.join(joined, element(domain, c))
        if domain.leq(x, upper) and domain.leq(y, upper):
            assert domain.leq(joined, upper)

    @settings(max_examples=60, deadline=None)
    @given(a=elements_strategy, b=elements_strategy)
    def test_transfer_monotone(self, domain, a, b):
        x, y = element(domain, a), element(domain, b)
        if domain.leq(x, y):
            assert domain.leq(domain.add1(x), domain.add1(y))
            assert domain.leq(domain.sub1(x), domain.sub1(y))
            for op in ("+", "-", "*"):
                assert domain.leq(
                    domain.binop(op, x, x), domain.binop(op, y, y)
                )

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(-15, 15), m=st.integers(-15, 15))
    def test_transfer_sound_on_constants(self, domain, n, m):
        a, b = domain.const(n), domain.const(m)
        assert domain.abstracts(domain.add1(a), n + 1)
        assert domain.abstracts(domain.sub1(a), n - 1)
        assert domain.abstracts(domain.binop("+", a, b), n + m)
        assert domain.abstracts(domain.binop("-", a, b), n - m)
        assert domain.abstracts(domain.binop("*", a, b), n * m)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(-15, 15), picks=elements_strategy)
    def test_branch_predicates_cover_reality(self, domain, n, picks):
        a = domain.join(domain.const(n), element(domain, picks))
        assert domain.abstracts(a, n)
        if n == 0:
            assert domain.may_be_zero(a)
        else:
            assert domain.may_be_nonzero(a)

    def test_bottom_branches_nowhere(self, domain):
        assert not domain.may_be_zero(domain.bottom)
        assert not domain.may_be_nonzero(domain.bottom)

    def test_iota_covers_naturals(self, domain):
        for i in range(0, 20):
            assert domain.abstracts(domain.iota, i)

    @settings(max_examples=40, deadline=None)
    @given(a=elements_strategy)
    def test_elements_hashable(self, domain, a):
        x = element(domain, a)
        assert hash(x) == hash(element(domain, a))


#: Closure and continuation tokens of every analyzer, mixed freely.
CLOSURES = (
    A_INC,
    A_DEC,
    A_INCK,
    A_DECK,
    AbsClo("x", Var("x")),
    AbsCpsClo("y", "k", CVar("y")),
)
KONTS = (A_STOP, AbsCo("r", CVar("r")), AbsCo("s", CVar("s")))

#: An abstract value: number seeds, then bitmasks over the closure and
#: continuation tokens.
absval_strategy = st.tuples(
    elements_strategy,
    st.integers(0, (1 << len(CLOSURES)) - 1),
    st.integers(0, (1 << len(KONTS)) - 1),
)


def absval(domain, seeds) -> AbsVal:
    picks, clos_mask, kont_mask = seeds
    return AbsVal(
        element(domain, picks),
        frozenset(c for i, c in enumerate(CLOSURES) if clos_mask >> i & 1),
        frozenset(k for i, k in enumerate(KONTS) if kont_mask >> i & 1),
    )


@pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
class TestJoinKeepsIdentity:
    @settings(max_examples=150, deadline=None)
    @given(a=absval_strategy, b=absval_strategy, same=st.booleans())
    def test_join_returns_an_operand_unless_it_grows(
        self, domain, a, b, same
    ):
        lattice = Lattice(domain)
        x = absval(domain, a)
        y = x if same else absval(domain, b)
        joined = lattice.join(x, y)
        assert (joined is x) == lattice.leq(y, x)
        if lattice.leq(x, y) and not lattice.leq(y, x):
            assert joined is y
        assert joined == AbsVal(
            domain.join(x.num, y.num), x.clos | y.clos, x.konts | y.konts
        )

    @settings(max_examples=60, deadline=None)
    @given(a=absval_strategy)
    def test_bottom_joins_to_the_other_operand(self, domain, a):
        lattice = Lattice(domain)
        x = absval(domain, a)
        assert lattice.join(lattice.bottom, x) is (
            lattice.bottom if lattice.is_bottom(x) else x
        )
        assert lattice.join(x, lattice.bottom) is x
