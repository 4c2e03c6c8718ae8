"""Tests for abstract values (product lattice) and abstract stores."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.common import A_DEC, A_INC, A_STOP, AbsClo
from repro.domains import AbsStore, AbsVal, ConstPropDomain, Lattice
from repro.domains.constprop import BOT, TOP
from repro.lang.ast import Var

LAT = Lattice(ConstPropDomain())
CLO = AbsClo("x", Var("x"))


def val(seed: int) -> AbsVal:
    """Deterministic small abstract values."""
    num = [BOT, 0, 1, TOP][seed % 4]
    clos = [frozenset(), frozenset({A_INC}), frozenset({CLO, A_DEC})][
        (seed // 4) % 3
    ]
    konts = [frozenset(), frozenset({A_STOP})][(seed // 12) % 2]
    return AbsVal(num, clos, konts)


class TestAbsVal:
    def test_join_componentwise(self):
        a = AbsVal(0, frozenset({A_INC}))
        b = AbsVal(1, frozenset({CLO}))
        joined = LAT.join(a, b)
        assert joined.num is TOP
        assert joined.clos == frozenset({A_INC, CLO})

    def test_leq_componentwise(self):
        small = AbsVal(0, frozenset())
        big = AbsVal(TOP, frozenset({A_INC}))
        assert LAT.leq(small, big)
        assert not LAT.leq(big, small)

    def test_bottom_is_least(self):
        assert LAT.leq(LAT.bottom, AbsVal(TOP, frozenset({CLO})))
        assert LAT.is_bottom(LAT.bottom)
        assert not LAT.is_bottom(LAT.of_const(0))

    def test_injections(self):
        assert LAT.of_const(5).num == 5
        assert LAT.of_clos(A_INC).clos == frozenset({A_INC})
        assert LAT.of_konts(A_STOP).konts == frozenset({A_STOP})

    def test_join_all_empty_is_bottom(self):
        assert LAT.join_all([]) == LAT.bottom

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 23), b=st.integers(0, 23))
    def test_join_upper_bound(self, a, b):
        x, y = val(a), val(b)
        joined = LAT.join(x, y)
        assert LAT.leq(x, joined) and LAT.leq(y, joined)

    @settings(max_examples=60, deadline=None)
    @given(a=st.integers(0, 23), b=st.integers(0, 23))
    def test_leq_antisymmetry(self, a, b):
        x, y = val(a), val(b)
        if LAT.leq(x, y) and LAT.leq(y, x):
            assert x == y


class TestAbsStore:
    def test_get_defaults_to_bottom(self):
        store = AbsStore(LAT)
        assert store.get("ghost") == LAT.bottom

    def test_bottom_entries_normalized_away(self):
        a = AbsStore(LAT, {"x": LAT.bottom})
        b = AbsStore(LAT)
        assert a == b
        assert hash(a) == hash(b)
        assert "x" not in a

    def test_joined_bind_accumulates(self):
        store = AbsStore(LAT).joined_bind("x", LAT.of_const(1))
        store = store.joined_bind("x", LAT.of_const(1))
        assert store.get("x").num == 1
        store = store.joined_bind("x", LAT.of_const(2))
        assert store.get("x").num is TOP

    def test_joined_bind_is_persistent(self):
        base = AbsStore(LAT)
        extended = base.joined_bind("x", LAT.of_const(1))
        assert "x" not in base
        assert "x" in extended

    def test_join_pointwise(self):
        a = AbsStore(LAT, {"x": LAT.of_const(1)})
        b = AbsStore(LAT, {"x": LAT.of_const(1), "y": LAT.of_clos(CLO)})
        joined = a.join(b)
        assert joined.get("x").num == 1
        assert joined.get("y").clos == frozenset({CLO})

    def test_join_conflicting_entries(self):
        a = AbsStore(LAT, {"x": LAT.of_const(1)})
        b = AbsStore(LAT, {"x": LAT.of_const(2)})
        assert a.join(b).get("x").num is TOP

    def test_leq(self):
        small = AbsStore(LAT, {"x": LAT.of_const(1)})
        big = AbsStore(LAT, {"x": LAT.of_num(TOP), "y": LAT.of_const(0)})
        assert small.leq(big)
        assert not big.leq(small)
        assert AbsStore(LAT).leq(small)

    def test_restrict(self):
        store = AbsStore(
            LAT, {"x": LAT.of_const(1), "k/halt": LAT.of_konts(A_STOP)}
        )
        restricted = store.restrict(["x"])
        assert "x" in restricted
        assert "k/halt" not in restricted

    def test_equality_and_hash_by_content(self):
        a = AbsStore(LAT, {"x": LAT.of_const(1)})
        b = AbsStore(LAT).joined_bind("x", LAT.of_const(1))
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_as_dict_key(self):
        a = AbsStore(LAT, {"x": LAT.of_const(1)})
        table = {a: "hit"}
        b = AbsStore(LAT, {"x": LAT.of_const(1)})
        assert table[b] == "hit"

    def test_joined_bind_no_op_returns_self(self):
        # Re-binding a value the entry already absorbs must not build
        # a fresh store: loop detection and the eval memo key on
        # store equality, and this is the hot path.
        store = AbsStore(LAT, {"x": LAT.of_num(TOP)})
        assert store.joined_bind("x", LAT.of_const(1)) is store
        assert store.joined_bind("x", LAT.of_num(TOP)) is store

    def test_join_short_circuits_on_identity(self):
        store = AbsStore(LAT, {"x": LAT.of_const(1)})
        assert store.join(store) is store

    def test_join_short_circuits_on_empty(self):
        empty = AbsStore(LAT)
        store = AbsStore(LAT, {"x": LAT.of_const(1)})
        assert store.join(empty) is store
        assert empty.join(store) is store
        assert empty.join(AbsStore(LAT)) is empty

    def test_restrict_accepts_sets_without_rebuilding(self):
        store = AbsStore(
            LAT, {"x": LAT.of_const(1), "y": LAT.of_const(2)}
        )
        for names in ({"x"}, frozenset({"x"}), ["x"], iter(["x"])):
            restricted = store.restrict(names)
            assert "x" in restricted and "y" not in restricted

    @settings(max_examples=40, deadline=None)
    @given(
        seeds=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 23)),
            max_size=6,
        )
    )
    def test_join_commutes(self, seeds):
        a = AbsStore(LAT)
        b = AbsStore(LAT)
        for i, (which, seed) in enumerate(seeds):
            name = f"v{i % 3}"
            if which % 2:
                a = a.joined_bind(name, val(seed))
            else:
                b = b.joined_bind(name, val(seed))
        assert a.join(b) == b.join(a)
        assert a.leq(a.join(b)) and b.leq(a.join(b))


def _fresh(store: AbsStore) -> AbsStore:
    """The same table through the public, normalizing constructor."""
    return AbsStore(LAT, dict(store.items()))


_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("bind"),
            st.integers(0, 7),
            st.integers(0, 4),
            st.integers(0, 23),
        ),
        st.tuples(st.just("join"), st.integers(0, 7), st.integers(0, 7)),
        st.tuples(
            st.just("restrict"),
            st.integers(0, 7),
            st.frozensets(st.sampled_from([f"v{i}" for i in range(5)])),
        ),
    ),
    max_size=30,
)


class TestStoreInvariants:
    """Stores derived through the trusted internal constructor
    (`joined_bind`, `join`, `restrict`) keep the invariants the public
    constructor establishes: no bottom entry, and a cached hash equal
    to the one a freshly built equal store computes (`joined_bind` and
    `join` derive theirs from the parent's)."""

    @staticmethod
    def check(store: AbsStore) -> None:
        assert not any(LAT.is_bottom(v) for _, v in store.items())
        fresh = _fresh(store)
        assert fresh == store
        assert hash(fresh) == hash(store)

    @settings(max_examples=150, deadline=None)
    @given(ops=_STORE_OPS)
    def test_derived_stores_keep_invariants(self, ops):
        stores = [AbsStore(LAT)]
        for op in ops:
            store = stores[op[1] % len(stores)]
            if op[0] == "bind":
                name, seed = f"v{op[2]}", op[3]
                # Seed 0 is a bottom value that is not LAT.bottom itself.
                value = val(seed)
                bound = name in store
                current = store.get(name)
                expect_same = bound and LAT.join(current, value) == current
                result = store.joined_bind(name, value)
                assert (result is store) == expect_same
                if not bound and LAT.is_bottom(value):
                    assert result == store
            elif op[0] == "join":
                result = store.join(stores[op[2] % len(stores)])
            else:
                result = store.restrict(op[2])
                assert set(result.variables()) == set(store.variables()) & op[2]
            self.check(result)
            stores.append(result)
        for a in stores:
            for b in stores:
                if a == b:
                    assert hash(a) == hash(b)

    @pytest.mark.parametrize("seed", range(20))
    def test_join_derives_the_fresh_hash(self, seed):
        """Joins of stores that bind the same names to different
        values, so `join` must update the hashes of changed entries;
        an ``other`` that adds nothing returns ``self``."""
        rng = random.Random(f"abs-store-join/{seed}")
        stores = [AbsStore(LAT)]
        for _ in range(30):
            store = rng.choice(stores)
            stores.append(
                store.joined_bind(f"v{rng.randrange(5)}", val(rng.randrange(24)))
            )
        for a in stores[::3]:
            for b in stores[::3]:
                result = a.join(b)
                self.check(result)
                if b.leq(a):
                    assert result is a

    def test_bind_bottom_to_unbound_returns_fresh_equal_store(self):
        store = AbsStore(LAT, {"y": LAT.of_const(1)})
        result = store.joined_bind("x", AbsVal(BOT))
        assert result is not store
        assert result == store and hash(result) == hash(store)
        assert "x" not in result
