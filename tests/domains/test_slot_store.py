"""Tests for `SlotStore`, the plan engines' slot-addressed store.

A slot store keeps every unbound slot as the lattice's own ``bottom``
object and derives each new store's hash from its parent's.  These
tests drive seeded random sequences of `joined_bind` and `join` over
three number domains and check, after every step, that the derived
store agrees with a from-scratch one and with the name-keyed
`AbsStore` the same binds build.  `join` visits only the slots whose
values are different objects; every join is also checked against a
reference that walks all the slots.
"""

import random

import pytest

from repro.analysis.common import A_DEC, A_INC, A_STOP
from repro.domains import (
    AbsStore,
    AbsVal,
    ConstPropDomain,
    IntervalDomain,
    Lattice,
    SignDomain,
)
from repro.domains.store import SlotStore

DOMAINS = {
    "constprop": ConstPropDomain,
    "sign": SignDomain,
    "interval": IntervalDomain,
}

SLOTS = 6
NAMES = tuple(f"v{i}" for i in range(SLOTS))


def _values(lattice: Lattice) -> list[AbsVal]:
    """A small pool of values, with bottom-equal copies that are not
    ``lattice.bottom`` itself."""
    domain = lattice.domain
    nums = [
        domain.bottom,
        domain.const(0),
        domain.const(1),
        domain.const(-3),
        domain.const(7),
        domain.top,
    ]
    closures = [frozenset(), frozenset({A_INC}), frozenset({A_INC, A_DEC})]
    konts = [frozenset(), frozenset({A_STOP})]
    pool = [lattice.bottom]
    for num in nums:
        for clos in closures:
            for kont in konts:
                pool.append(AbsVal(num, clos, kont))
    return pool


def _slot_store(lattice: Lattice, table: dict[int, AbsVal]) -> SlotStore:
    """A store over non-bottom ``table`` entries, built the way the
    plan engines build their initial store."""
    vals = [lattice.bottom] * SLOTS
    for slot, value in table.items():
        vals[slot] = value
    return SlotStore(lattice, tuple(vals), len(table))


def _dense_join(store: SlotStore, other: SlotStore) -> SlotStore:
    """Reference join that walks every slot of both stores and writes
    every slot whose values differ."""
    if store is other or other.size == 0:
        return store
    if store.size == 0:
        return other
    lattice = store.lattice
    bottom = lattice.bottom
    vals = list(store.vals)
    size = store.size
    h = hash(store)
    for slot, (a, b) in enumerate(zip(store.vals, other.vals)):
        if a is b or b is bottom:
            continue
        if a is bottom:
            vals[slot] = b
            size += 1
            h += hash((slot, b))
        else:
            joined = vals[slot] = lattice.join(a, b)
            h += hash((slot, joined)) - hash((slot, a))
    return SlotStore(lattice, tuple(vals), size, h % (1 << 61))


def _check_join(store: SlotStore, other: SlotStore) -> SlotStore:
    """``store.join(other)``, checked against `_dense_join`."""
    lattice = store.lattice
    result = store.join(other)
    expected = _dense_join(store, other)
    assert result.vals == expected.vals
    assert result.size == expected.size
    assert hash(result) == hash(expected)
    for value, want in zip(result.vals, expected.vals):
        if lattice.is_bottom(want):
            assert value is lattice.bottom
    if result.vals == store.vals:
        # Nothing grew: the join hands back the left operand itself.
        assert result is store
    return result


def _check(store: SlotStore, mirror: AbsStore) -> None:
    lattice = store.lattice
    for value in store.vals:
        assert value is lattice.bottom or not lattice.is_bottom(value)
    assert store.size == sum(
        1 for value in store.vals if not lattice.is_bottom(value)
    )
    assert len(store) == len(mirror)
    fresh = SlotStore(lattice, store.vals, store.size)
    assert hash(fresh) == hash(store)
    assert hash(store) == sum(
        hash((slot, value))
        for slot, value in enumerate(store.vals)
        if value is not lattice.bottom
    ) % (1 << 61)
    assert store.to_abs_store(NAMES) == mirror


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("seed", range(20))
def test_random_bind_join_sequences(domain_name, seed):
    rng = random.Random(f"slot-store/{domain_name}/{seed}")
    lattice = Lattice(DOMAINS[domain_name]())
    pool = _values(lattice)
    non_bottom = [v for v in pool if not lattice.is_bottom(v)]
    start = {
        slot: rng.choice(non_bottom)
        for slot in rng.sample(range(SLOTS), rng.randint(0, 2))
    }
    stores = [_slot_store(lattice, start)]
    mirrors = [AbsStore(lattice, {NAMES[s]: v for s, v in start.items()})]
    _check(stores[0], mirrors[0])
    for _ in range(40):
        pick = rng.randrange(len(stores))
        store, mirror = stores[pick], mirrors[pick]
        if rng.random() < 0.7:
            slot, value = rng.randrange(SLOTS), rng.choice(pool)
            current = store.vals[slot]
            bound = current is not lattice.bottom
            unchanged = bound and lattice.join(current, value) == current
            result = store.joined_bind(slot, value)
            assert (result is store) == unchanged
            mirror = mirror.joined_bind(NAMES[slot], value)
        else:
            other = rng.randrange(len(stores))
            result = _check_join(store, stores[other])
            mirror = mirror.join(mirrors[other])
        _check(result, mirror)
        stores.append(result)
        mirrors.append(mirror)
    for a in stores:
        for b in stores:
            if a == b:
                assert hash(a) == hash(b)


@pytest.mark.parametrize("domain_name", sorted(DOMAINS))
@pytest.mark.parametrize("seed", range(10))
def test_join_of_sibling_stores_matches_dense_reference(domain_name, seed):
    """Stores derived from one parent share most slot objects, as the
    branches of a conditional do; joining them must visit only the
    slots that differ and still agree with the dense walk."""
    rng = random.Random(f"slot-store-join/{domain_name}/{seed}")
    lattice = Lattice(DOMAINS[domain_name]())
    pool = _values(lattice)
    parent = _slot_store(lattice, {})
    for _ in range(rng.randint(0, SLOTS)):
        parent = parent.joined_bind(rng.randrange(SLOTS), rng.choice(pool))
    siblings = [parent]
    for _ in range(6):
        child = parent
        for _ in range(rng.randint(0, 3)):
            child = child.joined_bind(rng.randrange(SLOTS), rng.choice(pool))
        siblings.append(child)
    for a in siblings:
        for b in siblings:
            _check_join(a, b)


def test_bind_bottom_to_unbound_slot_returns_fresh_equal_store():
    lattice = Lattice(ConstPropDomain())
    store = _slot_store(lattice, {1: lattice.of_const(4)})
    for bottom in (lattice.bottom, AbsVal(lattice.domain.bottom)):
        result = store.joined_bind(0, bottom)
        assert result is not store
        assert result == store and hash(result) == hash(store)
        assert result.vals[0] is lattice.bottom
        assert len(result) == 1


def test_bind_into_unbound_slot_stores_the_value_itself():
    lattice = Lattice(ConstPropDomain())
    store = _slot_store(lattice, {})
    value = lattice.of_const(2)
    assert store.joined_bind(3, value).vals[3] is value
