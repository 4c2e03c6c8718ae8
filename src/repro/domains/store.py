"""Abstract stores (paper Section 4.1).

After the 0CFA abstraction, every variable has exactly one location —
the variable itself — and the store maps each variable to the join of
all values bound to it.  Abstract stores are immutable and hashable:
``(term, store)`` pairs key the Section 4.4 loop detection, and store
equality is how loops are recognized.

Entries whose value is bottom are normalized away, so a store that
never bound ``x`` equals one that bound it to bottom.  The public
constructor establishes that invariant by checking every entry; the
operations that derive a store from a bottom-free one (`joined_bind`,
`join`, `restrict`, `SlotStore.to_abs_store`) keep it by construction
and go through the private ``_trusted`` constructor instead, so a bind
checks only the entry it touches.

A store's hash is the sum of ``hash((name, value))`` over its entries,
modulo 2**61.  The sum does not depend on iteration order, so equal
tables hash equal, and `joined_bind` derives the child's hash from the
parent's in O(1): subtract the old entry's hash, add the new one's.
`join` does the same for each entry it changes.
`SlotStore` hashes the same way, with slots in place of names.
"""

from __future__ import annotations

from itertools import compress, count
from operator import is_not
from typing import Iterable, Iterator, Mapping

from repro.domains.absval import AbsVal, Lattice

#: Modulus of the order-independent store hash.
_HASH_MOD = 1 << 61


class AbsStore:
    """An immutable, hashable map from variables to abstract values."""

    __slots__ = ("_lattice", "_table", "_hash")

    def __init__(
        self,
        lattice: Lattice,
        table: Mapping[str, AbsVal] | None = None,
    ) -> None:
        self._lattice = lattice
        cleaned: dict[str, AbsVal] = {}
        if table:
            for name, value in table.items():
                if not lattice.is_bottom(value):
                    cleaned[name] = value
        self._table = cleaned
        self._hash: int | None = None

    @classmethod
    def _trusted(
        cls,
        lattice: Lattice,
        table: dict[str, AbsVal],
        hash_: int | None = None,
    ) -> "AbsStore":
        """A store over ``table``, which must hold no bottom value and
        is owned by the store from here on (never mutated again).
        ``hash_``, when given, must equal the table's store hash."""
        store = cls.__new__(cls)
        store._lattice = lattice
        store._table = table
        store._hash = hash_
        return store

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    @property
    def lattice(self) -> Lattice:
        """The lattice this store's values belong to."""
        return self._lattice

    def get(self, name: str) -> AbsVal:
        """The value of ``name``; bottom when never bound."""
        return self._table.get(name, self._lattice.bottom)

    def variables(self) -> Iterator[str]:
        """Iterate over the variables with a non-bottom entry."""
        return iter(self._table)

    def items(self) -> Iterator[tuple[str, AbsVal]]:
        """Iterate over (variable, value) pairs."""
        return iter(self._table.items())

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._table)

    # ------------------------------------------------------------------
    # Lattice structure
    # ------------------------------------------------------------------

    def joined_bind(self, name: str, value: AbsVal) -> "AbsStore":
        """The paper's ``sigma[x := sigma(x) u u]`` update.

        Returns ``self`` exactly when ``name`` is bound and the join
        leaves its value unchanged; the analyzers' widening counts
        depend on that identity.
        """
        lattice = self._lattice
        table = self._table
        current = table.get(name)
        if current is None:
            joined = lattice.join(lattice.bottom, value)
        else:
            joined = lattice.join(current, value)
            if joined is current:
                return self
        parent_hash = hash(self)
        if current is None:
            if lattice.is_bottom(joined):
                # Binding bottom to an unbound name: a fresh store,
                # equal to this one.
                return AbsStore._trusted(lattice, table, parent_hash)
            child_hash = parent_hash + hash((name, joined))
        else:
            # The join of a non-bottom value is never bottom.
            child_hash = (
                parent_hash - hash((name, current)) + hash((name, joined))
            )
        table = dict(table)
        table[name] = joined
        return AbsStore._trusted(lattice, table, child_hash % _HASH_MOD)

    def join(self, other: "AbsStore") -> "AbsStore":
        """Pointwise least upper bound of two stores.

        Returns ``self`` when ``other`` adds nothing to it.  Otherwise
        only the entries whose join is not the old value itself (see
        `Lattice.join`) are written, and the result's hash is derived
        from ``self``'s the way `joined_bind` derives it.
        """
        if self is other or not other._table:
            return self
        mine = self._table
        if not mine:
            return other
        join = self._lattice.join
        table = None
        h = hash(self)
        for name, value in other._table.items():
            existing = mine.get(name)
            if existing is None:
                joined = value
                h += hash((name, value))
            else:
                joined = join(existing, value)
                if joined is existing:
                    continue
                h += hash((name, joined)) - hash((name, existing))
            if table is None:
                table = dict(mine)
            table[name] = joined
        if table is None:
            return self
        return AbsStore._trusted(self._lattice, table, h % _HASH_MOD)

    def leq(self, other: "AbsStore") -> bool:
        """Pointwise order: every entry at least as precise in ``other``."""
        if self is other:
            return True
        for name, value in self._table.items():
            if not self._lattice.leq(value, other.get(name)):
                return False
        return True

    def restrict(self, names: Iterable[str]) -> "AbsStore":
        """The store restricted to ``names`` (used by comparisons that
        must ignore continuation-variable entries)."""
        wanted = (
            names if isinstance(names, (set, frozenset)) else set(names)
        )
        return AbsStore._trusted(
            self._lattice,
            {n: v for n, v in self._table.items() if n in wanted},
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbsStore):
            return NotImplemented
        return self._table == other._table

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = sum(map(hash, self._table.items())) % _HASH_MOD
        return h

    def __reduce__(self):
        # Rebuild through the constructor, without the cached hash (it
        # depends on the process's string-hash seed).
        return AbsStore, (self._lattice, self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name} -> {value!r}" for name, value in sorted(self._table.items())
        )
        return f"AbsStore({inner})"


class SlotStore:
    """A slot-addressed abstract store for the compiled (plan) engine.

    Same lattice semantics as `AbsStore`, but variables have been
    resolved to dense integer slots at plan-compile time (the
    unique-binder invariant makes the mapping total), so the table is a
    flat tuple indexed by slot: O(1) reads and O(n) copy-on-write
    updates with no hashing of names.

    Every unbound slot holds the lattice's own ``bottom`` object, so
    "is this slot bottom" is an identity test.  The constructor's
    callers establish that invariant (no other bottom-equal value in
    ``vals``); `joined_bind` and `join` keep it.  ``size`` counts the
    non-bottom slots so `__len__` agrees with the equivalent
    `AbsStore`.

    The hash follows `AbsStore`: the sum of ``hash((slot, value))``
    over the non-bottom slots, modulo 2**61.  `joined_bind` derives the
    child's hash from the parent's in O(1), and `join` from the slots
    it changed, so keying the Section 4.4 loop detection on a new store
    never re-hashes the whole tuple.  A ``hash_`` given to the
    constructor must equal that sum.

    Because `Lattice.join` returns an operand whenever the join adds
    nothing to it, "unchanged" is an identity test here too: `join`
    finds the slots whose values are different objects at C speed,
    visits only those, and skips any whose join is the old value.

    The identity contract mirrors `AbsStore` exactly — `joined_bind`
    returns ``self`` iff the variable was already bound (non-bottom)
    and the join did not change it — because the analyzers' widening
    statistics are keyed on that identity.
    """

    __slots__ = ("_lattice", "vals", "size", "_hash")

    def __init__(
        self,
        lattice: Lattice,
        vals: tuple[AbsVal, ...],
        size: int,
        hash_: int | None = None,
    ) -> None:
        self._lattice = lattice
        self.vals = vals
        self.size = size
        self._hash = hash_

    @property
    def lattice(self) -> Lattice:
        """The lattice this store's values belong to."""
        return self._lattice

    def get(self, slot: int) -> AbsVal:
        """The value at ``slot``; bottom when never bound."""
        return self.vals[slot]

    def __len__(self) -> int:
        return self.size

    def joined_bind(self, slot: int, value: AbsVal) -> "SlotStore":
        """The paper's ``sigma[x := sigma(x) u u]`` update, by slot."""
        lattice = self._lattice
        bottom = lattice.bottom
        current = self.vals[slot]
        if current is bottom:
            if value is bottom or lattice.is_bottom(value):
                # Binding bottom to an unbound slot: a fresh store,
                # equal to this one.
                return SlotStore(lattice, self.vals, self.size, self._hash)
            joined = value
            size = self.size + 1
            delta = hash((slot, value))
        else:
            # The join of a non-bottom value is never bottom.
            joined = lattice.join(current, value)
            if joined is current:
                return self
            size = self.size
            delta = hash((slot, joined)) - hash((slot, current))
        vals = list(self.vals)
        vals[slot] = joined
        return SlotStore(
            lattice, tuple(vals), size, (hash(self) + delta) % _HASH_MOD
        )

    def join(self, other: "SlotStore") -> "SlotStore":
        """Pointwise least upper bound of two stores; ``self`` when
        ``other`` adds nothing to it."""
        if self is other or other.size == 0:
            return self
        if self.size == 0:
            return other
        lattice = self._lattice
        bottom = lattice.bottom
        join = lattice.join
        mine, theirs = self.vals, other.vals
        vals = None
        size = self.size
        h = hash(self)
        for slot in compress(count(), map(is_not, mine, theirs)):
            a, b = mine[slot], theirs[slot]
            if b is bottom:
                continue
            if a is bottom:
                joined = b
                size += 1
                h += hash((slot, b))
            else:
                joined = join(a, b)
                if joined is a:
                    continue
                h += hash((slot, joined)) - hash((slot, a))
            if vals is None:
                vals = list(mine)
            vals[slot] = joined
        if vals is None:
            return self
        return SlotStore(lattice, tuple(vals), size, h % _HASH_MOD)

    def to_abs_store(self, slot_names: tuple[str, ...]) -> AbsStore:
        """The equivalent name-keyed `AbsStore` (for results and the
        differential suite)."""
        bottom = self._lattice.bottom
        return AbsStore._trusted(
            self._lattice,
            {
                slot_names[i]: v
                for i, v in enumerate(self.vals)
                if v is not bottom
            },
        )

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SlotStore):
            return NotImplemented
        return self.vals == other.vals

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            bottom = self._lattice.bottom
            h = self._hash = sum(
                hash((slot, v))
                for slot, v in enumerate(self.vals)
                if v is not bottom
            ) % _HASH_MOD
        return h

    def __reduce__(self):
        # As `AbsStore.__reduce__`: the cached hash is not pickled.
        return SlotStore, (self._lattice, self.vals, self.size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bottom = self._lattice.bottom
        inner = ", ".join(
            f"{i} -> {v!r}" for i, v in enumerate(self.vals) if v is not bottom
        )
        return f"SlotStore({inner})"
