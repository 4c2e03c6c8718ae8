"""Abstract values: the product lattice of Sections 4.1-4.2.

An `AbsVal` pairs an abstract number with a set of abstract closures
and (for the syntactic-CPS analyzer) a set of abstract continuations::

    direct / semantic-CPS :  Num~ x P(Clo~)
    syntactic-CPS         :  Num~ x P(Clo~) x P(Con~)

Ordering and join are componentwise: the number component by the
`NumDomain`, the set components by inclusion/union.  The `Lattice`
helper bundles a domain with these operations so analyzers and stores
share one implementation.

The closure/continuation set members are opaque hashable tokens (the
analysis layer supplies ``(cle x, M)`` records, ``inc``/``dec`` tags,
``(coe x, P)`` records and ``stop``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.domains.protocol import NumDomain

EMPTY: frozenset = frozenset()


@dataclass(frozen=True, slots=True)
class AbsVal:
    """An abstract value: number x closures x continuations."""

    num: Hashable
    clos: frozenset = EMPTY
    konts: frozenset = EMPTY
    #: Lazily cached hash.  Abstract values are hashed constantly —
    #: every store hash folds in its entries — and the componentwise
    #: hash walks two frozensets, so caching it is a large win for
    #: both store flavors (name-keyed and slot-addressed).
    _hash: "int | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.clos, self.konts))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        # Rebuild through the constructor: a pickled ``_hash`` would be
        # stale in a process with another string-hash seed.
        return AbsVal, (self.num, self.clos, self.konts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [repr(self.num)]
        parts.append("{" + ", ".join(sorted(map(str, self.clos))) + "}")
        if self.konts:
            parts.append("{" + ", ".join(sorted(map(str, self.konts))) + "}")
        return "(" + ", ".join(parts) + ")"


class Lattice:
    """Componentwise lattice operations on `AbsVal`, for a fixed domain."""

    __slots__ = ("domain", "bottom")

    def __init__(self, domain: NumDomain) -> None:
        self.domain = domain
        #: The least abstract value.
        self.bottom = AbsVal(domain.bottom, EMPTY, EMPTY)

    def of_const(self, n: int) -> AbsVal:
        """Abstract a numeric literal."""
        return AbsVal(self.domain.const(n), EMPTY, EMPTY)

    def of_num(self, num: Hashable) -> AbsVal:
        """Inject a bare abstract number."""
        return AbsVal(num, EMPTY, EMPTY)

    def of_clos(self, *clos: Hashable) -> AbsVal:
        """Inject a set of abstract closures."""
        return AbsVal(self.domain.bottom, frozenset(clos), EMPTY)

    def of_konts(self, *konts: Hashable) -> AbsVal:
        """Inject a set of abstract continuations."""
        return AbsVal(self.domain.bottom, EMPTY, frozenset(konts))

    def join(self, a: AbsVal, b: AbsVal) -> AbsVal:
        """Componentwise least upper bound, keeping identity.

        Returns ``a`` itself exactly when ``b`` ⊑ ``a``, and otherwise
        ``b`` itself when ``a`` ⊑ ``b``; only a join that strictly
        grows past both operands builds a new `AbsVal`.  Callers may
        therefore test "did the join change ``a``?" with ``is``.
        """
        if a is b:
            return a
        num = self.domain.join(a.num, b.num)
        a_clos, b_clos = a.clos, b.clos
        a_konts, b_konts = a.konts, b.konts
        if num == a.num and b_clos <= a_clos and b_konts <= a_konts:
            return a
        if num == b.num and a_clos <= b_clos and a_konts <= b_konts:
            return b
        return AbsVal(num, a_clos | b_clos, a_konts | b_konts)

    def join_all(self, values: "list[AbsVal] | tuple[AbsVal, ...]") -> AbsVal:
        """Join of a (possibly empty) collection."""
        result = self.bottom
        for value in values:
            result = self.join(result, value)
        return result

    def leq(self, a: AbsVal, b: AbsVal) -> bool:
        """Componentwise order: ``a`` at least as precise as ``b``."""
        return (
            self.domain.leq(a.num, b.num)
            and a.clos <= b.clos
            and a.konts <= b.konts
        )

    def is_bottom(self, a: AbsVal) -> bool:
        """True when ``a`` carries no information at all."""
        return (
            not a.clos and not a.konts and self.domain.is_bottom(a.num)
        )
