"""Abstract value domains (paper Section 4).

The paper instantiates its analyzers at the product of the constant
propagation lattice and the powerset of abstract closures (plus, for
the syntactic-CPS analyzer, the powerset of abstract continuations).
This package factors the *number* part of that product into a
pluggable `NumDomain`, so that Theorem 5.4's distributive/
non-distributive dichotomy is directly testable:

- :class:`ConstPropDomain` — the paper's N⊥⊤ constant lattice (the
  canonical non-distributive analysis);
- :class:`UnitDomain` — a two-point reachability lattice carrying no
  numeric information (pure 0CFA control-flow analysis);
- :class:`ParityDomain`, :class:`SignDomain` — classic finite
  abstractions, used in ablations;
- :class:`IntervalDomain` — intervals with bounds clamped to a finite
  range, keeping the lattice finite-height without widening machinery.

All domains have finite height, which the Section 4.4 termination
argument requires.
"""

from repro.domains.absval import AbsVal, Lattice
from repro.domains.constprop import ConstPropDomain
from repro.domains.interval import IntervalDomain
from repro.domains.parity import ParityDomain
from repro.domains.protocol import NumDomain
from repro.domains.sign import SignDomain
from repro.domains.store import AbsStore
from repro.domains.unit import UnitDomain

#: The domains by the name every front end (CLI ``--domain``, serve
#: ``"domain"``) spells them, in that vocabulary's order.
DOMAINS: dict[str, type[NumDomain]] = {
    "constprop": ConstPropDomain,
    "unit": UnitDomain,
    "parity": ParityDomain,
    "sign": SignDomain,
    "interval": IntervalDomain,
}

__all__ = [
    "DOMAINS",
    "NumDomain",
    "ConstPropDomain",
    "UnitDomain",
    "ParityDomain",
    "SignDomain",
    "IntervalDomain",
    "AbsVal",
    "AbsStore",
    "Lattice",
]
