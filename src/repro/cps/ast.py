"""Abstract syntax of cps(A) (paper Definition 3.2).

The grammar distinguishes *serious terms* ``P`` (the control string)
from *trivial values* ``W``.  Continuation lambdas ``(lambda (x) P)``
are a third syntactic category (`KLam`): they are not values of the
language — they only appear as the continuation argument of a call or
bound to a continuation variable at a conditional — which is exactly
what lets the syntactic-CPS interpreter represent them specially as
``(co x, P, rho)`` records rather than closures.

Extended (as in the source language) with second-class operator
bindings ``(let (x (op W W)) P)`` and the Section 6.2 looping
construct ``(loop (lambda (x) P))``, which passes every natural number
to its continuation and never returns.

As in `repro.lang.ast`, every compound node keeps its structural hash
(`cached_hash`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.lang.ast import SECOND_CLASS_OPS, cached_hash, hash_slot

#: Names of the CPS first-class primitives.
CPS_PRIMS = ("add1k", "sub1k")


@dataclass(frozen=True, slots=True)
class CNum:
    """A numeral ``n``."""

    value: int


@dataclass(frozen=True, slots=True)
class CVar:
    """A (source) variable reference ``x``."""

    name: str


@dataclass(frozen=True, slots=True)
class CPrim:
    """A CPS primitive procedure: ``add1k`` or ``sub1k``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in CPS_PRIMS:
            raise ValueError(
                f"unknown CPS primitive {self.name!r}; expected one of {CPS_PRIMS}"
            )


@cached_hash
@dataclass(frozen=True, slots=True)
class CLam:
    """A user procedure ``(lambda (x k) P)`` taking a value and a
    continuation."""

    param: str
    kparam: str
    body: "CTerm"
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class KLam:
    """A continuation lambda ``(lambda (x) P)``.

    Not a value of cps(A): occurs only as the continuation argument of
    a `CApp`, bound at a `CIf0`, or as the receiver of a `CLoop`.
    """

    param: str
    body: "CTerm"
    _hash: "int | None" = hash_slot()


#: Trivial terms W.
CValue = Union[CNum, CVar, CPrim, CLam]

#: Classes in `CValue`, for isinstance checks.
CVALUE_CLASSES = (CNum, CVar, CPrim, CLam)


@cached_hash
@dataclass(frozen=True, slots=True)
class KApp:
    """A return ``(k W)``: invoke the continuation bound to ``k``."""

    kvar: str
    value: CValue
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class CLet:
    """A binding ``(let (x W) P)``."""

    name: str
    value: CValue
    body: "CTerm"
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class CApp:
    """A call ``(W W (lambda (x) P))`` with an explicit continuation."""

    fun: CValue
    arg: CValue
    kont: KLam
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class CIf0:
    """A conditional ``(let (k (lambda (x) P)) (if0 W P P))``.

    The join continuation is named once and both branches return
    through it (via ``(k W)`` at their leaves).
    """

    kvar: str
    kont: KLam
    test: CValue
    then: "CTerm"
    orelse: "CTerm"
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class CPrimLet:
    """A second-class operator binding ``(let (x (op W W)) P)``."""

    name: str
    op: str
    args: tuple[CValue, ...]
    body: "CTerm"
    _hash: "int | None" = hash_slot()

    def __post_init__(self) -> None:
        arity = SECOND_CLASS_OPS.get(self.op)
        if arity is None:
            raise ValueError(f"unknown operator {self.op!r}")
        if len(self.args) != arity:
            raise ValueError(
                f"operator {self.op!r} takes {arity} arguments, got {len(self.args)}"
            )


@cached_hash
@dataclass(frozen=True, slots=True)
class CLoop:
    """The looping construct ``(loop (lambda (x) P))``.

    Concretely it diverges; its collecting semantics passes every
    natural number to the continuation (paper Section 6.2).
    """

    kont: KLam
    _hash: "int | None" = hash_slot()


#: Serious terms P.
CTerm = Union[KApp, CLet, CApp, CIf0, CPrimLet, CLoop]

#: Classes in `CTerm`, for isinstance checks.
CTERM_CLASSES = (KApp, CLet, CApp, CIf0, CPrimLet, CLoop)


def c_value_of(term: object) -> bool:
    """True when ``term`` is a trivial (W) term of cps(A)."""
    return isinstance(term, CVALUE_CLASSES)
