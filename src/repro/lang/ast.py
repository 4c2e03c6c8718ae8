"""Abstract syntax of the source language A (paper Section 2).

The grammar of the full language is::

    M ::= V | (M M) | (let (x M) M) | (if0 M M M)
        | (op M ... M)            -- second-class primitive application
        | (loop)                  -- Section 6.2 looping construct
    V ::= n | x | add1 | sub1 | (lambda (x) M)

``add1`` and ``sub1`` are *first-class* primitive procedures exactly as
in the paper (they may flow into higher-order positions and appear in
abstract closure sets as the ``inc``/``dec`` tags).  The n-ary operators
``+``, ``-`` and ``*`` are *second-class*: they only occur fully
applied.  The paper uses ``(+ a1 3)`` in the witness program of
Theorem 5.2 as an "obvious abbreviation"; `PrimApp` is the direct
rendering of that abbreviation.  ``loop`` is the paper's Section 6.2
construct whose exact collecting semantics is the infinite set
``{0, 1, 2, ...}``.

All node classes are immutable (frozen dataclasses) and hashable, so
that—after the unique-binder renaming pass—structural equality
identifies program points, which is how the paper uses bound variables
as labels.  A compound node computes its structural hash once and keeps
it (`cached_hash`); nodes are not interned, since the analyzers key
program positions on ``id(term)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Union

#: Names of the first-class unary primitives.
FIRST_CLASS_PRIMS = ("add1", "sub1")

#: Names of the second-class n-ary operators and their arities.
SECOND_CLASS_OPS = {"+": 2, "-": 2, "*": 2}


def hash_slot():
    """The ``_hash`` field of a `cached_hash` class: a slot outside
    ``__init__``, equality and ``repr``, empty until the first hash."""
    return field(default=None, init=False, repr=False, compare=False)


def cached_hash(cls):
    """Give the frozen dataclass ``cls``, which declares
    ``_hash: int | None = hash_slot()``, a hash computed once and kept.

    A compound node's generated hash re-hashes its whole subtree on
    every call; the cached one equals it, the hash of the tuple of the
    ``__init__`` fields in definition order, so set orders and digests
    do not move.  The value folds in string hashes, which depend on
    ``PYTHONHASHSEED``, so ``__reduce__`` rebuilds through the
    constructor and a pickle never carries it (after
    `repro.domains.absval.AbsVal`).  The first hash recurses once per
    level into children that have none yet, as the generated one did;
    the front end (`repro.api.prepare`) fills a program's hashes under
    its recursion headroom, so later hashes do not recurse.
    """
    names = tuple(f.name for f in fields(cls) if f.init)
    if len(names) > 1:
        key = attrgetter(*names)
    else:
        (name,) = names

        def key(node):
            return (getattr(node, name),)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(key(self))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return type(self), key(self)

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


@dataclass(frozen=True, slots=True)
class Num:
    """A numeral ``n``."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise TypeError(f"Num requires an int, got {self.value!r}")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Var:
    """A variable reference ``x``."""

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@dataclass(frozen=True, slots=True)
class Prim:
    """A first-class primitive procedure: ``add1`` or ``sub1``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in FIRST_CLASS_PRIMS:
            raise ValueError(
                f"unknown primitive {self.name!r}; expected one of {FIRST_CLASS_PRIMS}"
            )

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.name


@cached_hash
@dataclass(frozen=True, slots=True)
class Lam:
    """A user-defined procedure ``(lambda (x) M)``."""

    param: str
    body: "Term"
    _hash: "int | None" = hash_slot()

    def __post_init__(self) -> None:
        if not self.param:
            raise ValueError("lambda parameter must be non-empty")


@cached_hash
@dataclass(frozen=True, slots=True)
class App:
    """A procedure application ``(M M)``."""

    fun: "Term"
    arg: "Term"
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class Let:
    """A let expression ``(let (x M) M)``."""

    name: str
    rhs: "Term"
    body: "Term"
    _hash: "int | None" = hash_slot()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("let-bound name must be non-empty")


@cached_hash
@dataclass(frozen=True, slots=True)
class If0:
    """A conditional ``(if0 M M M)``.

    Branches to ``then`` when the test evaluates to ``0`` and to
    ``orelse`` otherwise (any non-zero number or a procedure).
    """

    test: "Term"
    then: "Term"
    orelse: "Term"
    _hash: "int | None" = hash_slot()


@cached_hash
@dataclass(frozen=True, slots=True)
class PrimApp:
    """A fully-applied second-class operator ``(op M ... M)``.

    Only the binary arithmetic operators ``+``, ``-``, ``*`` exist; the
    node stores an argument tuple so the arity lives in one place.
    """

    op: str
    args: tuple["Term", ...]
    _hash: "int | None" = hash_slot()

    def __post_init__(self) -> None:
        arity = SECOND_CLASS_OPS.get(self.op)
        if arity is None:
            raise ValueError(
                f"unknown operator {self.op!r}; expected one of {sorted(SECOND_CLASS_OPS)}"
            )
        if len(self.args) != arity:
            raise ValueError(
                f"operator {self.op!r} takes {arity} arguments, got {len(self.args)}"
            )


@dataclass(frozen=True, slots=True)
class Loop:
    """The Section 6.2 looping construct ``(loop)``.

    Concretely it diverges (it abbreviates ``x := 0; while true x := x+1``);
    its exact collecting semantics is the infinite set ``{0, 1, 2, ...}``.
    """


#: Syntactic values of A.
Value = Union[Num, Var, Prim, Lam]

#: All terms of A.
Term = Union[Num, Var, Prim, Lam, App, Let, If0, PrimApp, Loop]

#: Classes in `Value`, for isinstance checks.
VALUE_CLASSES = (Num, Var, Prim, Lam)

#: Classes in `Term`, for isinstance checks.
TERM_CLASSES = (Num, Var, Prim, Lam, App, Let, If0, PrimApp, Loop)


def is_value(term: Term) -> bool:
    """Return True when ``term`` is a syntactic value of A."""
    return isinstance(term, VALUE_CLASSES)
