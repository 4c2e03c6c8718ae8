"""A-normalization: flatten A terms into the restricted subset.

The normalization performs the two phases the paper describes
(Section 2, footnote 2):

1. *Naming*: every intermediate result receives a ``let``-bound name,
   so the data flow analyzers can associate information with the name
   instead of with an expression label.
2. *Re-ordering*: expressions are sequenced in the order the
   interpreters traverse them, e.g. ``(add1 (let (x V) 0))`` becomes
   ``(let (x V) (let (t (add1 0)) t))``.

The implementation is the standard higher-order one-pass normalizer
(`norm` threads a meta-level continuation that receives the atomic
value of the expression being normalized).
"""

from __future__ import annotations

from typing import Callable

from repro.lang.ast import (
    App,
    If0,
    Lam,
    Let,
    Loop,
    Num,
    Prim,
    PrimApp,
    Term,
    Value,
    Var,
    is_value,
)
from repro.lang.rename import NameSupply, fresh_name_supply, uniquify
from repro.lang.syntax import free_variables

#: A meta-continuation: receives an atomic value, returns the rest of
#: the normalized term.
_Kont = Callable[[Value], Term]


def normalize(term: Term, ensure_unique: bool = True) -> Term:
    """Return the A-normal form of ``term``.

    When ``ensure_unique`` is true (the default) the term is first
    alpha-renamed so all binders are distinct, which the restricted
    subset requires.  The result satisfies
    :func:`repro.anf.validate.validate_anf` and is semantically
    equivalent to the input (a property the test suite checks against
    the direct interpreter).
    """
    if ensure_unique:
        # One supply for both passes.  After renaming it holds the free
        # variables and every binder it made, which are exactly the
        # names of the renamed term; its counters only skip names it
        # holds, so `_norm` gets the names a fresh supply would give.
        supply = NameSupply(free_variables(term))
        term = uniquify(term, supply)
    else:
        supply = fresh_name_supply(term)
    return _norm(term, lambda value: value, supply)


def _norm(term: Term, kont: _Kont, supply: NameSupply) -> Term:
    """Normalize ``term`` and pass its atomic value to ``kont``."""
    if is_value(term):
        return kont(_norm_value(term, supply))
    if isinstance(term, Let):
        return _norm_bind(
            term.rhs,
            term.name,
            lambda: _norm(term.body, kont, supply),
            supply,
        )
    name = supply.fresh("t")
    return _norm_bind(term, name, lambda: kont(Var(name)), supply)


def _norm_bind(
    rhs: Term, name: str, rest: Callable[[], Term], supply: NameSupply
) -> Term:
    """Produce ``(let (name <rhs>) <rest()>)`` with ``rhs`` flattened."""
    if is_value(rhs):
        return Let(name, _norm_value(rhs, supply), rest())
    match rhs:
        case App(fun, arg):
            return _norm(
                fun,
                lambda fun_v: _norm(
                    arg,
                    lambda arg_v: Let(name, App(fun_v, arg_v), rest()),
                    supply,
                ),
                supply,
            )
        case PrimApp(op, args):
            return _norm_args(
                list(args),
                [],
                lambda atoms: Let(name, PrimApp(op, tuple(atoms)), rest()),
                supply,
            )
        case If0(test, then, orelse):
            return _norm(
                test,
                lambda test_v: Let(
                    name,
                    If0(
                        test_v,
                        _norm(then, lambda v: v, supply),
                        _norm(orelse, lambda v: v, supply),
                    ),
                    rest(),
                ),
                supply,
            )
        case Let(inner_name, inner_rhs, inner_body):
            return _norm_bind(
                inner_rhs,
                inner_name,
                lambda: _norm_bind(inner_body, name, rest, supply),
                supply,
            )
        case Loop():
            return Let(name, Loop(), rest())
    raise TypeError(f"not an A term: {rhs!r}")


def _norm_args(
    pending: list[Term],
    done: list[Value],
    finish: Callable[[list[Value]], Term],
    supply: NameSupply,
) -> Term:
    """Normalize ``pending`` left to right, collecting atomic values."""
    if not pending:
        return finish(done)
    head, *tail = pending
    return _norm(
        head,
        lambda value: _norm_args(tail, done + [value], finish, supply),
        supply,
    )


def _norm_value(value: Term, supply: NameSupply) -> Value:
    """Normalize inside a syntactic value (i.e. under a lambda)."""
    match value:
        case Num() | Var() | Prim():
            return value
        case Lam(param, body):
            return Lam(param, _norm(body, lambda v: v, supply))
    raise TypeError(f"not a value: {value!r}")
