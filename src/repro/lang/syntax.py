"""Structural utilities over A terms.

Free/bound variable computation, binder collection, the unique-binder
invariant check that the paper's analyses presuppose, subterm
iteration, and term size.
"""

from __future__ import annotations

from typing import Iterator

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
    Var,
)
from repro.lang.errors import ScopeError


def subterms(term: Term) -> Iterator[Term]:
    """Yield ``term`` and all of its subterms, pre-order."""
    stack = [term]
    while stack:
        current = stack.pop()
        yield current
        match current:
            case Lam(_, body):
                stack.append(body)
            case App(fun, arg):
                stack.extend((arg, fun))
            case Let(_, rhs, body):
                stack.extend((body, rhs))
            case If0(test, then, orelse):
                stack.extend((orelse, then, test))
            case PrimApp(_, args):
                stack.extend(reversed(args))
            case _:
                pass


def term_size(term: Term) -> int:
    """Return the number of AST nodes in ``term``."""
    return sum(1 for _ in subterms(term))


#: Stack markers of the scope-tracking walks: the name under the
#: marker enters or leaves the scope of its binder.
_ENTER = object()
_LEAVE = object()


def free_variables(term: Term) -> frozenset[str]:
    """Return the set of free variable names of ``term``."""
    free: set[str] = set()
    scope: dict[str, int] = {}  # name -> binders of it around the node
    stack: list = [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            if node.name not in scope:
                free.add(node.name)
        elif kind is Let:
            # The right-hand side is outside the binder's scope.
            stack += (node.name, _LEAVE, node.body, node.name, _ENTER, node.rhs)
        elif kind is Lam:
            stack += (node.param, _LEAVE, node.body, node.param, _ENTER)
        elif node is _ENTER:
            name = stack.pop()
            scope[name] = scope.get(name, 0) + 1
        elif node is _LEAVE:
            name = stack.pop()
            if scope[name] == 1:
                del scope[name]
            else:
                scope[name] -= 1
        else:
            _push_children(stack, node, kind)
    return frozenset(free)


def _push_children(stack: list, node: object, kind: type) -> None:
    """Push the subterms of a node that binds nothing, last one first
    (so they pop in source order); `TypeError` on a non-term."""
    if kind is App:
        stack += (node.arg, node.fun)
    elif kind is If0:
        stack += (node.orelse, node.then, node.test)
    elif kind is PrimApp:
        stack.extend(reversed(node.args))
    elif kind is not Num and kind is not Prim and kind is not Loop:
        raise TypeError(f"not an A term: {node!r}")


def binders(term: Term) -> list[str]:
    """Return every binder occurrence (lambda params and let names), in
    pre-order, with duplicates preserved."""
    found: list[str] = []
    for sub in subterms(term):
        match sub:
            case Lam(param, _):
                found.append(param)
            case Let(name, _, _):
                found.append(name)
            case _:
                pass
    return found


def bound_variables(term: Term) -> frozenset[str]:
    """Return the set of names bound anywhere in ``term``."""
    return frozenset(binders(term))


def has_unique_binders(term: Term) -> bool:
    """True when every binder in ``term`` binds a distinct name and no
    binder shadows a free variable.

    This is the paper's standing assumption ("all bound variables in a
    program are unique"); the analyzers rely on it to use variables as
    abstract locations.
    """
    bound: set[str] = set()  # every binder met so far
    free: set[str] = set()  # every name met free so far
    in_scope: set[str] = set()  # the binders around the current node
    shadows = False
    not_a_term: TypeError | None = None
    stack: list = [term]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Var:
            if node.name not in in_scope:
                free.add(node.name)
                shadows = shadows or node.name in bound
        elif kind is Let:
            stack += (node.name, _LEAVE, node.body, node.name, _ENTER, node.rhs)
        elif kind is Lam:
            stack += (node.param, _LEAVE, node.body, node.param, _ENTER)
        elif node is _ENTER:
            name = stack.pop()
            if name in bound:
                return False
            bound.add(name)
            in_scope.add(name)
            shadows = shadows or name in free
        elif node is _LEAVE:
            in_scope.discard(stack.pop())
        else:
            try:
                _push_children(stack, node, kind)
            except TypeError as error:
                # A duplicated binder anywhere still answers False.
                not_a_term = not_a_term or error
    if not_a_term is not None:
        raise not_a_term
    return not shadows


def check_closed(term: Term, allowed: frozenset[str] = frozenset()) -> None:
    """Raise `ScopeError` unless all free variables are in ``allowed``."""
    extra = free_variables(term) - allowed
    if extra:
        raise ScopeError(f"unbound variables: {sorted(extra)}")
