"""Binder hygiene: fresh-name supplies and the uniquify pass.

The paper's restricted subset requires "all bound variables in a
program are unique".  :func:`uniquify` alpha-renames an arbitrary term
to establish that invariant; every downstream pass (A-normalization,
CPS transformation, the analyzers) relies on it.
"""

from __future__ import annotations

from typing import Iterable

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
from repro.lang.syntax import free_variables


class NameSupply:
    """A supply of names guaranteed fresh with respect to a used set.

    Fresh names are derived from a base name with a ``%N`` suffix, a
    character sequence the pretty-printer round-trips and users are
    unlikely to write.
    """

    def __init__(self, used: Iterable[str] = ()) -> None:
        self._used = set(used)
        self._counters: dict[str, int] = {}

    def reserve(self, name: str) -> None:
        """Mark ``name`` as used without generating anything."""
        self._used.add(name)

    def fresh(self, base: str) -> str:
        """Return a name not seen before, preferring ``base`` itself."""
        root = base.split("%", 1)[0] or "x"
        if base not in self._used:
            self._used.add(base)
            return base
        counter = self._counters.get(root, 0)
        while True:
            counter += 1
            candidate = f"{root}%{counter}"
            if candidate not in self._used:
                self._counters[root] = counter
                self._used.add(candidate)
                return candidate


def fresh_name_supply(*terms: Term) -> NameSupply:
    """Create a `NameSupply` that avoids every name occurring in ``terms``."""
    used: set[str] = set()
    for term in terms:
        used.update(_all_names(term))
    return NameSupply(used)


def _all_names(term: Term) -> set[str]:
    from repro.lang.syntax import subterms

    names: set[str] = set()
    for sub in subterms(term):
        match sub:
            case Var(name):
                names.add(name)
            case Lam(param, _):
                names.add(param)
            case Let(name, _, _):
                names.add(name)
            case _:
                pass
    return names


def uniquify(term: Term, supply: NameSupply | None = None) -> Term:
    """Alpha-rename ``term`` so all binders bind distinct names.

    Free variables are left untouched (and reserved, so no binder
    captures them).  The result satisfies
    :func:`repro.lang.syntax.has_unique_binders`.
    """
    if supply is None:
        supply = NameSupply()
        for name in free_variables(term):
            supply.reserve(name)
    return _rename(term, {}, supply)


def _rename(term: Term, env: dict[str, str], supply: NameSupply) -> Term:
    """Rename ``term`` under ``env`` (binder name → fresh name).

    ``env`` is one dict for the whole walk: a binder sets its entry for
    the walk of its scope and then restores the outer one, so a let
    spine of n binders costs O(n), not the O(n²) of a copy per binder.
    """
    match term:
        case Num() | Prim() | Loop():
            return term
        case Var(name):
            return Var(env.get(name, name))
        case Lam(param, body):
            fresh = supply.fresh(param)
            outer = env.get(param, _UNBOUND)
            env[param] = fresh
            new_body = _rename(body, env, supply)
            _restore(env, param, outer)
            return Lam(fresh, new_body)
        case App(fun, arg):
            return App(_rename(fun, env, supply), _rename(arg, env, supply))
        case Let(name, rhs, body):
            new_rhs = _rename(rhs, env, supply)
            fresh = supply.fresh(name)
            outer = env.get(name, _UNBOUND)
            env[name] = fresh
            new_body = _rename(body, env, supply)
            _restore(env, name, outer)
            return Let(fresh, new_rhs, new_body)
        case If0(test, then, orelse):
            return If0(
                _rename(test, env, supply),
                _rename(then, env, supply),
                _rename(orelse, env, supply),
            )
        case PrimApp(op, args):
            return PrimApp(op, tuple(_rename(a, env, supply) for a in args))
    raise TypeError(f"not an A term: {term!r}")


_UNBOUND = object()


def _restore(env: dict[str, str], name: str, outer) -> None:
    """Put back the entry a binder of ``name`` shadowed (or remove the
    binder's own when ``outer`` is `_UNBOUND`)."""
    if outer is _UNBOUND:
        del env[name]
    else:
        env[name] = outer
