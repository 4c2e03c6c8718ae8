"""The alpha-invariant program hash: `term_hash`.

`term_hash` is the ETag-style hash exposed by ``/v1/analyze``.
Binders are canonicalized de-Bruijn-level style (each binder is
renamed to ``#<n>`` where ``n`` counts the binders enclosing it; free
variables keep their literal names), so alpha-equivalent programs
hash equal.  Renaming by *level* rather than by de-Bruijn *index*
keeps the canonicalization compositional: two binders at the same
level can never shadow one another, and a reference resolves to the
innermost enclosing definition exactly as the literal name would.

The walk is generic over the frozen-dataclass ASTs of
`repro.lang.ast` and `repro.cps.ast`: children are the fields holding
(tuples of) AST nodes, scalars are everything else, and field order
is definition order, which is stable.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import fields
from typing import Any

from repro.cps import ast as cast
from repro.lang import ast as last

#: Fields that *bind* a name (alpha canonicalization renames them and
#: the references they capture).  Everything else that is a ``str``
#: field is either a reference or an operator name.
_BINDER_FIELDS = {
    (last.Lam, "param"),
    (last.Let, "name"),
    (cast.CLam, "param"),
    (cast.CLam, "kparam"),
    (cast.KLam, "param"),
    (cast.CLet, "name"),
    (cast.CPrimLet, "name"),
    (cast.CIf0, "kvar"),
}

#: Fields that *reference* a name bound elsewhere.
_REF_FIELDS = {
    (last.Var, "name"),
    (cast.CVar, "name"),
    (cast.KApp, "kvar"),
}

_AST_TYPES = (
    last.Num, last.Var, last.Prim, last.Lam, last.App, last.Let,
    last.If0, last.PrimApp, last.Loop,
    cast.CNum, cast.CVar, cast.CPrim, cast.CLam, cast.KLam, cast.KApp,
    cast.CLet, cast.CApp, cast.CIf0, cast.CPrimLet, cast.CLoop,
)

_FIELD_CACHE: dict[type, tuple[str, ...]] = {}


def _field_names(node: Any) -> tuple[str, ...]:
    """The ``__init__`` field names of ``node``'s type, definition
    order: a node's cached hash (`repro.lang.ast.cached_hash`) is a
    field outside ``__init__`` and never enters a digest."""
    cls = type(node)
    cached = _FIELD_CACHE.get(cls)
    if cached is None:
        cached = tuple(f.name for f in fields(cls) if f.init)
        _FIELD_CACHE[cls] = cached
    return cached


def _h(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:20]


_ALPHA_CACHE: dict[int, str] = {}
_ALPHA_PINS: list[Any] = []

#: The alpha cache exists so repeated hashing of one long-lived term
#: is free; a server hashing a fresh term per request must not grow
#: it (and its id pins) without bound.
_ALPHA_CACHE_LIMIT = 4096


def _alpha_digest(node: Any, env: dict[str, str], level: int) -> bytes:
    cls = type(node)
    names = _field_names(node)
    parts = [type(node).__name__.encode()]
    child_env = env
    child_level = level
    # Binders first: every binder field of this node is renamed to the
    # same canonical level label (same-level binders cannot nest, so a
    # single label per node is unambiguous), and the extension is
    # visible to all child sub-terms.
    bound: dict[str, str] = {}
    for name in names:
        if (cls, name) in _BINDER_FIELDS:
            canonical = f"#{level}"
            bound[getattr(node, name)] = canonical
            parts.append(b"bind:" + canonical.encode())
            child_level = level + 1
    if bound:
        child_env = dict(env)
        child_env.update(bound)
    for name in names:
        value = getattr(node, name)
        if (cls, name) in _BINDER_FIELDS:
            continue
        if (cls, name) in _REF_FIELDS:
            parts.append(b"ref:" + env.get(value, value).encode())
        elif isinstance(value, _AST_TYPES):
            parts.append(_alpha_digest(value, child_env, child_level))
        elif isinstance(value, tuple) and any(
            isinstance(v, _AST_TYPES) for v in value
        ):
            for v in value:
                parts.append(_alpha_digest(v, child_env, child_level))
        else:
            parts.append(repr(value).encode())
    return _h(b"\x00".join(parts))


def term_hash(term: Any) -> str:
    """The alpha-invariant hash of a whole program, hex.

    This is the hash `/v1/analyze` echoes and matches against
    ``term_hash`` in requests (the ``If-None-Match`` fast path).
    Alpha-equivalent programs — same structure up to consistent
    renaming of bound variables — hash equal; free variables are
    compared literally because the analysis assumptions are keyed by
    their names.
    """
    got = _ALPHA_CACHE.get(id(term))
    if got is None:
        if len(_ALPHA_CACHE) >= _ALPHA_CACHE_LIMIT:
            _ALPHA_CACHE.clear()
            _ALPHA_PINS.clear()
        previous = sys.getrecursionlimit()
        if previous < 100_000:
            sys.setrecursionlimit(100_000)
        try:
            got = _alpha_digest(term, {}, 0).hex()
        finally:
            if previous < 100_000:
                sys.setrecursionlimit(previous)
        _ALPHA_CACHE[id(term)] = got
        _ALPHA_PINS.append(term)
    return got
