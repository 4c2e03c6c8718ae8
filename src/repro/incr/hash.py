"""Canonical Merkle hashing of ANF (and cps(A)) syntax trees.

Two layers, two jobs:

- **Structure digests** (`TermHasher`): a content digest of the
  *literal* sub-tree — names included — computed bottom-up and cached
  per node *object*, so after an edit that splices a new sub-term into
  a shared tree only the spine above the edit is re-hashed.  These are
  the keys of the persistent summary store: the analyzers' judgments
  are name-sensitive (stores map variable names), so the store must
  be too.
- **Alpha hashes** (`term_hash`): the public ETag-style hash exposed
  by ``/v1/analyze``.  Binders are canonicalized de-Bruijn-level
  style (each binder is renamed to ``#<n>`` where ``n`` counts the
  binders enclosing it; free variables keep their literal names), so
  alpha-equivalent programs hash equal.  Renaming by *level* rather
  than by de-Bruijn *index* keeps the canonicalization compositional:
  two binders at the same level can never shadow one another, and a
  reference resolves to the innermost enclosing definition exactly as
  the literal name would.

Both layers work generically over the frozen-dataclass ASTs of
`repro.lang.ast` and `repro.cps.ast`: children are the fields holding
(tuples of) AST nodes, scalars are everything else, and field order
is definition order, which is stable.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import fields, replace as _dc_replace
from typing import Any, Iterator

from repro.cps import ast as cast
from repro.lang import ast as last

#: Bump when the hash layout changes: digests key the persistent
#: store, so a layout change must miss cleanly rather than collide.
HASH_SCHEMA = 1

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
    """Dataclass field names of ``node``'s type, definition order."""
    cls = type(node)
    cached = _FIELD_CACHE.get(cls)
    if cached is None:
        cached = tuple(f.name for f in fields(cls))
        _FIELD_CACHE[cls] = cached
    return cached


def node_children(node: Any) -> list[Any]:
    """The AST-node children of ``node``, in field order (tuples of
    nodes — `PrimApp.args` — are flattened in place)."""
    out: list[Any] = []
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, _AST_TYPES):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(v for v in value if isinstance(v, _AST_TYPES))
    return out


def node_scalars(node: Any) -> tuple:
    """The non-node field values of ``node``, in field order."""
    out = []
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, _AST_TYPES):
            continue
        if isinstance(value, tuple) and any(
            isinstance(v, _AST_TYPES) for v in value
        ):
            continue
        out.append(value)
    return tuple(out)


#: A position in a tree: the child index taken at each step.
Path = tuple[int, ...]


def child_at(node: Any, index: int) -> Any:
    """The ``index``-th AST child of ``node``."""
    return node_children(node)[index]


def resolve_path(root: Any, path: Path) -> Any:
    """The node at ``path`` under ``root``.

    Raises ``IndexError`` when the path walks off the tree (the tree
    changed shape since the path was recorded).
    """
    node = root
    for index in path:
        children = node_children(node)
        node = children[index]
    return node


def replace_at(root: Any, path: Path, replacement: Any) -> Any:
    """A copy of ``root`` with the node at ``path`` replaced.

    Only the spine above the edit is rebuilt; every unchanged sibling
    sub-tree is *shared* with ``root`` — which is exactly what makes
    spine-only rehashing pay off: a `TermHasher` that has seen the old
    tree only re-hashes the rebuilt spine nodes.
    """
    if not path:
        return replacement
    child = child_at(root, path[0])
    return _replace_child(
        root, path[0], replace_at(child, path[1:], replacement)
    )


def _replace_child(node: Any, index: int, new_child: Any) -> Any:
    """A copy of ``node`` with its ``index``-th AST child swapped."""
    i = 0
    for name in _field_names(node):
        value = getattr(node, name)
        if isinstance(value, _AST_TYPES):
            if i == index:
                return _dc_replace(node, **{name: new_child})
            i += 1
        elif isinstance(value, tuple):
            items = list(value)
            for j, item in enumerate(items):
                if isinstance(item, _AST_TYPES):
                    if i == index:
                        items[j] = new_child
                        return _dc_replace(node, **{name: tuple(items)})
                    i += 1
    raise IndexError(index)


def iter_nodes(root: Any) -> Iterator[tuple[Path, Any]]:
    """All ``(path, node)`` pairs under ``root``, preorder."""
    stack: list[tuple[Path, Any]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node_children(node)
        for i in range(len(children) - 1, -1, -1):
            stack.append((path + (i,), children[i]))


def _h(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()[:20]


class TermHasher:
    """Merkle structure digests, cached per node object.

    The cache is keyed by ``id(node)``; the hasher pins every node it
    has hashed so ids cannot be recycled while the cache lives.  Use
    one hasher per program (or per store session) — sharing a tree
    between an old and an edited term means the unchanged sub-trees
    hit the cache and only the edited spine is re-hashed.
    """

    def __init__(self) -> None:
        self._cache: dict[int, bytes] = {}
        self._pins: list[Any] = []

    def digest(self, node: Any) -> bytes:
        """The 20-byte structure digest of ``node``."""
        cache = self._cache
        got = cache.get(id(node))
        if got is not None:
            return got
        # Iterative post-order: children before parents, no recursion
        # limit on deep let-spines.
        stack: list[tuple[Any, bool]] = [(node, False)]
        while stack:
            current, expanded = stack.pop()
            if id(current) in cache:
                continue
            children = node_children(current)
            if not expanded:
                stack.append((current, True))
                for child in children:
                    if id(child) not in cache:
                        stack.append((child, False))
                continue
            parts = [
                str(HASH_SCHEMA).encode(),
                type(current).__name__.encode(),
                repr(node_scalars(current)).encode(),
            ]
            for child in children:
                parts.append(cache[id(child)])
            cache[id(current)] = _h(b"\x00".join(parts))
            self._pins.append(current)
        return cache[id(node)]

    def hex(self, node: Any) -> str:
        """Hex form of :meth:`digest`."""
        return self.digest(node).hex()

    def __len__(self) -> int:
        return len(self._cache)


#: Process-wide hasher used by the convenience functions; safe because
#: digests are pure and the pin list keeps ids stable.
_SHARED = TermHasher()


def structure_digest(node: Any) -> bytes:
    """The literal (name-sensitive) structure digest of ``node``."""
    return _SHARED.digest(node)


def structure_hex(node: Any) -> str:
    """Hex form of :func:`structure_digest`."""
    return _SHARED.digest(node).hex()


# ----------------------------------------------------------------------
# Alpha-invariant hashing (the public term_hash)
# ----------------------------------------------------------------------

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


# ----------------------------------------------------------------------
# Merkle diffing
# ----------------------------------------------------------------------


def merkle_diff(
    old: Any, new: Any, hasher: TermHasher | None = None
) -> list[Path]:
    """Paths (in ``new``) of the minimal dirty sub-trees.

    Descends both trees in lockstep; where digests agree the sub-trees
    are identical and the walk stops.  Where they disagree but the
    shapes still match, the walk recurses, so a single sub-term edit
    reports a single dirty path; a shape change reports the enclosing
    node.
    """
    hasher = hasher if hasher is not None else _SHARED
    dirty: list[Path] = []
    stack: list[tuple[Path, Any, Any]] = [((), old, new)]
    while stack:
        path, a, b = stack.pop()
        if hasher.digest(a) == hasher.digest(b):
            continue
        ca, cb = node_children(a), node_children(b)
        if (
            type(a) is type(b)
            and len(ca) == len(cb)
            and node_scalars(a) == node_scalars(b)
        ):
            for i in range(len(ca)):
                stack.append((path + (i,), ca[i], cb[i]))
        else:
            dirty.append(path)
    dirty.sort()
    return dirty
