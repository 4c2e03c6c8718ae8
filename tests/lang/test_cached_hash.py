"""The cached structural hash of compound terms and closure tokens.

Every compound node of both ASTs, and the tokens `AbsClo`, `AbsCpsClo`,
`AbsCo` and `AFrame`, keep their hash in a ``_hash`` slot
(`repro.lang.ast.cached_hash`).  The kept value must be the hash the
generated dataclass ``__hash__`` gave (the hash of the tuple of the
``__init__`` fields), so set orders and digests do not move; the slot
must stay out of ``__init__``, equality and ``repr``; and the front
end must fill a program's hashes under its recursion headroom.
"""

import sys
from dataclasses import fields

import pytest

from repro.analysis.common import (
    AbsClo,
    AbsCo,
    AbsCpsClo,
    AFrame,
    ProgramTooDeep,
)
from repro.api import prepare
from repro.corpus.programs import PROGRAMS
from repro.cps import cps_transform
from repro.cps.ast import CLam, KLam
from repro.lang.ast import Lam, Let, Num, Var
from repro.lang.syntax import subterms

def _field_tuple(node):
    return tuple(getattr(node, f.name) for f in fields(node) if f.init)


def _nodes(term):
    """Every node of ``term`` and of its cps(A) image."""
    yield from subterms(term)
    stack = [cps_transform(term)]
    while stack:
        node = stack.pop()
        yield node
        for value in _field_tuple(node):
            items = value if type(value) is tuple else (value,)
            stack.extend(item for item in items if hasattr(item, "_hash"))


def _deep_nest(rounds: int) -> str:
    source = "y"
    for i in range(rounds):
        source = f"(let (x (lambda (x) (+ x {i}))) (let (y x) {source}))"
    return source


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_kept_hash_is_the_field_tuple_hash(name):
    for node in _nodes(PROGRAMS[name].term):
        if hasattr(node, "_hash"):
            assert hash(node) == hash(_field_tuple(node)), node
            assert node._hash == hash(node)


def test_tokens_keep_the_field_tuple_hash():
    lam = Lam("x", Let("y", Num(1), Var("y")))
    clam = cps_transform(Let("f", lam, Var("f"))).value
    klam = KLam("r", clam.body)
    assert isinstance(clam, CLam)
    for token in (
        AbsClo(lam.param, lam.body),
        AbsCpsClo(clam.param, clam.kparam, clam.body),
        AbsCo(klam.param, klam.body),
        AFrame("f", lam.body),
    ):
        assert hash(token) == hash(_field_tuple(token))


def test_slot_is_outside_init_equality_and_repr():
    lam = Lam("x", Var("x"))
    other = Lam("x", Var("x"))
    hash(lam)
    assert lam._hash is not None and other._hash is None
    assert lam == other
    assert "_hash" not in repr(lam)
    assert [f.name for f in fields(Lam) if f.init] == ["param", "body"]


def test_prepare_keeps_every_hash():
    """`prepare` fills the hashes under the front end's headroom, so a
    later first hash never recurses at the default recursion limit."""
    term = prepare(_deep_nest(300))
    assert all(
        node._hash is not None
        for node in subterms(term)
        if hasattr(node, "_hash")
    )
    assert sys.getrecursionlimit() < 2_000
    assert isinstance(hash(term), int)


def test_prepare_refuses_a_term_past_the_headroom():
    """A hand-built term nested past the front end's headroom is a
    typed error, not a raw `RecursionError` (nor a C stack overflow
    in its first hash)."""
    term = Var("x")
    for i in range(30_000):
        term = Let("x", Num(i), term)
    with pytest.raises(ProgramTooDeep):
        prepare(term)
