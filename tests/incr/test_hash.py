"""Tests for `repro.incr.hash`: the alpha-invariant `term_hash`."""

from repro.anf import normalize
from repro.incr.hash import term_hash
from repro.lang import parse


def anf(source: str):
    return normalize(parse(source), ensure_unique=False)


class TestTermHash:
    def test_alpha_invariant(self):
        a = anf("(let (x 1) (lambda (y) (+ x y)))")
        b = anf("(let (u 1) (lambda (v) (+ u v)))")
        assert term_hash(a) == term_hash(b)

    def test_free_variables_literal(self):
        # Free variables are analysis assumptions keyed by name: they
        # must NOT be canonicalized away.
        assert term_hash(anf("(+ g 1)")) != term_hash(anf("(+ h 1)"))

    def test_distinguishes_structure(self):
        assert term_hash(anf("(+ 1 2)")) != term_hash(anf("(* 1 2)"))

    def test_shadowing_respected(self):
        a = anf("(lambda (x) (lambda (x) x))")
        b = anf("(lambda (x) (lambda (y) x))")
        assert term_hash(a) != term_hash(b)

    def test_deep_terms_do_not_overflow(self):
        from repro.corpus import top_conditional_chain

        # A deep let-spine: _alpha_digest recursion must survive (it
        # raises the interpreter recursion limit for the walk).
        assert term_hash(top_conditional_chain(64).term)
