"""Tests for `repro.incr.hash`: Merkle structure digests, the
alpha-invariant `term_hash`, spine-only rehashing, path resolution,
and `merkle_diff`."""

import pytest

from repro.anf import normalize
from repro.cps import cps_transform
from repro.incr.hash import (
    TermHasher,
    iter_nodes,
    merkle_diff,
    node_children,
    replace_at,
    resolve_path,
    structure_hex,
    term_hash,
)
from repro.lang import parse
from repro.lang.ast import Num


def anf(source: str):
    return normalize(parse(source), ensure_unique=False)


FACT = """(let (fact (lambda (self)
                       (lambda (n)
                         (if0 n 1 (* n ((self self) (- n 1)))))))
            ((fact fact) 5))"""


class TestStructureDigest:
    def test_deterministic_across_objects(self):
        # Two structurally identical trees built separately hash equal.
        assert structure_hex(anf(FACT)) == structure_hex(anf(FACT))

    def test_name_sensitive(self):
        # Structure digests are literal: renaming a binder changes them
        # (the analyzers' judgments mention names, so the store must
        # distinguish them).
        a = anf("(let (x 1) (+ x 2))")
        b = anf("(let (y 1) (+ y 2))")
        assert structure_hex(a) != structure_hex(b)

    def test_scalar_sensitive(self):
        a = anf("(+ 1 2)")
        b = anf("(+ 1 3)")
        assert structure_hex(a) != structure_hex(b)

    def test_covers_cps_trees(self):
        cps = cps_transform(anf(FACT))
        assert structure_hex(cps) == structure_hex(cps_transform(anf(FACT)))

    def test_spine_only_rehash(self):
        # After hashing the old tree, an edit splicing a new leaf only
        # re-hashes the rebuilt spine: the cache grows by at most the
        # spine length plus the replacement sub-tree.
        hasher = TermHasher()
        term = anf(FACT)
        hasher.digest(term)
        size = len(term_nodes(term))
        assert len(hasher) == size
        path = num_paths(term)[0]
        edited = replace_at(term, path, Num(42))
        hasher.digest(edited)
        rehashed = len(hasher) - size
        assert rehashed <= len(path) + 1


def term_nodes(term):
    return [node for _, node in iter_nodes(term)]


def num_paths(term):
    return [
        path
        for path, node in iter_nodes(term)
        if isinstance(node, Num)
    ]


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


class TestPaths:
    def test_resolve_path_roundtrip(self):
        term = anf(FACT)
        for path, node in iter_nodes(term):
            assert resolve_path(term, path) is node

    def test_replace_at_shares_siblings(self):
        term = anf("(let (a (+ 1 2)) (let (b (+ 3 4)) (+ a b)))")
        path = num_paths(term)[0]
        edited = replace_at(term, path, Num(9))
        assert resolve_path(edited, path) == Num(9)
        # Unchanged sub-trees are the same objects, not copies.
        old_children = node_children(term)
        new_children = node_children(edited)
        shared = sum(
            1 for a, b in zip(old_children, new_children) if a is b
        )
        assert shared == len(old_children) - 1

    def test_replace_at_bad_index(self):
        with pytest.raises(IndexError):
            replace_at(anf("(+ 1 2)"), (17,), Num(0))


class TestMerkleDiff:
    def test_identical_trees_are_clean(self):
        term = anf(FACT)
        assert merkle_diff(term, anf(FACT)) == []

    def test_single_edit_single_path(self):
        term = anf(FACT)
        for path in num_paths(term):
            edited = replace_at(term, path, Num(1234))
            assert merkle_diff(term, edited) == [path]

    def test_shape_change_reports_enclosing_node(self):
        old = anf("(let (x (+ 1 2)) x)")
        new = anf("(let (x (lambda (y) y)) x)")
        dirty = merkle_diff(old, new)
        assert len(dirty) == 1
        # The dirty path covers the whole rebound binding, not a leaf.
        assert resolve_path(new, dirty[0]).__class__.__name__ in (
            "Let",
            "Lam",
        )

    def test_multiple_edits(self):
        term = anf("(let (a (+ 1 2)) (let (b (+ 3 4)) (+ a b)))")
        paths = num_paths(term)[:2]
        edited = term
        for path in paths:
            edited = replace_at(edited, path, Num(77))
        assert merkle_diff(term, edited) == sorted(paths)

    def test_uses_an_empty_passed_hasher(self):
        # An empty TermHasher is falsy (it has a __len__); the passed
        # one must still be the one that fills.
        hasher = TermHasher()
        merkle_diff(anf(FACT), anf(FACT), hasher)
        assert len(hasher) > 0


class TestSharedHasher:
    def test_recorder_fills_the_empty_hasher_it_is_given(self):
        from repro.analysis.semantic_cps import SemanticCpsAnalyzer
        from repro.incr.recorder import SummaryRecorder
        from repro.incr.store import IncrStore

        term = anf(FACT)
        hasher = TermHasher()
        assert not hasher  # the falsy case the recorder must survive
        analyzer = SemanticCpsAnalyzer(term, cache=True)
        with IncrStore(":memory:") as store:
            recorder = SummaryRecorder(
                analyzer,
                store,
                program=term,
                initial_store=analyzer.initial_store,
                hasher=hasher,
            )
        assert recorder.table.hasher is hasher
        assert len(hasher) > 0
