"""The one-walk binder checks and the one-supply `normalize` against
reference copies of the walks they replace.

The references below copy the earlier implementations:
`free_variables` as a recursive frozenset union,
`has_unique_binders` as a binder list plus a free-variable set,
`uniquify`'s renaming walk with a fresh environment dict per binder,
and `normalize` as that renaming followed by a second name supply
rebuilt from every name of the renamed term.  The rewritten code must agree with
them exactly: same sets, same booleans, same `TypeError`, and
structurally identical normal forms, binder names included.
"""

import random

import pytest

from repro.anf.normalize import _norm, normalize
from repro.corpus.programs import PROGRAMS
from repro.gen import random_closed_term, random_open_term
from repro.lang.ast import (
    App,
    If0,
    Lam,
    Let,
    Loop,
    Num,
    Prim,
    PrimApp,
    Var,
)
from repro.lang.parser import parse
from repro.lang.rename import NameSupply, fresh_name_supply, uniquify
from repro.lang.syntax import free_variables, has_unique_binders, subterms


def reference_free_variables(term):
    match term:
        case Num() | Prim() | Loop():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Lam(param, body):
            return reference_free_variables(body) - {param}
        case App(fun, arg):
            return reference_free_variables(fun) | reference_free_variables(arg)
        case Let(name, rhs, body):
            return reference_free_variables(rhs) | (
                reference_free_variables(body) - {name}
            )
        case If0(test, then, orelse):
            return (
                reference_free_variables(test)
                | reference_free_variables(then)
                | reference_free_variables(orelse)
            )
        case PrimApp(_, args):
            names = frozenset()
            for arg in args:
                names |= reference_free_variables(arg)
            return names
    raise TypeError(f"not an A term: {term!r}")


def reference_binders(term):
    found = []
    for sub in subterms(term):
        match sub:
            case Lam(param, _):
                found.append(param)
            case Let(name, _, _):
                found.append(name)
            case _:
                pass
    return found


def reference_has_unique_binders(term):
    names = reference_binders(term)
    if len(names) != len(set(names)):
        return False
    return not (set(names) & reference_free_variables(term))


def reference_rename(term, env, supply):
    match term:
        case Num() | Prim() | Loop():
            return term
        case Var(name):
            return Var(env.get(name, name))
        case Lam(param, body):
            fresh = supply.fresh(param)
            return Lam(fresh, reference_rename(body, {**env, param: fresh}, supply))
        case App(fun, arg):
            return App(
                reference_rename(fun, env, supply),
                reference_rename(arg, env, supply),
            )
        case Let(name, rhs, body):
            new_rhs = reference_rename(rhs, env, supply)
            fresh = supply.fresh(name)
            return Let(
                fresh, new_rhs, reference_rename(body, {**env, name: fresh}, supply)
            )
        case If0(test, then, orelse):
            return If0(
                reference_rename(test, env, supply),
                reference_rename(then, env, supply),
                reference_rename(orelse, env, supply),
            )
        case PrimApp(op, args):
            return PrimApp(
                op, tuple(reference_rename(a, env, supply) for a in args)
            )
    raise TypeError(f"not an A term: {term!r}")


def reference_uniquify(term):
    supply = NameSupply()
    for name in reference_free_variables(term):
        supply.reserve(name)
    return reference_rename(term, {}, supply)


def reference_normalize(term):
    renamed = reference_uniquify(term)
    return _norm(renamed, lambda value: value, fresh_name_supply(renamed))


def outcome(function, term):
    try:
        return function(term)
    except TypeError as error:
        return ("TypeError", str(error))


NAMES = ("x", "y", "t", "t%1", "x%2")


def clashing_term(rng, depth):
    """A random term over a handful of names, so binders repeat, shadow
    one another and capture free variables often."""
    if depth == 0 or rng.random() < 0.2:
        pick = rng.randrange(4)
        if pick == 0:
            return Num(rng.randrange(3))
        if pick == 1:
            return Prim(rng.choice(("add1", "sub1")))
        if pick == 2 and rng.random() < 0.2:
            return Loop()
        return Var(rng.choice(NAMES))
    sub = lambda: clashing_term(rng, depth - 1)  # noqa: E731
    pick = rng.randrange(6)
    if pick == 0:
        return Lam(rng.choice(NAMES), sub())
    if pick == 1:
        return Let(rng.choice(NAMES), sub(), sub())
    if pick == 2:
        return App(sub(), sub())
    if pick == 3:
        return If0(sub(), sub(), sub())
    if pick == 4:
        return PrimApp(rng.choice("+-*"), (sub(), sub()))
    return Let(rng.choice(NAMES), sub(), Var(rng.choice(NAMES)))


def all_terms():
    terms = [program.term for program in PROGRAMS.values()]
    for seed in range(60):
        rng = random.Random(seed)
        terms.append(random_closed_term(rng, max_depth=5))
        terms.append(random_open_term(rng, max_depth=5))
        terms.append(clashing_term(rng, 5))
    return terms


HAND_MADE = [
    "x",
    "(lambda (x) x)",
    "(lambda (x) y)",
    "(let (x x) x)",  # the binder captures its own right-hand side's x
    "(let (x 1) (let (x 2) x))",  # duplicate, nested
    "(let (a (lambda (x) x)) (lambda (x) x))",  # duplicate, disjoint
    "(let (a x) (lambda (x) x))",  # binds a name free earlier
    "(let (a (lambda (x) x)) x)",  # x free after its binder's scope
    "(let (x (lambda (x) x)) 1)",  # duplicate inside the right-hand side
    "(f (lambda (f) f))",
    "(lambda (t) (let (t%1 (f t)) (g t%1)))",
    "(let (t 1) (let (t%1 2) (add1 (add1 (+ t t%1)))))",
    "(if0 x (lambda (x) x) (let (x 3) x))",
]


class TestBinderWalks:
    @pytest.mark.parametrize("source", HAND_MADE)
    def test_hand_made(self, source):
        term = parse(source)
        assert free_variables(term) == reference_free_variables(term)
        assert has_unique_binders(term) == reference_has_unique_binders(term)

    def test_random_terms(self):
        verdicts = set()
        for term in all_terms():
            assert free_variables(term) == reference_free_variables(term)
            verdict = has_unique_binders(term)
            assert verdict == reference_has_unique_binders(term)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "term",
        [
            "junk",
            Lam("x", "junk"),
            Let("x", Num(1), App(Var("x"), 3)),
            If0(Var("x"), Num(1), None),
            PrimApp("+", (Num(1), "junk")),
            # a duplicate binder answers False before the non-term
            Let("x", Num(1), Let("x", "junk", Var("x"))),
            # a shadowing binder does not
            Let("x", Var("x"), App(Var("y"), object)),
        ],
        ids=repr,
    )
    def test_non_terms(self, term):
        assert outcome(free_variables, term) == outcome(
            reference_free_variables, term
        )
        assert outcome(has_unique_binders, term) == outcome(
            reference_has_unique_binders, term
        )


class TestUniquifyNames:
    @pytest.mark.parametrize("source", HAND_MADE)
    def test_hand_made(self, source):
        term = parse(source)
        assert uniquify(term) == reference_uniquify(term)

    def test_random_terms(self):
        for term in all_terms():
            assert uniquify(term) == reference_uniquify(term)

    def test_long_spine_with_shadowing(self):
        # one binder name reused down a spine, inside and after lambdas
        source = "x"
        for i in range(100):
            source = f"(let (x (lambda (x) (+ x {i}))) (let (y x) {source}))"
        term = parse(source)
        assert uniquify(term) == reference_uniquify(term)
        assert has_unique_binders(uniquify(term))


class TestNormalizeNames:
    @pytest.mark.parametrize("source", HAND_MADE)
    def test_hand_made(self, source):
        term = parse(source)
        assert normalize(term) == reference_normalize(term)

    def test_random_terms(self):
        for term in all_terms():
            assert normalize(term) == reference_normalize(term)

    def test_counters_skip_only_used_names(self):
        # uniquify leaves the supply's counter for "t" at 2 (t%1 and t%2
        # are taken); normalization's own temporaries continue from t%3
        # exactly as a supply rebuilt from the renamed term would.
        term = parse("(let (t 1) (let (t 2) (let (t 3) (add1 (add1 t)))))")
        assert normalize(term) == reference_normalize(term)
        binders = {
            sub.name for sub in subterms(normalize(term)) if isinstance(sub, Let)
        }
        assert {"t", "t%1", "t%2", "t%3"} <= binders
