"""Seeded generators for the benchmark's inputs, written as source text.

Nothing here imports `repro`: the inputs stay fixed when the program
under test changes, and the program receives only the text.  Every
generator takes a `random.Random`, so one seed gives byte-identical
sources.

Each workload's cost *structure* is fixed by a schedule that does not
depend on the seed (program sizes, branch counts, family and chain
length K); the seed draws the contents (shapes, names, constants,
order).  Different seeds therefore give different programs of the same
expected cost, which keeps run-to-run figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Program:
    """One generated program.

    ``free`` names the free variables, which the analyses treat as
    unknown numbers (⊤) and concrete runs read from ``assume``.
    ``analyzers`` is the analyzer set an op runs (None: the default
    set of `run_comparison`).  ``expect`` holds hand-written expected
    answers, per analyzer, as ``{variable: "⊤" | "⊥" | int}``.
    """

    pid: str
    family: str
    source: str
    free: tuple[str, ...] = ()
    analyzers: tuple[str, ...] | None = None
    assume: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Random open programs (simply typed, so concrete runs terminate)
# ----------------------------------------------------------------------

NUM, FUN = "num", "fun"

#: What `run_comparison` runs by default on the tree engine.
COMPARISON_ANALYZERS = ("direct", "semantic-cps", "syntactic-cps",
                        "pushdown")


class _RandomProgram:
    """A let-chain of ``size`` statements with exactly ``branches``
    conditionals, evenly spaced.  Lambda bodies and conditional arms
    nest short chains of their own (mixed depth).

    Cost is kept to the schedule's shape: conditionals sit on the top
    chain only (each one doubles the CPS analyses' work on the rest of
    it), lambda bodies hold no conditionals, and every procedure is
    called once except a shared one that opens the chain and is called
    twice right away: one false-return site (Theorem 5.1) whose merged
    continuations syntactic-CPS analysis must follow over the whole
    chain, at a cost that does not depend on where a seed puts it."""

    def __init__(self, rng: random.Random, size: int, branches: int,
                 free: int, shape: random.Random) -> None:
        self.rng = rng      # operands and constants
        self.shape = shape  # statement kinds, lengths and nesting
        self.size = size
        # evenly spaced, so the doubled tail of the chain has the same
        # length for every seed
        chain = size - 3 if size >= 4 else size
        self.branch_at = {chain * (2 * j + 1) // (2 * branches)
                          for j in range(branches)} if branches else set()
        self.counter = 0
        self.free = [f"x{i}" for i in range(1, free + 1)]
        self.calls_left: dict[str, int] = {}

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def num_atom(self, env: dict) -> str:
        rng = self.rng
        nums = [name for name, ty in env.items() if ty == NUM]
        roll = rng.random()
        if roll < 0.25 or not nums:
            if self.free and rng.random() < 0.6:
                return rng.choice(self.free)
            return str(rng.randint(0, 9))
        return rng.choice(nums[-6:])

    def arith(self, env: dict) -> str:
        op = self.shape.choice(("+", "-", "*", "add1", "sub1", "+"))
        if op in ("add1", "sub1"):
            return f"({op} {self.num_atom(env)})"
        if op == "*":
            # a constant factor keeps concrete values small
            return f"(* {self.num_atom(env)} {self.rng.randint(0, 3)})"
        return f"({op} {self.num_atom(env)} {self.num_atom(env)})"

    def chain(self, env: dict, length: int, depth: int,
              top: bool = False) -> str:
        """A let-chain of ``length`` statements returning a number."""
        env = dict(env)
        opens = []
        for position in range(length):
            if top and position in self.branch_at:
                name, rhs, ty = self.conditional(env, depth)
            else:
                name, rhs, ty = self.statement(env, depth)
            opens.append(f"(let ({name} {rhs})")
            env[name] = ty
        nums = [name for name, ty in env.items() if ty == NUM]
        result = nums[-1] if nums else self.num_atom(env)
        return " ".join(opens) + f" {result}" + ")" * length

    def conditional(self, env: dict, depth: int) -> tuple[str, str, str]:
        shape = self.shape
        # an unknown test: every conditional doubles the CPS analyses'
        # work on the rest of the chain, whatever the seed
        test = self.rng.choice(self.free)
        arms = [self.arith(env), self.arith(env)]
        if depth > 0 and shape.random() < 0.5:
            arms[0] = self.chain(env, shape.randint(1, 2), 0)
        shape.shuffle(arms)
        return self.fresh("c"), f"(if0 {test} {arms[0]} {arms[1]})", NUM

    def statement(self, env: dict, depth: int) -> tuple[str, str, str]:
        shape = self.shape
        callable_ = [name for name, ty in env.items()
                     if ty == FUN and self.calls_left.get(name, 0) > 0]
        roll = shape.random()
        if roll < 0.2 and depth > 0:
            param = self.fresh("p")
            body = self.chain({**env, param: NUM}, shape.randint(1, 3),
                              depth - 1)
            name = self.fresh("f")
            self.calls_left[name] = 1
            return name, f"(lambda ({param}) {body})", FUN
        if roll < 0.45 and callable_:
            fun = shape.choice(callable_)
            self.calls_left[fun] -= 1
            arg = self.num_atom(env)
            others = [f for f in callable_
                      if f != fun and self.calls_left[f] > 0]
            if others and shape.random() < 0.3:
                inner = shape.choice(others)
                self.calls_left[inner] -= 1
                arg = f"({inner} {arg})"
            return self.fresh("a"), f"({fun} {arg})", NUM
        return self.fresh("v"), self.arith(env), NUM

    def build(self) -> str:
        if self.size < 4:
            return self.chain({}, self.size, depth=2, top=True)
        param, name = self.fresh("p"), self.fresh("s")
        shifted = self.fresh("v")
        body = self.chain({shifted: NUM}, self.shape.randint(0, 1), 0)
        body = (f"(let ({shifted} (+ {param} {self.rng.randint(1, 9)})) "
                f"{body})")
        first, second = self.fresh("a"), self.fresh("a")
        c1, c2 = self.rng.sample(range(10), 2)  # two distinct returns
        rest = self.chain({first: NUM, second: NUM}, self.size - 3,
                          depth=2, top=True)
        return (f"(let ({name} (lambda ({param}) {body})) "
                f"(let ({first} ({name} {c1})) "
                f"(let ({second} ({name} {c2})) "
                f"{rest})))")


def random_program(rng: random.Random, pid: str, size: int, branches: int,
                   free: int = 2, shape: random.Random | None = None
                   ) -> Program:
    """One random open program.  ``shape`` draws its structure (default:
    ``rng``, which draws everything else)."""
    gen = _RandomProgram(rng, size, branches, free, shape or rng)
    source = gen.build()
    tokens = set(source.replace("(", " ").replace(")", " ").split())
    names = tuple(name for name in gen.free if name in tokens)
    assume = {name: rng.randint(0, 3) for name in names}
    return Program(pid, "random", source, names, assume=assume)


def random_schedule(count: int) -> list[tuple[int, int]]:
    """Seed-independent (size, branches) pairs: sizes log-spaced from 2
    to 16 statements, and every size with each of 0-3 conditionals in
    turn, so op cost spreads continuously with no class boundary."""
    return [(round(2 * (8 ** ((i + 0.5) / count))), i % 4)
            for i in range(count)]


# ----------------------------------------------------------------------
# Witness shapes with hand-written expected answers (Section 5)
# ----------------------------------------------------------------------

TOP = "⊤"


def theorem_51(rng: random.Random, pid: str) -> Program:
    """Theorem 5.1: false returns.  Two calls of one identity
    procedure; direct proves the first result, syntactic-CPS merges
    both returns into the identity's continuation parameter."""
    c1, c2 = rng.sample(range(1, 50), 2)
    f, x, a1, a2 = "id", "y", "r1", "r2"
    source = (f"(let ({f} (lambda ({x}) {x})) (let ({a1} ({f} {c1})) "
              f"(let ({a2} ({f} {c2})) {a2})))")
    return Program(pid, "theorem-5.1", source, expect={
        "direct": {a1: c1, a2: TOP, "": TOP},
        "semantic-cps": {a1: c1, a2: TOP, "": TOP},
        "syntactic-cps": {a1: TOP, a2: TOP, "": TOP},
        "pushdown": {a1: c1, a2: c2, "": c2},
    })


def theorem_52_conditional(rng: random.Random, pid: str) -> Program:
    """Theorem 5.2, first witness: duplication at a conditional.  Both
    paths give ``a2 = K + B``; only the CPS analyses see it."""
    k, b = rng.randint(1, 20), rng.randint(0, 20)
    a = k + b
    source = (f"(let (a1 (if0 x 0 {k})) "
              f"(let (a2 (if0 a1 (+ a1 {a}) (+ a1 {b}))) a2))")
    cps = {"a1": TOP, "a2": a, "": a}
    flat = {"a1": TOP, "a2": TOP, "": TOP}
    return Program(pid, "theorem-5.2-conditional", source, ("x",),
                   assume={"x": rng.randint(0, 1)}, expect={
                       "direct": flat, "semantic-cps": cps,
                       "syntactic-cps": cps, "pushdown": flat})


def theorem_52_two_closures(rng: random.Random, pid: str) -> Program:
    """Theorem 5.2, second witness: two closures at one call site.
    Each callee leads to ``a2 = R``; the direct analysis joins the two
    results first and loses it."""
    c1, r, s, n = rng.randint(1, 20), rng.randint(0, 20), 0, rng.randint(0, 9)
    s = r + 1 + rng.randint(0, 5)
    source = (f"(let (f (if0 z (lambda (d0) 0) (lambda (d1) {c1}))) "
              f"(let (a1 (f {n})) "
              f"(let (a2 (if0 a1 {r} (if0 (- a1 {c1}) {r} {s}))) a2)))")
    cps = {"a1": TOP, "a2": r, "": r}
    flat = {"a1": TOP, "a2": TOP, "": TOP}
    return Program(pid, "theorem-5.2-two-closures", source, ("z",),
                   assume={"z": rng.randint(0, 1)}, expect={
                       "direct": flat, "semantic-cps": cps,
                       "syntactic-cps": cps, "pushdown": flat})


WITNESSES = (theorem_51, theorem_52_conditional, theorem_52_two_closures)


def analyze_random_inputs(seed: int, count: int = 400) -> list[Program]:
    """The `analyze-random` cycle: ``count`` random open programs on the
    fixed size schedule plus the three witness shapes, in seeded
    order.  Program shapes are fixed too (the cost of the heaviest
    programs, and so the tail, would otherwise move with the seed);
    the seed draws operands and constants."""
    rng = random.Random(f"analyze-random/{seed}")
    shape = random.Random("analyze-random/shapes")
    programs = [
        random_program(rng, f"r{i}", size, branches,
                       free=shape.randint(1, 3), shape=shape)
        for i, (size, branches) in enumerate(random_schedule(count))
    ]
    programs += [make(rng, f"w{i}") for i, make in enumerate(WITNESSES)]
    rng.shuffle(programs)
    return programs


# ----------------------------------------------------------------------
# Section 6.2 duplication families (analyze-blowup)
# ----------------------------------------------------------------------

PLAN_ANALYZERS = ("direct", "semantic-cps", "syntactic-cps")
NO_SYNTACTIC = ("direct", "semantic-cps")


def _padding(rng: random.Random, last: str, pad: int) -> tuple[list, str]:
    """``pad`` straight-line statements after ``last``: work that every
    duplicated path repeats, so cost grows smoothly with ``pad``."""
    opens = []
    for j in range(1, pad + 1):
        opens.append(f"(let (z{j} (+ {last} {rng.randint(1, 9)}))")
        last = f"z{j}"
    return opens, last


def conditional_chain(rng: random.Random, pid: str, k: int,
                      pad: int) -> Program:
    """K independent unknown conditionals: 2^K paths for the CPS
    analyses."""
    opens = [f"(let (a1 (if0 x1 {rng.randint(0, 9)} {rng.randint(0, 9)}))"]
    for i in range(2, k + 1):
        p, q = rng.sample(range(1, 10), 2)
        opens.append(f"(let (a{i} (if0 x{i} (+ a{i-1} {p}) (+ a{i-1} {q})))")
    tail, result = _padding(rng, f"a{k}", pad)
    opens += tail
    source = " ".join(opens) + f" {result}" + ")" * len(opens)
    return Program(pid, f"conditional-chain-{k}", source,
                   tuple(f"x{i}" for i in range(1, k + 1)), PLAN_ANALYZERS)


def top_conditional_chain(rng: random.Random, pid: str, k: int,
                          pad: int) -> Program:
    """K unknown conditionals whose arms carry the same ⊤ values, so
    every duplicated continuation sees an identical store."""
    opens = [f"(let (p (+ y {rng.randint(1, 9)}))",
             f"(let (q (+ y {rng.randint(1, 9)}))"]
    for i in range(1, k + 1):
        arms = ("p", "q") if rng.random() < 0.5 else ("q", "p")
        opens.append(f"(let (a{i} (if0 x{i} {arms[0]} {arms[1]}))")
    tail, result = _padding(rng, f"a{k}", pad)
    opens += tail
    source = " ".join(opens) + f" {result}" + ")" * len(opens)
    return Program(pid, f"top-conditional-chain-{k}", source,
                   ("y",) + tuple(f"x{i}" for i in range(1, k + 1)),
                   PLAN_ANALYZERS)


def call_site_chain(rng: random.Random, pid: str, k: int,
                    pad: int) -> Program:
    """K calls of a parameter that holds two closures once the helper
    has been called with both: the CPS analyses duplicate the
    continuation at every call, 2^K paths.  Syntactic-CPS is dropped:
    its false returns through the shared continuation parameter make
    the chain explode past any practical budget from K = 6."""
    c0, c1 = rng.sample(range(0, 10), 2)
    calls = ["(let (b1 (h 0))"]
    for i in range(2, k + 1):
        calls.append(f"(let (b{i} (h b{i-1}))")
    tail, result = _padding(rng, f"b{k}", pad)
    calls += tail
    body = " ".join(calls) + f" {result}" + ")" * len(calls)
    source = (f"(let (g (lambda (h) {body})) "
              f"(let (r1 (g (lambda (u0) {c0}))) "
              f"(let (r2 (g (lambda (u1) {c1}))) r2)))")
    return Program(pid, f"call-site-chain-{k}", source, (), NO_SYNTACTIC)


def mini_evaluator(rng: random.Random, pid: str, leaves: int,
                   pad: int) -> Program:
    """A Church-encoded expression interpreter over a balanced
    expression tree of ``leaves + pad // 2`` seeded constants (the
    intro's higher-order shape)."""
    leaves += pad // 2

    def tree(n: int) -> str:
        if n == 1:
            return f"(econst {rng.randint(0, 9)})"
        return f"((eadd {tree(n // 2)}) {tree(n - n // 2)})"

    source = (
        "(let (econst (lambda (n) (lambda (c) (lambda (a) (c n))))) "
        "(let (eadd (lambda (l) (lambda (r) (lambda (c2) (lambda (a2) "
        "((a2 l) r)))))) "
        "(let (ev (lambda (self) (lambda (e) ((e (lambda (n2) n2)) "
        "(lambda (l2) (lambda (r2) (+ ((self self) l2) "
        "((self self) r2)))))))) "
        f"(let (e1 {tree(leaves)}) ((ev ev) e1)))))"
    )
    return Program(pid, f"mini-evaluator-{leaves}", source, (),
                   PLAN_ANALYZERS)


def ackermann(rng: random.Random, pid: str, n: int, pad: int) -> Program:
    """Ackermann A(2, n) by self-application; syntactic-CPS is dropped
    (it runs for seconds before any budget stops it)."""
    inc = rng.choice(("(add1 n)", "(+ n 1)", "(+ 1 n)"))
    source = (
        "(let (ack (lambda (self) (lambda (m) (lambda (n) "
        f"(if0 m {inc} (if0 n (((self self) (- m 1)) 1) "
        "(((self self) (- m 1)) (((self self) m) (- n 1))))))))) "
        f"(((ack ack) 2) {n}))"
    )
    return Program(pid, f"ackermann-2-{n}", source, (), NO_SYNTACTIC)


#: The fixed cost structure of one `analyze-blowup` cycle, drawn once
#: per padding in ``BLOWUP_PADS`` (so costs spread without gaps between
#: K classes) with different contents.  Chains stop at K = 9:
#: conditional-chain-10 alone costs a quarter of a second.
BLOWUP_PADS = (0, 2, 4)
BLOWUP_SCHEDULE = (
    [(conditional_chain, k) for k in range(6, 10)]
    + [(top_conditional_chain, k) for k in range(6, 10)]
    + [(call_site_chain, k) for k in range(6, 10)]
    + [(mini_evaluator, n) for n in (4, 5, 6)]
    + [(ackermann, n) for n in (2, 3)]
)


def analyze_blowup_inputs(seed: int) -> list[Program]:
    """One `analyze-blowup` cycle: every family at every K, seeded
    contents and order."""
    rng = random.Random(f"analyze-blowup/{seed}")
    programs = [make(rng, f"b{pad}.{i}", k, pad)
                for pad in BLOWUP_PADS
                for i, (make, k) in enumerate(BLOWUP_SCHEDULE)]
    rng.shuffle(programs)
    return programs


# ----------------------------------------------------------------------
# serve-zipf request bodies
# ----------------------------------------------------------------------

ANALYZE_VARIANTS = (
    ("direct", "tree"), ("direct", "plan"),
    ("semantic-cps", "tree"), ("semantic-cps", "plan"),
    ("syntactic-cps", "tree"), ("syntactic-cps", "plan"),
    ("pushdown", "tree"),
)
OTHER_VARIANTS = ("compare-tree", "compare-plan", "lint", "run")


def request_body(program: Program, variant) -> tuple[str, dict]:
    """The (route, JSON body) of one request variant of ``program``."""
    if isinstance(variant, tuple):
        analyzer, engine = variant
        return "/v1/analyze", {"program": program.source,
                               "analyzer": analyzer, "engine": engine}
    if variant.startswith("compare-"):
        return "/v1/compare", {"program": program.source,
                               "engine": variant.split("-", 1)[1]}
    if variant == "lint":
        return "/v1/lint", {"program": program.source}
    return "/v1/run", {"program": program.source,
                       "assume": dict(program.assume)}


def serve_bodies(seed: int, count: int = 2000) -> list[tuple[str, dict, Program]]:
    """Distinct request bodies in Zipf rank order (rank 1 first), one
    program each.  What sits at each rank (route, variant and the
    program's shape) is fixed for every seed, so the popular bodies
    cost the same whatever the seed; the seed draws the programs'
    operands and constants.
    Four in five are `/v1/analyze` across analyzers and both engines;
    the rest are `/v1/compare` (tree or plan), `/v1/lint` or `/v1/run`."""
    shape = random.Random("serve-zipf/ranks")
    rng = random.Random(f"serve-zipf/{seed}")
    bodies = []
    for rank in range(count):
        t = shape.random()
        if shape.random() < 0.8:
            variant = shape.choice(ANALYZE_VARIANTS)
        else:
            variant = shape.choice(OTHER_VARIANTS)
        program = random_program(rng, f"s{rank}", round(2 * (5 ** t)),
                                 round(2 * t), free=shape.randint(1, 2),
                                 shape=shape)
        route, body = request_body(program, variant)
        bodies.append((route, body, program))
    return bodies


def zipf_sequence(rng: random.Random, distinct: int, length: int,
                  exponent: float) -> list[int]:
    """``length`` indices into ``range(distinct)``; index r is drawn
    with probability proportional to ``1 / (r + 1) ** exponent``."""
    import bisect
    import itertools

    cumulative = list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(distinct)))
    total = cumulative[-1]
    return [min(bisect.bisect_left(cumulative, rng.random() * total),
                distinct - 1) for _ in range(length)]


# ----------------------------------------------------------------------
# A concrete evaluator, the reference for /v1/run
# ----------------------------------------------------------------------


def _read(source: str):
    tokens = source.replace("(", " ( ").replace(")", " ) ").split()
    position = 0

    def datum():
        nonlocal position
        token = tokens[position]
        position += 1
        if token != "(":
            return token
        items = []
        while tokens[position] != ")":
            items.append(datum())
        position += 1
        return items

    return datum()


def evaluate(source: str, assume: dict) -> int:
    """Run a generated program on integer inputs (call by value).
    Written independently of `repro`, so a wrong `/v1/run` answer
    cannot also be the reference."""
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b}

    def ev(expr, env):
        if isinstance(expr, str):
            if expr.isdigit():
                return int(expr)
            if expr == "add1":
                return lambda v: v + 1
            if expr == "sub1":
                return lambda v: v - 1
            return env[expr]
        head = expr[0]
        if head == "lambda":
            (param,), body = expr[1], expr[2]
            return lambda v: ev(body, {**env, param: v})
        if head == "let":
            (name, rhs), body = expr[1], expr[2]
            return ev(body, {**env, name: ev(rhs, env)})
        if head == "if0":
            branch = expr[2] if ev(expr[1], env) == 0 else expr[3]
            return ev(branch, env)
        if head in ops:
            return ops[head](ev(expr[1], env), ev(expr[2], env))
        return ev(head, env)(ev(expr[1], env))

    return ev(_read(source), dict(assume))
