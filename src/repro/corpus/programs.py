"""The paper's witness programs and parametric program families.

Each witness carries the initial-store assumptions under which the
paper states its theorem, so tests, benchmarks and examples all run
the exact same configuration.

The parametric families (`conditional_chain`, `call_site_chain`,
`loop_feeding_conditional`) generate the workloads of the Section 6.2
cost and computability experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.analysis.common import AbsClo
from repro.anf import normalize
from repro.domains.absval import AbsVal, Lattice
from repro.lang.ast import Num, Term, Var
from repro.lang.parser import parse


@dataclass(frozen=True)
class CorpusProgram:
    """A named program plus the free-variable assumptions it is
    analyzed under.

    ``initial`` is a builder: given the lattice, it produces the
    initial abstract store contents (closures must be built against
    the lattice's domain-independent closure sets, but numbers need
    the domain, hence the indirection).
    """

    name: str
    description: str
    term: Term
    initial: Callable[[Lattice], Mapping[str, AbsVal]]
    #: True for programs whose *syntactic-CPS* analysis blows up
    #: (Section 6.2 duplication x false returns); corpus-wide analyzer
    #: sweeps skip these unless they set an explicit work budget.
    heavy: bool = False

    def initial_for(self, lattice: Lattice) -> dict[str, AbsVal]:
        """The initial store contents for ``lattice``."""
        return dict(self.initial(lattice))


def _anf(source: str) -> Term:
    return normalize(parse(source), ensure_unique=False)


# ----------------------------------------------------------------------
# Theorem 5.1: the direct analysis can beat the syntactic-CPS analysis
# ----------------------------------------------------------------------

#: Paper Section 5.1 proof witness: ``(let (a1 (f 1)) (let (a2 (f 2)) a2))``
#: with ``f`` bound to the identity closure ``(cle x, x)``.  The direct
#: analysis proves ``a1 = 1``; the CPS analysis merges the two
#: continuations flowing to the identity's k-parameter (a *false
#: return*) and loses it.
THEOREM_51_WITNESS = CorpusProgram(
    name="theorem-5.1",
    description="false returns: direct proves a1=1, syntactic-CPS does not",
    term=parse("(let (a1 (f 1)) (let (a2 (f 2)) a2))"),
    initial=lambda lat: {"f": lat.of_clos(AbsClo("x", Var("x")))},
)

#: Shivers' 0CFA example ([16] p.33, discussed in Section 6.1): the
#: same false-return confusion, phrased with two call sites of an
#: identity procedure defined in the program itself.
SHIVERS_EXAMPLE = CorpusProgram(
    name="shivers-p33",
    description="Shivers' example: 0CFA of CPS merges distinct returns",
    term=_anf(
        """(let (id (lambda (x) x))
             (let (a1 (id 1))
               (let (a2 (id 2))
                 a2)))"""
    ),
    initial=lambda lat: {},
)

# ----------------------------------------------------------------------
# Theorem 5.2: the syntactic-CPS analysis can beat the direct analysis
# ----------------------------------------------------------------------

#: Paper Section 5.1, Theorem 5.2 first case: a conditional join.  The
#: direct analysis merges ``a1 in {0, 1}`` to ⊤ before analyzing the
#: second conditional and loses ``a2``; the CPS analysis re-analyzes
#: the continuation per branch and proves ``a2 = 3``.
THEOREM_52_CONDITIONAL = CorpusProgram(
    name="theorem-5.2-conditional",
    description="duplication at a conditional: CPS proves a2=3, direct does not",
    term=_anf(
        """(let (a1 (if0 x 0 1))
             (let (a2 (if0 a1 (+ a1 3) (+ a1 2)))
               a2))"""
    ),
    initial=lambda lat: {"x": lat.of_num(lat.domain.top)},
)

#: Paper Section 5.1, Theorem 5.2 second case: two closures at one
#: call site.  ``f`` is bound to closures returning 0 and 1; the direct
#: analysis joins the two results at ``a1``, the CPS analysis analyzes
#: the continuation once per closure and proves ``a2 = 5``.
THEOREM_52_TWO_CLOSURES = CorpusProgram(
    name="theorem-5.2-two-closures",
    description="duplication at a call: CPS proves a2=5, direct does not",
    term=_anf(
        """(let (a1 (f 3))
             (let (a2 (if0 a1 5 (if0 (sub1 a1) 5 6)))
               a2))"""
    ),
    initial=lambda lat: {
        "f": lat.of_clos(AbsClo("d0", Num(0)), AbsClo("d1", Num(1)))
    },
)


# ----------------------------------------------------------------------
# Closed sample programs (analyzed with empty assumptions)
# ----------------------------------------------------------------------


def _closed(
    name: str, description: str, source: str, heavy: bool = False
) -> CorpusProgram:
    return CorpusProgram(
        name, description, _anf(source), lambda lat: {}, heavy
    )


PROGRAMS: dict[str, CorpusProgram] = {
    p.name: p
    for p in [
        THEOREM_51_WITNESS,
        SHIVERS_EXAMPLE,
        THEOREM_52_CONDITIONAL,
        THEOREM_52_TWO_CLOSURES,
        _closed(
            "constants",
            "straight-line constant arithmetic",
            "(let (a (+ 1 2)) (let (b (* a a)) (let (c (- b 4)) c)))",
        ),
        _closed(
            "higher-order",
            "closures flowing through higher-order calls",
            """(let (twice (lambda (f) (lambda (n) (f (f n)))))
                 (let (inc2 (twice add1))
                   (inc2 0)))""",
        ),
        _closed(
            "branchy",
            "conditionals with a statically known test",
            "(let (t (if0 0 10 20)) (let (u (if0 t 1 2)) (+ t u)))",
        ),
        _closed(
            "factorial",
            "recursion through self-application",
            """(let (fact (lambda (self)
                            (lambda (n)
                              (if0 n 1 (* n ((self self) (- n 1)))))))
                 ((fact fact) 6))""",
        ),
        _closed(
            "even-odd",
            "mutual recursion encoded with a selector",
            """(let (mk (lambda (self)
                          (lambda (flag)
                            (lambda (n)
                              (if0 n
                                (if0 flag 1 0)
                                (((self self) (- 1 flag)) (- n 1)))))))
                 (((mk mk) 0) 10))""",
        ),
        _closed(
            "church",
            "Church numerals: three applied to add1",
            """(let (three (lambda (f) (lambda (z) (f (f (f z))))))
                 ((three add1) 0))""",
        ),
        _closed(
            "church-pairs",
            "Church-encoded pairs: construct, project, sum",
            """(let (pair (lambda (x) (lambda (y) (lambda (f) ((f x) y)))))
                 (let (fst (lambda (p) (p (lambda (a) (lambda (b) a)))))
                   (let (snd (lambda (q) (q (lambda (c) (lambda (d) d)))))
                     (let (pr ((pair 3) 4))
                       (+ (fst pr) (snd pr))))))""",
        ),
        _closed(
            "mini-evaluator",
            "Church-encoded expression interpreter evaluating "
            "(1+2)+(3+4) — the higher-order workload the paper's "
            "intro motivates",
            """(let (econst (lambda (n) (lambda (c) (lambda (a) (c n)))))
                 (let (eadd (lambda (l)
                              (lambda (r)
                                (lambda (c2) (lambda (a2) ((a2 l) r))))))
                   (let (ev (lambda (self)
                              (lambda (e)
                                ((e (lambda (n2) n2))
                                 (lambda (l2)
                                   (lambda (r2)
                                     (+ ((self self) l2)
                                        ((self self) r2))))))))
                     (let (e1 ((eadd ((eadd (econst 1)) (econst 2)))
                               ((eadd (econst 3)) (econst 4))))
                       ((ev ev) e1)))))""",
        ),
        _closed(
            "ackermann",
            "Ackermann A(2, 3) via self-application "
            "(blows up the syntactic-CPS analyzer)",
            """(let (ack (lambda (self)
                           (lambda (m)
                             (lambda (n)
                               (if0 m
                                 (add1 n)
                                 (if0 n
                                   (((self self) (- m 1)) 1)
                                   (((self self) (- m 1))
                                    (((self self) m) (- n 1)))))))))
                 (((ack ack) 2) 3))""",
            heavy=True,
        ),
    ]
}


def corpus_program(name: str) -> CorpusProgram:
    """Look up a corpus program by name."""
    try:
        return PROGRAMS[name]
    except KeyError:
        raise KeyError(
            f"unknown corpus program {name!r}; available: {sorted(PROGRAMS)}"
        ) from None


# ----------------------------------------------------------------------
# Parametric workload families (Section 6.2 experiments)
# ----------------------------------------------------------------------


def conditional_chain(k: int) -> CorpusProgram:
    """A chain of ``k`` conditionals on *independent* unknown tests.

    Every test stays unknown on every path, so the CPS analyzers
    duplicate the rest of the chain at each conditional — 2^k paths,
    the Section 6.2 exponential-cost workload.  The source shape
    (before normalization)::

        (let (a1 (if0 x1 1 2))
          (let (a2 (if0 x2 (+ a1 1) (+ a1 2)))
            ...
              ak))
    """
    if k < 1:
        raise ValueError("chain length must be >= 1")
    lines = ["(let (a1 (if0 x1 1 2))"]
    for i in range(2, k + 1):
        lines.append(
            f"(let (a{i} (if0 x{i} (+ a{i-1} 1) (+ a{i-1} 2)))"
        )
    body = f"a{k}" + ")" * k
    source = "\n".join(lines) + "\n" + body
    return CorpusProgram(
        name=f"conditional-chain-{k}",
        description=f"{k} independent unknown conditionals",
        term=_anf(source),
        initial=lambda lat: {
            f"x{i}": lat.of_num(lat.domain.top) for i in range(1, k + 1)
        },
    )


def top_conditional_chain(k: int) -> CorpusProgram:
    """A chain of ``k`` unknown conditionals whose branches *agree*.

    Both arms of every conditional return a value computed once from
    the same unknown ``y`` (``p = (+ y 1)`` vs ``q = (+ y 2)``, both ⊤
    under constant propagation), so the two duplicated continuations
    see identical stores.  The CPS analyzers still walk all 2^k paths
    — the duplication is syntactic — but the `repro.perf` eval cache
    collapses the redundant re-analyses to O(k): the memoization
    showcase workload.
    """
    if k < 1:
        raise ValueError("chain length must be >= 1")
    lines = ["(let (p (+ y 1))", "(let (q (+ y 2))"]
    for i in range(1, k + 1):
        lines.append(f"(let (a{i} (if0 x{i} p q))")
    body = f"a{k}" + ")" * (k + 2)
    source = "\n".join(lines) + "\n" + body
    return CorpusProgram(
        name=f"top-conditional-chain-{k}",
        description=f"{k} unknown conditionals with store-identical arms",
        term=_anf(source),
        initial=lambda lat: {
            "y": lat.of_num(lat.domain.top),
            **{
                f"x{i}": lat.of_num(lat.domain.top)
                for i in range(1, k + 1)
            },
        },
    )


def call_site_chain(k: int) -> CorpusProgram:
    """A chain of ``k`` calls to a two-closure variable.

    Each call site has two abstract callees, so the CPS analyzers
    duplicate the continuation twice per call — 2^k paths in total.
    """
    if k < 1:
        raise ValueError("chain length must be >= 1")
    lines = ["(let (a1 (f 0))"]
    for i in range(2, k + 1):
        lines.append(f"(let (a{i} (f a{i-1}))")
    body = f"a{k}" + ")" * k
    source = "\n".join(lines) + "\n" + body
    return CorpusProgram(
        name=f"call-site-chain-{k}",
        description=f"{k} calls of a two-closure function",
        term=_anf(source),
        initial=lambda lat: {
            "f": lat.of_clos(AbsClo("p0", Num(0)), AbsClo("p1", Num(1)))
        },
    )


def ackermann_open(addend: int = 1) -> CorpusProgram:
    """Ackermann applied to an *unknown* second argument.

    The argument is ``u = (+ y addend)`` with ``y`` bound to ⊤, so
    ``u`` is ⊤ for every ``addend``: changing the constant edits the
    program without changing any abstract value at the call site.
    Unlike the closed ``ackermann`` program, whose concrete argument
    flows into every judgment's entry store, every judgment here sees
    ⊤, so the engine differential covers the recursive derivation on
    an open input.
    """
    source = f"""(let (ack (lambda (self)
                       (lambda (m)
                         (lambda (n)
                           (if0 m
                             (add1 n)
                             (if0 n
                               (((self self) (- m 1)) 1)
                               (((self self) (- m 1))
                                (((self self) m) (- n 1)))))))))
             (let (u (+ y {addend}))
               (((ack ack) 2) u)))"""
    return CorpusProgram(
        name=f"ackermann-open-{addend}",
        description=f"Ackermann A(2, y+{addend}) on an unknown y",
        term=_anf(source),
        initial=lambda lat: {"y": lat.of_num(lat.domain.top)},
        heavy=True,
    )


def loop_feeding_conditional(threshold: int) -> CorpusProgram:
    """The Section 6.2 computability workload.

    ``loop`` feeds every natural into a continuation that compares the
    value against ``threshold``.  The direct analysis returns ⊤-based
    facts immediately; the exact CPS analyses would need the
    undecidable infinite join (and a finite unrolling keeps changing
    its answer as the bound crosses ``threshold``).
    """
    source = f"""(let (i (loop))
                   (let (r (if0 (- i {threshold}) 111 222))
                     r))"""
    return CorpusProgram(
        name=f"loop-threshold-{threshold}",
        description=f"loop feeding a conditional with threshold {threshold}",
        term=_anf(source),
        initial=lambda lat: {},
    )


def loop_threshold_open(threshold: int = 10, addend: int = 1) -> CorpusProgram:
    """The `loop_feeding_conditional` workload with an edit knob.

    Like `ackermann_open`, ``addend`` is an abstract-value-neutral
    constant: the loop result feeds ``(+ i addend)`` with ``i`` already
    ⊤ (or cut, per analyzer loop mode), so ``u`` is the same abstract
    value for every ``addend`` — changing the constant is a
    one-sub-term edit that leaves every analyzer's answer intact.
    """
    source = f"""(let (i (loop))
                   (let (u (+ i {addend}))
                     (let (r (if0 (- u {threshold}) 111 222))
                       r)))"""
    return CorpusProgram(
        name=f"loop-threshold-open-{threshold}-{addend}",
        description=(
            f"loop feeding (+ i {addend}) into a threshold-{threshold} "
            "conditional (abstract-value-neutral edit knob)"
        ),
        term=_anf(source),
        initial=lambda lat: {},
    )


# ----------------------------------------------------------------------
# Discovery: the listing served by `python -m repro corpus` and the
# service's GET /v1/corpus, so clients can find valid program names
# without reading source.
# ----------------------------------------------------------------------

#: The parametric families, by name template.  Instantiations like
#: ``conditional-chain-8`` are built on demand by the generators; the
#: fixed-name corpus (`PROGRAMS`) is what the service accepts.
FAMILIES: dict[str, tuple] = {
    "conditional-chain-K": (
        conditional_chain,
        "K independent unknown conditionals (2^K-path CPS blowup)",
    ),
    "top-conditional-chain-K": (
        top_conditional_chain,
        "K unknown conditionals with store-identical arms (memo showcase)",
    ),
    "call-site-chain-K": (
        call_site_chain,
        "K calls of a two-closure function (2^K duplicated continuations)",
    ),
    "loop-threshold-T": (
        loop_feeding_conditional,
        "loop feeding a conditional with threshold T (Section 6.2)",
    ),
    "loop-threshold-open-T-D": (
        loop_threshold_open,
        "loop feeding (+ i D) into a threshold-T conditional "
        "(abstract-value-neutral edit knob)",
    ),
    "ackermann-open-D": (
        ackermann_open,
        "Ackermann A(2, y+D) on an unknown y",
    ),
}


def corpus_listing() -> dict:
    """A JSON-ready index of the corpus: fixed witness programs plus
    the parametric family templates."""
    return {
        "programs": [
            {
                "name": program.name,
                "description": program.description,
                "heavy": program.heavy,
            }
            for program in sorted(PROGRAMS.values(), key=lambda p: p.name)
        ],
        "families": [
            {"name": name, "description": description}
            for name, (_, description) in sorted(FAMILIES.items())
        ],
    }
