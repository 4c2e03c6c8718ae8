"""`parse` against the positioned reader it falls back to.

`parse` reads source into position-free datums and re-reads malformed
input with `read`; `_parse_datum(read(s))` is that positioned path.
The two must give equal terms on every well-formed input and the same
`ParseError` (message, line and column) on every malformed one.
"""

import random

import pytest

from repro.corpus.programs import PROGRAMS
from repro.gen import random_closed_term, random_open_term
from repro.lang.errors import ParseError
from repro.lang.parser import _parse_datum, parse, read
from repro.lang.pretty import pretty, pretty_flat


def positioned(source):
    return _parse_datum(read(source))


def outcome(path, source):
    """The term, or the error as (message, line, column)."""
    try:
        return path(source)
    except ParseError as error:
        return (error.message, error.line, error.column)


def assert_same(source):
    fast = outcome(parse, source)
    assert fast == outcome(positioned, source)
    return fast


class TestWellFormed:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_corpus(self, name):
        term = PROGRAMS[name].term
        for source in (pretty(term), pretty(term, width=20), pretty_flat(term)):
            assert assert_same(source) == term

    @pytest.mark.parametrize("seed", range(40))
    def test_random_terms(self, seed):
        rng = random.Random(seed)
        for term in (
            random_closed_term(rng, max_depth=5),
            random_open_term(rng, max_depth=5),
        ):
            assert assert_same(pretty(term)) == term
            assert assert_same(pretty_flat(term)) == term

    @pytest.mark.parametrize(
        "source",
        [
            "; leading comment\n(let (x 1) ; bind x\n  (add1 x)) ; done",
            "(let\t(x\t1)\t(add1\tx))",
            "(let (x 1)\r\n  (add1 x))\r\n",
            "((lambda (x) x)(add1 2))",
            "(let(x(loop))(if0 x(+ x 1)(- x -2)))",
            "(f;comment right after an atom\nx)",
            "(f x);trailing comment without newline",
            "x\r",
            "+7",
            "-0",
            "(* a+b c-d)",
            # only space, tab, CR and LF separate atoms
            "(f\u00a0x y)",
            "(g\x0c 1)",
        ],
    )
    def test_layout(self, source):
        assert not isinstance(assert_same(source), tuple)


class TestMalformed:
    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("", "empty input", 0, 0),
            ("  ; only a comment\n", "empty input", 0, 0),
            ("()", "empty application ()", 1, 1),
            ("(f (g ()))", "empty application ()", 1, 7),
            ("(f 1", "unclosed parenthesis", 1, 1),
            ("(let (x 1)\n  (f x)", "unclosed parenthesis", 1, 1),
            (")", "unexpected ')'", 1, 1),
            ("(f 1))", "trailing input ')'", 1, 6),
            ("(f\n))", "trailing input ')'", 2, 2),
            ("(f 1) extra", "trailing input 'extra'", 1, 7),
            ("1 2", "trailing input '2'", 1, 3),
            ("lambda", "reserved word 'lambda' is not a term", 1, 1),
            ("(f let)", "reserved word 'let' is not a term", 1, 4),
            ("(let (x 1)\n  (g if0))", "reserved word 'if0' is not a term", 2, 6),
            ("(lambda (x) loop)", "reserved word 'loop' is not a term", 1, 13),
            ("(+ 1 *)", "reserved word '*' is not a term", 1, 6),
            (
                "(let (if0 1) 2)",
                "reserved word 'if0' cannot be a let-bound name",
                1,
                7,
            ),
            (
                "(lambda (+) 1)",
                "reserved word '+' cannot be a parameter name",
                1,
                10,
            ),
            ("(let (7 1) 2)", "expected a let-bound name, got number 7", 1, 7),
            (
                "(lambda (-3) 1)",
                "expected a parameter name, got number -3",
                1,
                10,
            ),
            ("(let ((x) 1) 2)", "expected a let-bound name", 1, 7),
            ("(lambda ((x)) x)", "expected a parameter name", 1, 10),
            ("(lambda (x) x x)", "lambda takes 2 operands, got 3", 1, 1),
            ("(lambda (x))", "lambda takes 2 operands, got 1", 1, 1),
            ("(let (x 1))", "let takes 2 operands, got 1", 1, 1),
            ("(let (x 1) x x)", "let takes 2 operands, got 3", 1, 1),
            ("(if0 1 2)", "if0 takes 3 operands, got 2", 1, 1),
            ("(if0 1 2 3 4)", "if0 takes 3 operands, got 4", 1, 1),
            ("(loop 1)", "loop takes 0 operands, got 1", 1, 1),
            ("(+ 1)", "+ takes 2 operands, got 1", 1, 1),
            ("(- 1 2 3)", "- takes 2 operands, got 3", 1, 1),
            ("(*)", "* takes 2 operands, got 0", 1, 1),
            ("(f 1 2)", "application takes 1 operand, got 2", 1, 1),
            ("(add1)", "application takes 1 operand, got 0", 1, 1),
            ("(f\x0bx)", "application takes 1 operand, got 0", 1, 1),
            (
                "(lambda x x)",
                "lambda takes a single-parameter list, e.g. (lambda (x) M)",
                1,
                1,
            ),
            (
                "(lambda (x y) x)",
                "lambda takes a single-parameter list, e.g. (lambda (x) M)",
                1,
                1,
            ),
            (
                "(lambda () x)",
                "lambda takes a single-parameter list, e.g. (lambda (x) M)",
                1,
                1,
            ),
            (
                "(let x 1)",
                "let takes a binding pair, e.g. (let (x M) M)",
                1,
                1,
            ),
            ("(let x 1 2)", "let takes 2 operands, got 3", 1, 1),
            (
                "(let (x) 2)",
                "let takes a binding pair, e.g. (let (x M) M)",
                1,
                1,
            ),
            (
                "(let (x 1 2) 3)",
                "let takes a binding pair, e.g. (let (x M) M)",
                1,
                1,
            ),
            (
                "(f\t(let (y 2)\r\n (h (g))))",
                "application takes 1 operand, got 0",
                2,
                5,
            ),
        ],
    )
    def test_error_catalogue(self, source, message, line, column):
        assert assert_same(source) == (message, line, column)

    def test_first_error_in_reading_order_wins(self):
        # Both operands are bad; the error names the first one.
        assert assert_same("(+ (g) (let (x 1) y z))") == (
            "application takes 1 operand, got 0",
            1,
            4,
        )
        assert assert_same("(if0 lambda () 1)") == (
            "reserved word 'lambda' is not a term",
            1,
            6,
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_mutated_sources(self, seed):
        """Cut, duplicated and stray tokens in random programs: the two
        paths agree on the term or on the whole error."""
        rng = random.Random(seed)
        source = pretty(random_open_term(rng, max_depth=4), width=30)
        for _ in range(25):
            cut = rng.randrange(len(source) + 1)
            junk = rng.choice(["(", ")", "()", " lambda ", " 1 ", ";", "\n"])
            assert_same(source[:cut] + junk + source[cut:])
            assert_same(source[:cut])
