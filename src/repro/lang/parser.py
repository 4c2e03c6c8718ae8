"""An s-expression parser for the source language A.

Concrete syntax (comments start with ``;`` and run to end of line)::

    M ::= n | x | add1 | sub1
        | (lambda (x) M)
        | (M M)
        | (let (x M) M)
        | (if0 M M M)
        | (+ M M) | (- M M) | (* M M)
        | (loop)

:func:`parse` reads the source once: one compiled regex splits it into
tokens, which nest into *plain* datums (a ``str`` per atom, a ``list``
per parenthesized form), and :func:`_build` turns those into
:mod:`repro.lang.ast` terms.  Nothing on that path records a source
position.  Only malformed input is read a second time, by the
positioned reader (:func:`tokenize` and :func:`read`, which produce
`Atom` and `SList` datums carrying line and column), so that every
`ParseError` points at the offending token.  The form rules (arities,
reserved words, numerals) exist once, in :func:`_build`: a positioned
datum is checked by stripping it to its plain twin and mapping a broken
rule back to the position it came from.  ``repro.lint`` and the cps(A)
parser read with the positioned reader as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

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
    FIRST_CLASS_PRIMS,
    SECOND_CLASS_OPS,
)
from repro.lang.errors import ParseError

#: Words that cannot be used as variable names.
RESERVED_WORDS = frozenset(
    {"lambda", "let", "if0", "loop", "add1", "sub1"} | set(SECOND_CLASS_OPS)
)


@dataclass(frozen=True, slots=True)
class Token:
    """A lexical token with its source position (1-based)."""

    text: str
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class Atom:
    """A leaf s-expression datum: a number or a symbol."""

    text: str
    line: int
    column: int


@dataclass(frozen=True, slots=True)
class SList:
    """A parenthesized s-expression datum."""

    items: tuple["Datum", ...]
    line: int
    column: int


Datum = Union[Atom, SList]

_DELIMITERS = "()"
_WHITESPACE = " \t\r\n"


def tokenize(source: str) -> Iterator[Token]:
    """Yield the tokens of ``source``, skipping whitespace and comments."""
    line, column = 1, 1
    index = 0
    length = len(source)
    while index < length:
        char = source[index]
        if char == "\n":
            index += 1
            line += 1
            column = 1
        elif char in _WHITESPACE:
            index += 1
            column += 1
        elif char == ";":
            while index < length and source[index] != "\n":
                index += 1
        elif char in _DELIMITERS:
            yield Token(char, line, column)
            index += 1
            column += 1
        else:
            start = index
            start_column = column
            while (
                index < length
                and source[index] not in _WHITESPACE
                and source[index] not in _DELIMITERS
                and source[index] != ";"
            ):
                index += 1
                column += 1
            yield Token(source[start:index], line, start_column)


def _read_datum(tokens: list[Token], position: int) -> tuple[Datum, int]:
    """Read one datum starting at ``tokens[position]``."""
    if position >= len(tokens):
        raise ParseError("unexpected end of input")
    token = tokens[position]
    if token.text == "(":
        items: list[Datum] = []
        cursor = position + 1
        while True:
            if cursor >= len(tokens):
                raise ParseError(
                    "unclosed parenthesis", token.line, token.column
                )
            if tokens[cursor].text == ")":
                return SList(tuple(items), token.line, token.column), cursor + 1
            datum, cursor = _read_datum(tokens, cursor)
            items.append(datum)
    if token.text == ")":
        raise ParseError("unexpected ')'", token.line, token.column)
    return Atom(token.text, token.line, token.column), position + 1


def read(source: str) -> Datum:
    """Read exactly one s-expression datum from ``source``."""
    tokens = list(tokenize(source))
    if not tokens:
        raise ParseError("empty input")
    datum, position = _read_datum(tokens, 0)
    if position != len(tokens):
        trailing = tokens[position]
        raise ParseError(
            f"trailing input {trailing.text!r}", trailing.line, trailing.column
        )
    return datum


def _is_number(text: str) -> bool:
    body = text[1:] if text[:1] in "+-" else text
    return body.isdigit() and bool(body)


# ----------------------------------------------------------------------
# Position-free datums and the form rules
# ----------------------------------------------------------------------

#: One match per token: a parenthesis, an atom, or a comment (dropped).
#: Whitespace is exactly `tokenize`'s: space, tab, CR and LF.
_TOKEN = re.compile(r"[()]|[^ \t\r\n();]+|;[^\n]*")

#: A position-free datum: an atom's text, or a list of datums.
_Plain = Union[str, list]


class _Malformed(Exception):
    """A plain datum that is not one term.

    ``message`` is None when the source does not read as one datum (the
    positioned `read` says why).  Otherwise a form rule is broken, at
    ``holder[index]``; at ``holder`` itself when ``index`` is None; at
    the root datum when ``holder`` is None too.
    """

    def __init__(
        self,
        message: str | None = None,
        holder: list | None = None,
        index: int | None = None,
    ) -> None:
        super().__init__(message)
        self.message = message
        self.holder = holder
        self.index = index


def _read_plain(source: str) -> _Plain:
    """Read exactly one plain datum from ``source`` (raises `_Malformed`
    wherever `read` raises `ParseError`)."""
    stack: list[list] = []
    items: list = []
    for token in _TOKEN.findall(source):
        if token == "(":
            stack.append(items)
            items = []
        elif token == ")":
            if not stack:
                raise _Malformed()
            done = items
            items = stack.pop()
            items.append(done)
        elif token[0] != ";":
            items.append(token)
    if stack or len(items) != 1:
        raise _Malformed()
    return items[0]


def _build(
    datum: _Plain, holder: list | None = None, index: int | None = None
) -> Term:
    """The term of the plain ``datum``, which is ``holder[index]`` (the
    root when ``holder`` is None).  Every form rule of A (arities,
    reserved words, numerals) is checked here and nowhere else."""
    if type(datum) is str:
        if _is_number(datum):
            return Num(int(datum))
        if datum in FIRST_CLASS_PRIMS:
            return Prim(datum)
        if datum in RESERVED_WORDS:
            raise _Malformed(
                f"reserved word {datum!r} is not a term", holder, index
            )
        return Var(datum)
    if not datum:
        raise _Malformed("empty application ()", datum)
    head = datum[0]
    if type(head) is str:
        if head == "let":
            _expect_items(datum, 3, "let")
            binding = datum[1]
            if type(binding) is not list or len(binding) != 2:
                raise _Malformed(
                    "let takes a binding pair, e.g. (let (x M) M)", datum
                )
            return Let(
                _binder_name(binding, "let-bound"),
                _build(binding[1], binding, 1),
                _build(datum[2], datum, 2),
            )
        if head == "lambda":
            _expect_items(datum, 3, "lambda")
            params = datum[1]
            if type(params) is not list or len(params) != 1:
                raise _Malformed(
                    "lambda takes a single-parameter list, "
                    "e.g. (lambda (x) M)",
                    datum,
                )
            return Lam(
                _binder_name(params, "parameter"), _build(datum[2], datum, 2)
            )
        if head == "if0":
            _expect_items(datum, 4, "if0")
            return If0(
                _build(datum[1], datum, 1),
                _build(datum[2], datum, 2),
                _build(datum[3], datum, 3),
            )
        if head == "loop":
            _expect_items(datum, 1, "loop")
            return Loop()
        arity = SECOND_CLASS_OPS.get(head)
        if arity is not None:
            _expect_items(datum, arity + 1, head)
            return PrimApp(
                head,
                tuple(_build(datum[i], datum, i) for i in range(1, arity + 1)),
            )
    if len(datum) != 2:
        raise _Malformed(
            f"application takes 1 operand, got {len(datum) - 1}", datum
        )
    return App(_build(head, datum, 0), _build(datum[1], datum, 1))


def _binder_name(holder: list, role: str) -> str:
    """The name bound by ``holder[0]``."""
    datum = holder[0]
    if type(datum) is not str:
        raise _Malformed(f"expected a {role} name", holder, 0)
    if _is_number(datum):
        raise _Malformed(
            f"expected a {role} name, got number {datum}", holder, 0
        )
    if datum in RESERVED_WORDS:
        raise _Malformed(
            f"reserved word {datum!r} cannot be a {role} name", holder, 0
        )
    return datum


def _expect_items(datum: list, count: int, form: str) -> None:
    if len(datum) != count:
        raise _Malformed(
            f"{form} takes {count - 1} operands, got {len(datum) - 1}", datum
        )


# ----------------------------------------------------------------------
# Positioned datums
# ----------------------------------------------------------------------


def _parse_datum(datum: Datum) -> Term:
    """The term of a positioned datum; a broken form rule raises
    `ParseError` at the position of the offending datum."""
    places: dict[int, SList] = {}
    plain = _strip(datum, places)
    try:
        return _build(plain)
    except _Malformed as bad:
        where: Datum = datum
        if bad.holder is not None:
            where = places[id(bad.holder)]
            if bad.index is not None:
                where = where.items[bad.index]
        raise ParseError(bad.message, where.line, where.column) from None


def _strip(datum: Datum, places: dict[int, SList]) -> _Plain:
    """The plain twin of ``datum``; ``places`` maps each of its lists
    (by ``id``) back to the `SList` it came from."""
    if isinstance(datum, Atom):
        return datum.text
    items = [_strip(item, places) for item in datum.items]
    places[id(items)] = datum
    return items


def parse(source: str) -> Term:
    """Parse a single A term from concrete syntax.

    >>> parse("(let (x 1) (add1 x))")
    Let(name='x', rhs=Num(value=1), body=App(fun=Prim(name='add1'), arg=Var(name='x')))
    """
    try:
        return _build(_read_plain(source))
    except _Malformed:
        pass
    # Malformed: the positioned reader finds the error's message and place.
    return _parse_datum(read(source))


def parse_program(source: str) -> Term:
    """Parse a program: one term, with surrounding comments allowed.

    Provided as a named entry point for symmetry with other frontends;
    currently a program is a single term.
    """
    return parse(source)
