"""Structural validation for cps(A) terms.

Checks grammar membership, the KVars/Vars disjointness convention, and
scoping of continuation variables (each ``(k W)`` return must refer to
a continuation variable in scope: a `CLam` k-parameter, a `CIf0` join
binding, or the program's top continuation).

Two layers, mirroring :mod:`repro.anf.validate`:

- :func:`cps_violations` collects every problem as a recoverable
  `repro.lang.errors.Violation` (rule keys ``kvar-namespace``,
  ``unbound-continuation``, ``not-in-cps``) for the `repro.lint`
  syntactic passes.
- :func:`validate_cps` keeps the historical raising API as a thin
  wrapper raising a `SyntaxValidationError` for the first violation.
"""

from __future__ import annotations

from typing import Iterator

from repro.cps.ast import (
    CApp,
    CIf0,
    CLam,
    CLet,
    CLoop,
    CNum,
    CPrim,
    CPrimLet,
    CTerm,
    CValue,
    CVar,
    KApp,
    KLam,
    CTERM_CLASSES,
)
from repro.lang.errors import SyntaxValidationError, Violation

#: Rule keys produced by :func:`cps_violations`.
RULE_KVAR_NAMESPACE = "kvar-namespace"
RULE_UNBOUND_CONTINUATION = "unbound-continuation"
RULE_NOT_IN_CPS = "not-in-cps"


def is_cps_term(term: object) -> bool:
    """True when ``term`` is a serious cps(A) term (shallow check)."""
    return isinstance(term, CTERM_CLASSES)


def cps_subterms(term: CTerm) -> Iterator[CTerm | CValue | KLam]:
    """Yield all serious terms, values, and continuation lambdas inside
    ``term``, pre-order."""
    stack: list[CTerm | CValue | KLam] = [term]
    while stack:
        current = stack.pop()
        yield current
        match current:
            case KApp(_, value):
                stack.append(value)
            case CLet(_, value, body):
                stack.extend((body, value))
            case CApp(fun, arg, kont):
                stack.extend((kont, arg, fun))
            case CIf0(_, kont, test, then, orelse):
                stack.extend((orelse, then, test, kont))
            case CPrimLet(_, _, args, body):
                stack.append(body)
                stack.extend(reversed(args))
            case CLoop(kont):
                stack.append(kont)
            case CLam(_, _, body):
                stack.append(body)
            case KLam(_, body):
                stack.append(body)
            case _:
                pass


def cps_violations(
    term: CTerm, top_kvars: frozenset[str] = frozenset()
) -> list[Violation]:
    """Every structural problem keeping ``term`` out of the cps(A)
    image, as recoverable records (empty when the term is valid).

    Args:
        term: the cps(A) program to check.
        top_kvars: continuation variables assumed bound by the initial
            environment (usually ``{TOP_KVAR}``).
    """
    out: list[Violation] = []
    _check(term, top_kvars, out)
    return out


def validate_cps(term: CTerm, top_kvars: frozenset[str] = frozenset()) -> None:
    """Raise `SyntaxValidationError` unless ``term`` is well-formed.

    Thin wrapper over :func:`cps_violations`; the exception carries the
    first violation's rule key and subject.

    Args:
        term: the cps(A) program to check.
        top_kvars: continuation variables assumed bound by the initial
            environment (usually ``{TOP_KVAR}``).
    """
    violations = cps_violations(term, top_kvars)
    if violations:
        raise SyntaxValidationError.from_violation(violations[0])


def _check_value(value: CValue, out: list[Violation]) -> None:
    match value:
        case CNum() | CPrim():
            return
        case CVar(name):
            if name.startswith("k/"):
                out.append(
                    Violation(
                        RULE_KVAR_NAMESPACE,
                        f"source variable {name!r} uses the continuation "
                        f"namespace",
                        name,
                    )
                )
            return
        case CLam(param, kparam, body):
            if not kparam.startswith("k/"):
                out.append(
                    Violation(
                        RULE_KVAR_NAMESPACE,
                        f"continuation parameter {kparam!r} must use the "
                        f"k/ namespace",
                        kparam,
                    )
                )
            _check(body, frozenset((kparam,)), out)
            return
    out.append(
        Violation(RULE_NOT_IN_CPS, f"not a cps(A) value: {value!r}")
    )


def _check(term: CTerm, kvars: frozenset[str], out: list[Violation]) -> None:
    match term:
        case KApp(kvar, value):
            if kvar not in kvars:
                out.append(
                    Violation(
                        RULE_UNBOUND_CONTINUATION,
                        f"return to unbound continuation variable {kvar!r}",
                        kvar,
                    )
                )
            _check_value(value, out)
        case CLet(_, value, body):
            _check_value(value, out)
            _check(body, kvars, out)
        case CApp(fun, arg, kont):
            _check_value(fun, out)
            _check_value(arg, out)
            _check(kont.body, kvars, out)
        case CIf0(kvar, kont, test, then, orelse):
            if not kvar.startswith("k/"):
                out.append(
                    Violation(
                        RULE_KVAR_NAMESPACE,
                        f"join continuation {kvar!r} must use the "
                        f"k/ namespace",
                        kvar,
                    )
                )
            _check_value(test, out)
            _check(kont.body, kvars, out)
            inner = kvars | {kvar}
            _check(then, inner, out)
            _check(orelse, inner, out)
        case CPrimLet(_, _, args, body):
            for arg in args:
                _check_value(arg, out)
            _check(body, kvars, out)
        case CLoop(kont):
            _check(kont.body, kvars, out)
        case _:
            out.append(
                Violation(RULE_NOT_IN_CPS, f"not a cps(A) term: {term!r}")
            )
