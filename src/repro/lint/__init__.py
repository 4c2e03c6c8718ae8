"""repro.lint — a diagnostics engine over the paper's analyzers.

Syntactic passes (``S1xx``) turn the structural validators into
recoverable diagnostics with fix-its; semantic passes (``L0xx``)
consume an `AnalysisResult` from one of the three analyzers, so lint
yield doubles as a user-visible precision metric: the same program
lints differently under the direct, semantic-CPS, and syntactic-CPS
analyzers.  See docs/LINT.md for the rule catalog.
"""

from repro.lint.diagnostic import (
    Diagnostic,
    ERROR,
    FixIt,
    INFO,
    LintReport,
    Span,
    WARNING,
    severity_rank,
)
from repro.lint.engine import (
    LINT_ANALYZERS,
    has_errors,
    run_lints,
)
from repro.lint.render import render_diagnostic, render_json, render_text
from repro.lint.semantic import semantic_lints
from repro.lint.spans import binder_spans
from repro.lint.syntactic import iter_let_bindings, syntactic_lints

__all__ = [
    "Diagnostic",
    "ERROR",
    "FixIt",
    "INFO",
    "LINT_ANALYZERS",
    "LintReport",
    "Span",
    "WARNING",
    "binder_spans",
    "has_errors",
    "iter_let_bindings",
    "render_diagnostic",
    "render_json",
    "render_text",
    "run_lints",
    "semantic_lints",
    "severity_rank",
    "syntactic_lints",
]
