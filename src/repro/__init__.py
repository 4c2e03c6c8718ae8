"""repro — a reproduction of Sabry & Felleisen, *Is Continuation-Passing
Useful for Data Flow Analysis?* (PLDI 1994).

The package implements, from scratch:

- the source language **A** and its A-normal form (:mod:`repro.lang`,
  :mod:`repro.anf`);
- the three concrete interpreters of Figures 1-3 (:mod:`repro.interp`);
- the CPS language and transformation of Definition 3.2
  (:mod:`repro.cps`);
- the three abstract collecting interpreters of Figures 4-6 over
  pluggable finite-height number domains (:mod:`repro.analysis`,
  :mod:`repro.domains`), plus the pushdown (CFA2-style) summary
  analyzer that eliminates Theorem 5.1's false returns without a CPS
  transform (:mod:`repro.analysis.pushdown`);
- the Section 5 comparison machinery (``δ``/``δe``, precision
  verdicts), control-flow graph construction (:mod:`repro.cfg`), and
  analysis-driven optimizations including the paper's proposed
  inlining alternative (:mod:`repro.opt`).

Quick start::

    from repro import run_comparison
    from repro.corpus import THEOREM_51_WITNESS

    report = run_comparison(THEOREM_51_WITNESS)
    print(report.summary())
"""

from repro.api import (
    THREE_WAY_ANALYZERS,
    ComparisonReport,
    prepare,
    run_comparison,
)
from repro.analysis.compare import Precision

__version__ = "1.0.0"

__all__ = [
    "ComparisonReport",
    "prepare",
    "run_comparison",
    "THREE_WAY_ANALYZERS",
    "Precision",
    "__version__",
]
