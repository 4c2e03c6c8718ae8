"""The three data flow analyzers (paper Figures 4-6) and their
formal-relationship tooling (Section 5).

- :mod:`repro.analysis.direct` — the direct abstract collecting
  interpreter ``Me`` (Figure 4);
- :mod:`repro.analysis.semantic_cps` — the semantic-CPS abstract
  collecting interpreter ``Ce`` (Figure 5);
- :mod:`repro.analysis.syntactic_cps` — the syntactic-CPS abstract
  collecting interpreter ``Ms`` (Figure 6);
- :mod:`repro.analysis.pushdown` — the pushdown (CFA2-style) summary
  analyzer that matches calls with returns, eliminating Theorem 5.1's
  false returns without a CPS transform;
- :mod:`repro.analysis.delta` — the abstract ``δe`` map between the
  direct and CPS abstract domains;
- :mod:`repro.analysis.compare` — precision comparisons (Theorems
  5.1, 5.2, 5.4, 5.5);
- :mod:`repro.analysis.registry` — the canonical analyzer-name
  vocabulary and the one ``(name, engine)`` dispatch table
  (`build_analyzer`/`run_analyzer`) every front end runs an analyzer
  through.

All analyzers are parametric in the number domain (see
:mod:`repro.domains`) and detect loops exactly as Section 4.4
prescribes: on re-encountering a ``(term, store)`` pair on the active
derivation path they return the least precise value paired with the
current store.
"""

from repro.analysis.common import (
    A_DEC,
    A_DECK,
    A_INC,
    A_INCK,
    A_STOP,
    AAnswer,
    AbsClo,
    AbsCo,
    AbsCpsClo,
    AFrame,
    AnalysisError,
    AnalysisStats,
    BudgetExceeded,
    EngineUnsupported,
    NonComputableError,
    closures_of_term,
    cps_tops_of_term,
)
from repro.analysis.compare import (
    Precision,
    compare_answers,
    compare_direct_to_cps,
    compare_pushdown_to_direct,
)
from repro.analysis.delta import delta_answer, delta_store, delta_value
from repro.analysis.direct import DirectAnalyzer, analyze_direct
from repro.analysis.engine import (
    DirectPlanAnalyzer,
    PolyvariantPlanAnalyzer,
    SemanticCpsPlanAnalyzer,
    SyntacticCpsPlanAnalyzer,
)
from repro.analysis.polyvariant import (
    PolyvariantDirectAnalyzer,
    PolyvariantResult,
    analyze_polyvariant,
)
from repro.analysis.pushdown import PushdownAnalyzer, analyze_pushdown
from repro.analysis.registry import (
    ALIASES,
    ANALYZERS,
    COMPARISON_ANALYZERS,
    ENGINES,
    INTERPRETERS,
    LINT_ANALYZERS,
    PLAN_ANALYZERS,
    analyzer_choices,
    analyzer_class,
    build_analyzer,
    canonical_analyzer,
    check_engine,
    run_analyzer,
)
from repro.analysis.result import AnalysisResult
from repro.analysis.semantic_cps import SemanticCpsAnalyzer, analyze_semantic_cps
from repro.analysis.syntactic_cps import SyntacticCpsAnalyzer, analyze_syntactic_cps

__all__ = [
    "A_INC",
    "A_DEC",
    "A_INCK",
    "A_DECK",
    "A_STOP",
    "AAnswer",
    "AbsClo",
    "AbsCo",
    "AbsCpsClo",
    "AFrame",
    "AnalysisError",
    "AnalysisStats",
    "BudgetExceeded",
    "EngineUnsupported",
    "NonComputableError",
    "closures_of_term",
    "cps_tops_of_term",
    "Precision",
    "compare_answers",
    "compare_direct_to_cps",
    "compare_pushdown_to_direct",
    "delta_answer",
    "delta_store",
    "delta_value",
    "DirectAnalyzer",
    "analyze_direct",
    "PushdownAnalyzer",
    "analyze_pushdown",
    "ANALYZERS",
    "ALIASES",
    "COMPARISON_ANALYZERS",
    "INTERPRETERS",
    "LINT_ANALYZERS",
    "PLAN_ANALYZERS",
    "analyzer_choices",
    "analyzer_class",
    "build_analyzer",
    "canonical_analyzer",
    "run_analyzer",
    "PolyvariantDirectAnalyzer",
    "PolyvariantResult",
    "analyze_polyvariant",
    "SemanticCpsAnalyzer",
    "analyze_semantic_cps",
    "SyntacticCpsAnalyzer",
    "analyze_syntactic_cps",
    "AnalysisResult",
    "ENGINES",
    "check_engine",
    "DirectPlanAnalyzer",
    "SemanticCpsPlanAnalyzer",
    "SyntacticCpsPlanAnalyzer",
    "PolyvariantPlanAnalyzer",
]
