"""The benchmark's own answer check, independent of `repro`'s verdicts.

Works on rendered answers (`AnalysisResult.to_dict()` as JSON), so it
needs nothing from the program under test.  Abstract numbers of the
constant-propagation domain render as ``⊥``, ``⊤`` or an integer; the
order is ⊥ ⊑ n ⊑ ⊤.  Closure sets are ordered by inclusion.

Checked on every op:

- the hand-written expected answers of the witness shapes
  (Theorem 5.1 and both Theorem 5.2 witnesses);
- Theorem 5.4 (semantic-CPS ⊑ direct), Theorem 5.5 (semantic-CPS ⊑
  syntactic-CPS on the source variables, numbers only, since closures
  differ by the CPS transform) and pushdown ⊑ direct, whichever of the
  analyzers an op ran.
"""

from __future__ import annotations

import json

BOTTOM, TOP = "⊥", "⊤"


def num_leq(left: str, right: str) -> bool:
    return left == right or left == BOTTOM or right == TOP


def _entry(result: dict, name: str) -> dict:
    if name == "":
        return result["value"]
    return result["store"].get(name, {"num": BOTTOM, "closures": []})


def answer_leq(left: dict, right: dict, closures: bool) -> bool:
    """``left`` at least as precise as ``right`` on the value and every
    source variable (continuation variables, ``k/...``, are skipped)."""
    names = {name for name in (*left["store"], *right["store"])
             if not name.startswith("k/")}
    for name in ("", *sorted(names)):
        low, high = _entry(left, name), _entry(right, name)
        if not num_leq(low["num"], high["num"]):
            return False
        if closures and not set(low["closures"]) <= set(high["closures"]):
            return False
    return True


#: (more precise, less precise, compare closures too, paper result)
ORDERINGS = (
    ("semantic-cps", "direct", True, "Theorem 5.4"),
    ("semantic-cps", "syntactic-cps", False, "Theorem 5.5"),
    ("pushdown", "direct", True, "pushdown ⊒ direct"),
)


def check_answer(rendered: str, expect: dict) -> str | None:
    """The first problem with one op's rendered answers, or None."""
    results = {r["analyzer"]: r for r in json.loads(rendered)}
    for analyzer, expected in expect.items():
        result = results.get(analyzer)
        if result is None:
            return f"{analyzer} missing"
        for name, value in expected.items():
            got = _entry(result, name)["num"]
            if got != str(value):
                label = name or "value"
                return f"{analyzer} {label}: expected {value}, got {got}"
    for low, high, closures, theorem in ORDERINGS:
        if low in results and high in results:
            if not answer_leq(results[low], results[high], closures):
                return f"{theorem} violated: {low} not ⊑ {high}"
    return None
