"""User-facing analysis results.

Wraps the raw abstract answer with query helpers: per-variable
constants, closure sets, reachability, and the call-graph hook used by
:mod:`repro.cfg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Hashable, Iterator

from repro.domains.absval import AbsVal, Lattice

if TYPE_CHECKING:
    from repro.analysis.common import AAnswer, AnalysisStats


@dataclass(frozen=True)
class AnalysisResult:
    """The outcome of running one of the three analyzers.

    Attributes:
        analyzer: which analyzer produced this ('direct',
            'semantic-cps', or 'syntactic-cps').
        answer: the abstract answer (final value and store).
        stats: instrumentation counters.
        lattice: the lattice the values live in.
    """

    analyzer: str
    answer: AAnswer
    stats: AnalysisStats
    lattice: Lattice

    @property
    def value(self) -> AbsVal:
        """The abstract value of the whole program."""
        return self.answer.value

    @property
    def store(self):
        """The final abstract store."""
        return self.answer.store

    def value_of(self, name: str) -> AbsVal:
        """The abstract value recorded for variable ``name``."""
        return self.answer.store.get(name)

    def num_of(self, name: str) -> Hashable:
        """The abstract number recorded for ``name``."""
        return self.value_of(name).num

    def constant_of(self, name: str) -> int | None:
        """The proven integer constant for ``name``, if any.

        Only meaningful for domains whose elements embed integers
        (constant propagation); returns None for ``⊥``/``⊤`` or
        non-integer domain elements.
        """
        num = self.num_of(name)
        if isinstance(num, int) and not isinstance(num, bool):
            return num
        return None

    def closures_of(self, name: str) -> frozenset:
        """The abstract closures that may flow to ``name``."""
        return self.value_of(name).clos

    def konts_of(self, name: str) -> frozenset:
        """The abstract continuations that may flow to ``name``
        (syntactic-CPS analyses only)."""
        return self.value_of(name).konts

    def is_reachable(self, name: str) -> bool:
        """True when some value reaches the binding of ``name``."""
        return not self.lattice.is_bottom(self.value_of(name))

    def variables(self) -> Iterator[str]:
        """Variables with a non-bottom entry in the final store."""
        return self.answer.store.variables()

    def to_dict(self) -> dict:
        """A JSON-serializable view of the result.

        Abstract numbers are rendered with ``repr`` (domain elements
        print as ``⊥``/``⊤``/constants), closures and continuations by
        their display labels.  Intended for tooling (the CLI's
        ``--json`` flag); the structured objects remain the API for
        programmatic use.
        """

        def value_view(value: AbsVal) -> dict:
            view: dict = {
                "num": repr(value.num),
                "closures": sorted(str(c) for c in value.clos),
            }
            if value.konts:
                view["continuations"] = sorted(
                    str(k) for k in value.konts
                )
            return view

        return {
            "analyzer": self.analyzer,
            "value": value_view(self.value),
            "store": {
                name: value_view(entry)
                for name, entry in sorted(self.answer.store.items())
            },
            "stats": self.stats.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AnalysisResult {self.analyzer} value={self.value!r} "
            f"visits={self.stats.visits}>"
        )
