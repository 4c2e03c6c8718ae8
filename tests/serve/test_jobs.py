"""Request validation and in-process execution.

The acceptance bar: the service's ``analyze`` responses are
bit-identical to the in-process `repro.analysis` API for every
analyzer × every corpus program (heavy programs run under a work
budget on both sides, and must fail identically).
"""

import json

import pytest

from repro.analysis import (
    analyze_direct,
    analyze_semantic_cps,
    analyze_syntactic_cps,
)
from repro.analysis.common import BudgetExceeded
from repro.analysis.delta import delta_store
from repro.corpus.programs import PROGRAMS
from repro.cps import cps_transform
from repro.domains import ConstPropDomain, Lattice
from repro.domains.store import AbsStore
from repro.serve.codes import ServeError
from repro.serve.jobs import (
    Deadline,
    ServiceDefaults,
    execute_request,
    prepare_request,
)

HEAVY_BUDGET = 20_000
ANALYZERS = ("direct", "semantic-cps", "syntactic-cps")


def _in_process(program, analyzer, max_visits):
    """The local-API result the service must reproduce exactly."""
    domain = ConstPropDomain()
    lattice = Lattice(domain)
    initial = program.initial_for(lattice)
    if analyzer == "direct":
        return analyze_direct(
            program.term, domain, initial=initial, max_visits=max_visits
        )
    if analyzer == "semantic-cps":
        return analyze_semantic_cps(
            program.term, domain, initial=initial, max_visits=max_visits
        )
    cps_initial = dict(
        delta_store(AbsStore(lattice, initial)).items()
    )
    return analyze_syntactic_cps(
        cps_transform(program.term),
        domain,
        initial=cps_initial,
        max_visits=max_visits,
    )


class TestAnalyzeBitIdentical:
    @pytest.mark.parametrize(
        "name", sorted(PROGRAMS), ids=sorted(PROGRAMS)
    )
    @pytest.mark.parametrize("analyzer", ANALYZERS)
    def test_every_analyzer_every_corpus_program(self, name, analyzer):
        program = PROGRAMS[name]
        budget = HEAVY_BUDGET if program.heavy else None
        payload = {"corpus": name, "analyzer": analyzer}
        if budget is not None:
            payload["max_visits"] = budget
        try:
            expected = _in_process(program, analyzer, budget)
        except BudgetExceeded:
            with pytest.raises(ServeError) as info:
                execute_request("analyze", payload)
            assert info.value.code == "budget_exceeded"
            return
        response = execute_request("analyze", payload)
        assert response["ok"] is True
        assert response["analyzer"] == analyzer
        # byte-level identity of the serialized result
        assert json.dumps(response["result"], sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )

    def test_polyvariant_matches_collapse(self):
        from repro.analysis import analyze_polyvariant

        program = PROGRAMS["shivers-p33"]
        response = execute_request(
            "analyze",
            {"corpus": "shivers-p33", "analyzer": "polyvariant", "k": 1},
        )
        expected = analyze_polyvariant(
            program.term,
            ConstPropDomain(),
            k=1,
            initial={},
            max_visits=ServiceDefaults().max_visits,
        ).collapse()
        assert response["result"] == expected.to_dict()


class TestRun:
    def test_closed_program(self):
        response = execute_request("run", {"program": "(add1 41)"})
        assert response["value"] == 42

    @pytest.mark.parametrize(
        "interpreter", ("direct", "semantic", "syntactic")
    )
    def test_interpreters_agree(self, interpreter):
        response = execute_request(
            "run",
            {"program": "(* (+ 1 2) 4)", "interpreter": interpreter},
        )
        assert response["value"] == 12

    def test_assume(self):
        response = execute_request(
            "run", {"program": "(+ n 2)", "assume": {"n": 40}}
        )
        assert response["value"] == 42

    def test_unbound_variable_is_bad_request(self):
        with pytest.raises(ServeError) as info:
            execute_request("run", {"program": "(+ n 2)"})
        assert info.value.code == "bad_request"

    def test_syntactic_rejects_assume(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "run",
                {
                    "program": "(+ n 2)",
                    "interpreter": "syntactic",
                    "assume": {"n": 1},
                },
            )
        assert info.value.code == "bad_request"

    def test_fuel_exhausted(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "run",
                {
                    "program": "(let (f (lambda (s) (s s))) (f f))",
                    "fuel": 100,
                },
            )
        assert info.value.code == "fuel_exhausted"

    def test_diverged(self):
        with pytest.raises(ServeError) as info:
            execute_request("run", {"program": "(let (d (loop)) d)"})
        assert info.value.code == "diverged"


class TestValidation:
    def test_parse_error(self):
        with pytest.raises(ServeError) as info:
            execute_request("analyze", {"program": "((("})
        assert info.value.code == "parse_error"

    def test_unknown_corpus_is_not_found(self):
        with pytest.raises(ServeError) as info:
            execute_request("analyze", {"corpus": "no-such-program"})
        assert info.value.code == "not_found"

    def test_program_and_corpus_conflict(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze", {"program": "(add1 1)", "corpus": "constants"}
            )
        assert info.value.code == "bad_request"

    def test_unknown_field_rejected(self):
        # The last two inputs name the removed plan-tier knob: old
        # clients get a clear error, not a silently ignored field.
        for kind, field in (
            ("analyze", "frob"),
            ("analyze", "plan_tier"),
            ("compare", "plan_tier"),
        ):
            with pytest.raises(ServeError) as info:
                execute_request(kind, {"program": "(add1 1)", field: "opt"})
            assert info.value.code == "bad_request"
            assert field in str(info.value)

    def test_bad_enum_rejected(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze", {"program": "(add1 1)", "analyzer": "magic"}
            )
        assert info.value.code == "bad_request"

    def test_non_computable_loop(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze",
                {
                    "program": "(let (d (loop)) d)",
                    "analyzer": "semantic-cps",
                },
            )
        assert info.value.code == "non_computable"

    def test_debug_sleep_requires_hooks(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "run", {"program": "(add1 1)", "debug_sleep_ms": 5}
            )
        assert info.value.code == "bad_request"
        # and with hooks enabled it is accepted but uncacheable
        prep = prepare_request(
            "run",
            {"program": "(add1 1)", "debug_sleep_ms": 5},
            ServiceDefaults(debug_hooks=True),
        )
        assert not prep.cacheable

    def test_server_budget_caps_request(self):
        defaults = ServiceDefaults(max_visits=50)
        prep = prepare_request(
            "analyze",
            {"program": "(add1 1)", "max_visits": 10_000_000},
            defaults,
        )
        assert prep.spec["max_visits"] == 50

    def test_absent_budget_takes_the_server_cap(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze",
                {"corpus": "theorem-5.1"},
                ServiceDefaults(max_visits=2),
            )
        assert info.value.code == "budget_exceeded"

    @pytest.mark.parametrize(
        "kind, field",
        [
            ("analyze", "max_visits"),
            ("analyze", "k"),
            ("run", "fuel"),
            ("run", "debug_sleep_ms"),
        ],
    )
    def test_null_integer_field_is_bad_request(self, kind, field):
        # An explicit null must not read as "absent" (or as "no
        # budget"): it would lift the server's --max-visits cap.
        payload = {"corpus": "theorem-5.1", field: None}
        if field == "k":
            payload["analyzer"] = "polyvariant"
        with pytest.raises(ServeError) as info:
            execute_request(kind, payload, ServiceDefaults(max_visits=2))
        assert info.value.code == "bad_request"
        assert str(info.value) == f"{field!r} must be an integer"


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline(None)
        assert deadline.remaining() is None
        deadline.check()

    def test_expiry_raises_timeout(self):
        clock = iter([0.0, 10.0, 20.0])
        deadline = Deadline(5.0, clock=lambda: next(clock))
        with pytest.raises(ServeError) as info:
            deadline.check()
        assert info.value.code == "timeout"

    def test_sleep_respects_deadline(self):
        defaults = ServiceDefaults(debug_hooks=True)
        with pytest.raises(ServeError) as info:
            execute_request(
                "run",
                {"program": "(add1 1)", "debug_sleep_ms": 2_000},
                defaults,
                deadline=Deadline(0.05),
            )
        assert info.value.code == "timeout"
