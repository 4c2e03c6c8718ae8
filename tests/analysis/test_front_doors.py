"""Every front door runs an analyzer through the one registry dispatch.

For each supported ``(analyzer, engine)`` pair of
`repro.analysis.registry` and a handful of programs (the Theorem 5.1
and 5.2 witnesses plus two corpus programs), the library entry
`run_analyzer`, the service's ``execute_request("analyze", ...)`` and
``repro analyze --analyzer A --engine E --json`` must return the same
``to_dict()`` body — answer, store and full `AnalysisStats`.  The one
unsupported pair (pushdown on the plan engine) must fail the same way
at each door, and an unknown engine must be refused.
"""

import json

import pytest

from repro.analysis import EngineUnsupported
from repro.analysis.registry import (
    ANALYZERS,
    ENGINES,
    build_analyzer,
    engine_analyzers,
    run_analyzer,
)
from repro.api import analysis_initial
from repro.cli import main
from repro.corpus.programs import PROGRAMS
from repro.domains import ConstPropDomain, Lattice
from repro.lang.pretty import pretty_flat
from repro.serve.codes import CODES, ServeError
from repro.serve.jobs import execute_request

PROGRAM_NAMES = (
    "theorem-5.1",
    "theorem-5.2-conditional",
    "factorial",
    "church",
)

PAIRS = [
    (analyzer, engine)
    for engine in ENGINES
    for analyzer in engine_analyzers(engine)
]


def body_of(result) -> dict:
    """What the service and the CLI print: polyvariant results are
    collapsed over their contexts first."""
    if hasattr(result, "collapse"):
        result = result.collapse()
    return result.to_dict()


def cli_json(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_the_matrix_is_nine_pairs():
    assert len(PAIRS) == 9
    assert ("pushdown", "plan") not in PAIRS
    assert {analyzer for analyzer, _ in PAIRS} == set(ANALYZERS)


@pytest.mark.parametrize("name", PROGRAM_NAMES)
@pytest.mark.parametrize("analyzer,engine", PAIRS)
def test_open_program_agrees_at_every_door(capsys, analyzer, engine, name):
    # As source text every free variable is ⊤ — the only initial store
    # all three doors can express.
    program = PROGRAMS[name]
    source = pretty_flat(program.term)
    lattice = Lattice(ConstPropDomain())
    initial = analysis_initial(program.term, lattice, {})

    library = body_of(
        run_analyzer(analyzer, program.term, engine=engine, initial=initial)
    )
    served = execute_request(
        "analyze",
        {"program": source, "analyzer": analyzer, "engine": engine},
    )
    code, out = cli_json(
        capsys, "analyze", "-e", source,
        "--analyzer", analyzer, "--engine", engine, "--json",
    )
    assert code == 0
    assert served["result"] == library
    assert json.loads(out) == {"analyzer": analyzer, "result": library}


@pytest.mark.parametrize("name", PROGRAM_NAMES)
@pytest.mark.parametrize("analyzer,engine", PAIRS)
def test_corpus_assumptions_agree_at_every_library_door(
    analyzer, engine, name
):
    # The corpus initial stores (e.g. f bound to the identity closure
    # in the Theorem 5.1 witness) reach the library and the service.
    program = PROGRAMS[name]
    initial = program.initial_for(Lattice(ConstPropDomain()))
    library = body_of(
        run_analyzer(analyzer, program.term, engine=engine, initial=initial)
    )
    served = execute_request(
        "analyze", {"corpus": name, "analyzer": analyzer, "engine": engine}
    )
    assert served["result"] == library


def test_theorem_51_witness_through_the_table():
    # The false return: direct proves a1 = 1, syntactic-CPS does not,
    # and the pushdown analyzer keeps a2 = 2.
    program = PROGRAMS["theorem-5.1"]
    initial = program.initial_for(Lattice(ConstPropDomain()))
    for engine in ENGINES:
        direct = run_analyzer(
            "direct", program.term, engine=engine, initial=initial
        )
        syntactic = run_analyzer(
            "syntactic", program.term, engine=engine, initial=initial
        )
        assert direct.constant_of("a1") == 1
        assert syntactic.constant_of("a1") is None
    pushdown = run_analyzer("pushdown", program.term, initial=initial)
    assert pushdown.constant_of("a2") == 2


def test_syntactic_build_walks_the_cps_image():
    from repro.cps import cps_transform

    term = PROGRAMS["theorem-5.1"].term
    for engine in ENGINES:
        analyzer = build_analyzer("syntactic-cps", term, engine=engine)
        assert analyzer.term == cps_transform(term)


class TestPushdownOnThePlanEngine:
    term = PROGRAMS["theorem-5.1"].term

    def test_library(self):
        with pytest.raises(EngineUnsupported):
            run_analyzer("pushdown", self.term, engine="plan")

    def test_service(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze",
                {"corpus": "theorem-5.1", "analyzer": "pushdown",
                 "engine": "plan"},
            )
        assert info.value.code == "engine_unsupported"

    def test_cli(self, capsys):
        code = main([
            "analyze", "-e", "(add1 1)",
            "--analyzer", "pushdown", "--engine", "plan",
        ])
        assert code == CODES["engine_unsupported"].exit_code
        assert "engine_unsupported" in capsys.readouterr().err


class TestUnknownEngine:
    term = PROGRAMS["theorem-5.1"].term

    @pytest.mark.parametrize("analyzer", ANALYZERS)
    def test_library(self, analyzer):
        # checked before the pushdown plan rule
        with pytest.raises(ValueError, match="engine must be one of"):
            run_analyzer(analyzer, self.term, engine="jit")

    def test_service(self):
        with pytest.raises(ServeError) as info:
            execute_request(
                "analyze", {"corpus": "theorem-5.1", "engine": "jit"}
            )
        assert info.value.code == "bad_request"

    def test_cli(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "-e", "(add1 1)", "--engine", "jit"])
        assert info.value.code == 2


def test_k_flag_runs_the_polyvariant_analyzer_with_json(capsys):
    # `--k K` names the k-CFA analyzer, with or without --json (the
    # JSON branch used to ignore --k and print the comparison).
    source = pretty_flat(PROGRAMS["shivers-p33"].term)
    code, out = cli_json(capsys, "analyze", "-e", source, "--k", "1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["analyzer"] == "polyvariant"
    assert payload["result"]["analyzer"] == "direct-kcfa"
    assert payload["result"]["store"]["a2"]["num"] == "2"
    _, named = cli_json(
        capsys, "analyze", "-e", source,
        "--analyzer", "polyvariant", "--k", "1", "--json",
    )
    assert json.loads(named) == payload


@pytest.mark.parametrize("analyzer", ["direct", "semantic-cps", "pushdown"])
def test_k_with_another_analyzer_is_refused_at_every_door(capsys, analyzer):
    message = "'k' only applies to the polyvariant analyzer"
    with pytest.raises(ServeError) as info:
        execute_request(
            "analyze",
            {"corpus": "theorem-5.1", "analyzer": analyzer, "k": 2},
        )
    assert info.value.code == "bad_request"
    assert message in str(info.value)
    with pytest.raises(SystemExit) as exit_info:
        main(["analyze", "-e", "(add1 1)", "--analyzer", analyzer, "--k", "2"])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
