"""Tests of the benchmark harness itself.

    python -m pytest perfbench/tests -q      # from the repository root
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import servebench  # noqa: E402
from metrics import tail  # noqa: E402


def sources(programs) -> list[str]:
    return [p.source for p in programs]


def test_same_seed_gives_byte_identical_sources():
    assert sources(gen.analyze_random_inputs(7)) == sources(
        gen.analyze_random_inputs(7))
    assert sources(gen.analyze_blowup_inputs(7)) == sources(
        gen.analyze_blowup_inputs(7))
    assert gen.serve_bodies(7) == gen.serve_bodies(7)
    assert sources(gen.analyze_random_inputs(7)) != sources(
        gen.analyze_random_inputs(8))


def test_generator_does_not_import_the_program():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "gen.analyze_random_inputs(1); gen.serve_bodies(1); "
            "print(any(m.startswith('repro') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, BENCH],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_free_variables_match_the_program():
    from repro.lang.parser import parse
    from repro.lang.syntax import free_variables

    for program in gen.analyze_random_inputs(3):
        assert set(program.free) == set(free_variables(parse(program.source)))


def test_evaluator_agrees_on_generated_programs():
    from repro.serve.jobs import execute_request

    runs = [(body, program) for route, body, program in gen.serve_bodies(2)
            if route == "/v1/run"][:40]
    for body, program in runs:
        served = execute_request("run", dict(body))
        assert served["value"] == gen.evaluate(program.source, body["assume"])


def rendered(program) -> str:
    from repro.api import run_comparison
    from repro.domains.absval import Lattice
    from repro.domains.constprop import ConstPropDomain

    lattice = Lattice(ConstPropDomain())
    top = lattice.of_num(lattice.domain.top)
    report = run_comparison(program.source,
                            initial={n: top for n in program.free})
    return json.dumps([r.to_dict() for r in report.results],
                      ensure_ascii=False)


def test_witness_answers_pass_and_corrupted_answers_fail():
    import random

    rng = random.Random(0)
    for make in gen.WITNESSES:
        program = make(rng, "w")
        text = rendered(program)
        assert check.check_answer(text, program.expect) is None
        answers = json.loads(text)
        answers[1]["value"]["num"] = "41"
        assert check.check_answer(json.dumps(answers), program.expect)


def test_ordering_violation_is_caught():
    import random

    program = gen.theorem_52_conditional(random.Random(1), "w")
    answers = json.loads(rendered(program))
    # make semantic-CPS less precise than direct on one variable
    semantic = next(a for a in answers if a["analyzer"] == "semantic-cps")
    direct = next(a for a in answers if a["analyzer"] == "direct")
    direct["store"]["a2"]["num"] = "1"
    semantic["store"]["a2"]["num"] = "⊤"
    problem = check.check_answer(json.dumps(answers), {})
    assert problem is not None and "Theorem 5.4" in problem


def test_corrupted_answer_is_counted_as_failed():
    programs = gen.analyze_random_inputs(5)[:6]
    answers = [rendered(p) for p in programs]
    out = {"errors": {}, "mismatched": {}, "answers": answers}
    assert run.failures(programs, out) == {}
    broken = json.loads(answers[2])
    # direct, semantic-CPS, ...: semantic now less precise than direct
    broken[0]["value"]["num"], broken[1]["value"]["num"] = "7", "⊤"
    out["answers"][2] = json.dumps(broken)
    assert set(run.failures(programs, out)) == {2}
    out["mismatched"]["4"] = "answer differs from warm-up"
    assert set(run.failures(programs, out)) == {2, 4}


def test_corrupted_service_response_fails():
    entries = gen.serve_bodies(4)[:30]
    expected = servebench.references(entries)
    from repro.serve.jobs import execute_request

    for (route, body, _), want in zip(entries, expected):
        got = execute_request(route.rsplit("/", 1)[1], dict(body))
        raw = json.dumps(got).encode()
        assert servebench.check_response(route, 200, raw, want) is None
        assert servebench.check_response(route, 503, raw, want)
        if route == "/v1/analyze":
            got["result"]["stats"]["visits"] += 1
            bad = json.dumps(got).encode()
            assert servebench.check_response(route, 200, bad, want)


def traced_counts(seed_env: str) -> dict:
    random_programs = gen.analyze_random_inputs(1)[:25]
    blowup = [p for p in gen.analyze_blowup_inputs(1)
              if p.family.endswith("-6") or p.family.startswith("mini")][:4]
    counts = {}
    for programs, engine in ((random_programs, "tree"), (blowup, "plan")):
        job = {"mode": "trace", "cycles": 1, "max_visits": 200_000, "cpu": None,
               "default_analyzers": list(gen.COMPARISON_ANALYZERS),
               "programs": [{"source": p.source, "free": list(p.free),
                             "analyzers": (None if p.analyzers is None
                                           else list(p.analyzers)),
                             "engine": engine} for p in programs]}
        env = {**os.environ, "PYTHONHASHSEED": seed_env,
               "PYTHONPATH": os.path.join(ROOT, "src")}
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "libchild.py")],
            input=json.dumps(job), capture_output=True, text=True,
            env=env, check=True)
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        assert not out["errors"] and not out["mismatched"]
        counts[engine] = out["counts"]
    return counts


def test_traced_counts_repeat_exactly():
    first, second = traced_counts("0"), traced_counts("3")
    assert first == second
    assert first["tree"]["analysis.syntactic-cps.visits"] > 0
    assert first["plan"]["plan.compiles"] > 0
    assert first["plan"]["plan.semantic-cps.max_store_size"] > 0


def test_tail_has_ten_samples_beyond():
    values = list(range(1, 501))
    p, value, beyond = tail(values)
    assert (p, beyond) == (98.0, 10) and value == 490
    p, _, beyond = tail(list(range(60)))
    assert p == 80.0 and beyond >= 10
