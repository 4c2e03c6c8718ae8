"""Tests for the command-line interface."""

import json
import sys

import pytest

from repro.cli import main


def _deep_nest(rounds: int) -> str:
    source = "y"
    for i in range(rounds):
        source = f"(let (x (lambda (x) (+ x {i}))) (let (y x) {source}))"
    return source


DEEP_NEST = _deep_nest(300)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_direct(self, capsys):
        code, out, _ = run_cli(capsys, "run", "-e", "(add1 41)")
        assert code == 0
        assert out.strip() == "42"

    @pytest.mark.parametrize("interp", ["direct", "semantic", "syntactic"])
    def test_all_interpreters_agree(self, capsys, interp):
        code, out, _ = run_cli(
            capsys, "run", "-e", "(* (+ 1 2) 4)", "--interpreter", interp
        )
        assert code == 0
        assert out.strip() == "12"

    def test_assume_provides_free_variables(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "-e", "(+ n 2)", "--assume", "n=40"
        )
        assert out.strip() == "42"

    def test_missing_free_variable_errors(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "run", "-e", "(+ n 2)")

    def test_bad_assume_errors(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "run", "-e", "(+ n 2)", "--assume", "n=abc")

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "prog.anf"
        path.write_text("(sub1 0)")
        code, out, _ = run_cli(capsys, "run", str(path))
        assert out.strip() == "-1"


class TestAnalyze:
    def test_three_way_summary(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "-e",
            "(let (a1 (if0 x 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))",
        )
        assert code == 0
        assert "right-more-precise" in out
        assert "per-variable facts" in out

    def test_domain_choice(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-e", "(+ 2 4)", "--domain", "parity"
        )
        assert "even" in out

    def test_assume_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-e", "(add1 n)", "--assume", "n=1"
        )
        assert "value=(2, {})" in out

    def test_polyvariant_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "--k",
            "1",
            "-e",
            "(let (f (lambda (x) (add1 x))) (+ (f 1) (f 2)))",
        )
        assert "value: (5, {})" in out

    def test_json_output(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "analyze", "--json", "-e", "(let (a (+ 1 2)) a)"
        )
        data = json.loads(out)
        assert data["direct"]["store"]["a"]["num"] == "3"
        assert data["verdicts"]["semantic_vs_direct"] == "equal"
        assert data["verdicts"]["pushdown_vs_direct"] == "equal"
        assert set(data) == {
            "direct",
            "semantic_cps",
            "syntactic_cps",
            "pushdown",
            "verdicts",
        }

    def test_loop_mode(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "-e",
            "(let (d (loop)) d)",
            "--loop-mode",
            "top",
        )
        assert code == 0


class TestTransforms:
    def test_anf(self, capsys):
        code, out, _ = run_cli(capsys, "anf", "-e", "(f (g 1))")
        assert out.strip() == "(let (t%1 (g 1)) (let (t (f t%1)) t))"

    def test_cps(self, capsys):
        code, out, _ = run_cli(capsys, "cps", "-e", "(f 1)")
        assert out.strip() == "(f 1 (lambda (t) (k/halt t)))"

    def test_optimize(self, capsys):
        code, out, err = run_cli(
            capsys,
            "optimize",
            "-e",
            "(let (f (lambda (x) (add1 x))) (+ (f 1) (f 2)))",
        )
        assert "5" in out
        assert "rounds" in err

    def test_optimize_pass_subset(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize",
            "-e",
            "(let (dead 1) 9)",
            "--passes",
            "dce",
        )
        assert out.strip() == "9"


class TestGraph:
    def test_call_graph(self, capsys):
        code, out, _ = run_cli(
            capsys, "graph", "-e", "(let (f (lambda (x) x)) (f 1))"
        )
        assert out.startswith("digraph")
        assert "λx" in out

    def test_flow_graph(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "graph",
            "--kind",
            "flow",
            "-e",
            "(let (a 1) (let (b 2) b))",
        )
        assert '"a" -> "b"' in out


class TestCompile:
    def test_direct_backend(self, capsys):
        code, out, err = run_cli(
            capsys, "compile", "-e", "(let (f (lambda (x) (* x x))) (f 6))"
        )
        assert code == 0
        assert "Close(param='x')" in out
        assert "result: 36" in err

    def test_cps_backend_is_stackless(self, capsys):
        code, out, err = run_cli(
            capsys,
            "compile",
            "--backend",
            "cps",
            "-e",
            "(let (f (lambda (x) (* x x))) (f 6))",
        )
        assert "CallK" in out
        assert "control-stack depth: 0" in err

    def test_no_run(self, capsys):
        code, out, err = run_cli(
            capsys, "compile", "--no-run", "-e", "(add1 1)"
        )
        assert "result" not in err
        assert "instructions" in err

    def test_assume(self, capsys):
        code, out, err = run_cli(
            capsys, "compile", "-e", "(+ n 2)", "--assume", "n=40"
        )
        assert "result: 42" in err


class TestDataflow:
    WITNESS = "(let (a1 (if0 x 0 1)) (let (a2 (if0 a1 (+ a1 3) (+ a1 2))) a2))"

    def test_both_solvers(self, capsys):
        code, out, _ = run_cli(capsys, "dataflow", "-e", self.WITNESS)
        assert "[MFP]" in out and "[MOP]" in out
        # the split is visible in the output
        assert "a2           ⊤" in out
        assert "a2           3" in out

    def test_single_solver(self, capsys):
        code, out, _ = run_cli(
            capsys, "dataflow", "--solver", "mfp", "-e", self.WITNESS
        )
        assert "[MFP]" in out and "[MOP]" not in out

    def test_assume_constant(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dataflow",
            "-e",
            "(let (r (if0 x 1 2)) r)",
            "--assume",
            "x=0",
        )
        assert "r            1" in out

    def test_refine_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dataflow",
            "--solver",
            "mfp",
            "--refine",
            "-e",
            "(let (r (if0 x (+ x 5) 9)) r)",
        )
        assert code == 0


class TestErrors:
    def test_no_input(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "anf")

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "frobnicate")


class TestCorpusCommand:
    def test_lists_programs_and_families(self, capsys):
        code, out, _ = run_cli(capsys, "corpus")
        assert code == 0
        assert "theorem-5.1" in out
        assert "conditional-chain-K" in out
        assert "[heavy]" in out  # ackermann is flagged

    def test_json_listing(self, capsys):
        code, out, _ = run_cli(capsys, "corpus", "--json")
        listing = json.loads(out)
        names = {entry["name"] for entry in listing["programs"]}
        assert "shivers-p33" in names
        assert all("description" in entry for entry in listing["families"])


class TestExitCodes:
    """Interpreter/analyzer failures map to the structured
    `repro.serve` exit codes instead of tracebacks."""

    def test_diverged_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "run", "-e", "(let (d (loop)) d)")
        assert code == 4
        assert "diverged" in err

    def test_fuel_exhausted_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run",
            "-e",
            "(let (f (lambda (s) (s s))) (f f))",
            "--fuel",
            "50",
        )
        assert code == 3
        assert "fuel_exhausted" in err

    def test_stuck_exits_5(self, capsys):
        code, _, err = run_cli(capsys, "run", "-e", "(1 2)")
        assert code == 5
        assert "stuck" in err

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "anf", "-e", "(((")
        assert code == 2
        assert "parse_error" in err

    def test_non_computable_exits_7(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze",
            "-e",
            "(let (d (loop)) d)",
            "--loop-mode",
            "reject",
        )
        assert code == 7
        assert "non_computable" in err

    def test_deep_nest_analyzes(self, capsys):
        """A 600-deep let/lambda nest runs through the front end under
        its recursion headroom (it used to die in a RecursionError)."""
        code, out, _ = run_cli(capsys, "analyze", "-e", DEEP_NEST)
        assert code == 0
        assert "y%299" in out

    def test_too_deep_exits_11(self, capsys):
        limit = sys.getrecursionlimit()
        source = "(add1 " * 5000 + "1" + ")" * 5000
        code, _, err = run_cli(capsys, "analyze", "-e", source)
        assert code == 11
        assert "bad_request: program nests too deeply" in err
        assert sys.getrecursionlimit() == limit

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "--help")
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "fuel_exhausted" in out
        assert "diverged" in out

    def test_success_still_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "run", "-e", "(add1 1)")
        assert code == 0


class TestServeCommands:
    def test_serve_and_request_help_exist(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "serve", "--help")
        out = capsys.readouterr().out
        assert "--queue-size" in out
        with pytest.raises(SystemExit):
            run_cli(capsys, "request", "--help")
        out = capsys.readouterr().out
        assert "--retries" in out

    def test_request_unreachable_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            "request",
            "health",
            "--url",
            "http://127.0.0.1:1",
            "--retries",
            "0",
            "--timeout",
            "2",
        )
        assert code == 10
        assert "unreachable" in err


class TestTrace:
    def test_stdout_jsonl(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "-e", "(add1 1)")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records
        assert all(r["event"] == "interp.step" for r in records)
        interpreters = {r["interpreter"] for r in records}
        assert interpreters == {"direct", "semantic-cps", "syntactic-cps"}

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        code, _, err = run_cli(
            capsys, "trace", "-e", "(add1 1)", "--out", str(path)
        )
        assert code == 0
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert records
        assert f"{len(records)} events" in err

    def test_single_interpreter(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "-e", "(add1 1)", "--interpreter", "direct"
        )
        records = [json.loads(line) for line in out.splitlines()]
        assert {r["interpreter"] for r in records} == {"direct"}

    def test_analyzers_flag_adds_analysis_events(self, capsys):
        code, out, _ = run_cli(
            capsys, "trace", "-e", "(add1 1)", "--analyzers"
        )
        kinds = {json.loads(line)["event"] for line in out.splitlines()}
        assert "interp.step" in kinds
        assert "analysis.visit" in kinds

    def test_unbound_free_variable_errors(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "trace", "-e", "(+ n 2)")


class TestStatsFlags:
    def test_run_stats(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "-e", "(add1 41)", "--stats"
        )
        assert out.strip() == "42"
        assert "steps:" in err and "fuel remaining:" in err

    def test_analyze_stats_table_and_snapshot(self, capsys):
        code, out, _ = run_cli(
            capsys, "analyze", "-e", "(let (a1 (if0 x 0 1)) a1)", "--stats"
        )
        assert "per-analyzer work" in out
        assert "visits" in out and "joins" in out and "widenings" in out
        assert "analysis.direct.visits" in out

    def test_analyze_stats_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze",
            "-e",
            "(let (a1 (if0 x 0 1)) a1)",
            "--stats",
            "--json",
        )
        payload = json.loads(out)
        assert "metrics" in payload
        assert payload["metrics"]["counters"]["analysis.direct.visits"] > 0

    def test_dataflow_stats(self, capsys):
        code, out, _ = run_cli(
            capsys, "dataflow", "-e", "(let (a 1) a)", "--stats"
        )
        assert "mfp.iterations" in out
        assert "mop.paths" in out

    def test_dataflow_has_no_cache_flag(self, capsys):
        # the MFP join memo is gone; its flag is an unknown argument
        with pytest.raises(SystemExit) as info:
            main(["dataflow", "-e", "(let (a 1) a)", "--cache"])
        assert info.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
