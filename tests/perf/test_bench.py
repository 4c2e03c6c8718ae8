"""Tests for the `repro.perf.bench` regression-benchmark schema.

The CI smoke job trusts `validate_bench` to fail loudly on a
malformed payload or a cached/uncached divergence — so the validator
itself gets tested against hand-broken payloads, and one real
``--quick``-sized workload goes through `run_bench` end to end.
"""

import copy
import json

import pytest

from repro.perf.bench import (
    SCHEMA,
    _engine_row,
    _workload,
    summarize,
    validate_bench,
    validate_bench_file,
)


def make_payload() -> dict:
    """A minimal well-formed bench payload (one real tiny workload)."""
    from repro.analysis.engine import SemanticCpsPlanAnalyzer
    from repro.analysis.semantic_cps import SemanticCpsAnalyzer
    from repro.corpus import PROGRAMS
    from repro.domains import ConstPropDomain, Lattice
    from repro.machine.absplan import compile_anf_plan

    program = PROGRAMS["constants"]
    initial = program.initial_for(Lattice(ConstPropDomain()))
    entry = _workload(
        "corpus/constants",
        "semantic-cps",
        lambda cache: SemanticCpsAnalyzer(
            program.term, initial=initial, cache=cache
        ),
        repeat=2,
    )
    engine_entry = _engine_row(
        "engine/constants",
        "semantic-cps",
        lambda: SemanticCpsAnalyzer(program.term, initial=initial),
        lambda: SemanticCpsPlanAnalyzer(program.term, initial=initial),
        lambda: compile_anf_plan(program.term),
        repeat=2,
    )
    pushdown_entry = {
        "name": "pushdown/constants",
        "verdict": "equal",
        "direct": {"wall_s": 0.001, "visits": 10},
        "pushdown": {
            "wall_s": 0.001,
            "visits": 10,
            "returns_analyzed": 0,
            "loop_cuts": 0,
        },
        "work_ratio": 1.0,
        "noise_exempt": False,
    }
    return {
        "schema": SCHEMA,
        "quick": True,
        "repeat": 2,
        "engine_mode": "tree",
        "generated_at": "2026-01-01T00:00:00Z",
        "meta": {"python": "3.11.0", "platform": "test"},
        "workloads": [entry],
        "engine": [engine_entry],
        "pushdown": [pushdown_entry],
        "parallel": {
            "jobs": 4,
            "cpus": 4,
            "required_speedup": 2.0,
            "enforced": True,
            "pool": {"jobs": 4, "respawns": 0},
            "populations": [
                {
                    "population": "random-open",
                    "count": 1,
                    "depth": 3,
                    "serial_s": 1.0,
                    "parallel_s": 0.4,
                    "speedup": 2.5,
                    "noise_exempt": False,
                    "matches": True,
                }
            ],
        },
    }


class TestValidate:
    def test_well_formed_passes(self):
        validate_bench(make_payload())

    def test_payload_must_be_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_bench([1, 2, 3])

    def test_missing_meta_rejected(self):
        payload = make_payload()
        del payload["meta"]
        with pytest.raises(ValueError, match="meta"):
            validate_bench(payload)

    def test_meta_needs_python_and_platform(self):
        payload = make_payload()
        del payload["meta"]["python"]
        with pytest.raises(ValueError, match="python"):
            validate_bench(payload)

    def test_generated_at_is_caller_stamped(self):
        assert make_payload()["generated_at"] == "2026-01-01T00:00:00Z"

    def test_wrong_schema_rejected(self):
        payload = make_payload()
        payload["schema"] = "repro.perf.bench/0"
        with pytest.raises(ValueError, match="schema"):
            validate_bench(payload)

    def test_empty_workloads_rejected(self):
        payload = make_payload()
        payload["workloads"] = []
        with pytest.raises(ValueError, match="workload list"):
            validate_bench(payload)

    def test_missing_cached_field_rejected(self):
        payload = make_payload()
        del payload["workloads"][0]["cached"]["eval_cache_hits"]
        with pytest.raises(ValueError, match="eval_cache_hits"):
            validate_bench(payload)

    def test_divergence_rejected(self):
        payload = make_payload()
        payload["workloads"][0]["answers_equal"] = False
        with pytest.raises(ValueError, match="diverged"):
            validate_bench(payload)

    def test_missing_parallel_rejected(self):
        payload = make_payload()
        del payload["parallel"]
        with pytest.raises(ValueError, match="parallel"):
            validate_bench(payload)

    def test_parallel_mismatch_rejected(self):
        # Identity is enforced even where the speedup floor is not.
        payload = make_payload()
        payload["parallel"]["enforced"] = False
        payload["parallel"]["populations"][0]["matches"] = False
        with pytest.raises(ValueError, match="diverged from serial"):
            validate_bench(payload)

    def test_parallel_slow_speedup_rejected_when_enforced(self):
        payload = make_payload()
        payload["parallel"]["populations"][0]["speedup"] = 1.0
        with pytest.raises(ValueError, match="below the"):
            validate_bench(payload)

    def test_parallel_slow_speedup_tolerated_on_one_cpu(self):
        # The honest gate: a 1-CPU box cannot deliver 2x, so the
        # payload records enforced=False and the validator lets a
        # sub-floor ratio through (identity still required).
        payload = make_payload()
        payload["parallel"]["cpus"] = 1
        payload["parallel"]["enforced"] = False
        payload["parallel"]["populations"][0]["speedup"] = 0.9
        validate_bench(payload)

    def test_parallel_noise_exempt_skips_speedup_gate(self):
        payload = make_payload()
        entry = payload["parallel"]["populations"][0]
        entry["serial_s"] = 0.004
        entry["parallel_s"] = 0.009
        entry["speedup"] = 0.44
        entry["noise_exempt"] = True
        validate_bench(payload)

    def test_workloads_carry_noise_exempt_flag(self):
        payload = make_payload()
        assert isinstance(payload["workloads"][0]["noise_exempt"], bool)
        assert isinstance(payload["engine"][0]["noise_exempt"], bool)
        del payload["workloads"][0]["noise_exempt"]
        with pytest.raises(ValueError, match="noise_exempt"):
            validate_bench(payload)

    def test_missing_engine_section_rejected(self):
        payload = make_payload()
        del payload["engine"]
        with pytest.raises(ValueError, match="engine section"):
            validate_bench(payload)

    def test_engine_divergence_rejected(self):
        payload = make_payload()
        payload["engine"][0]["answers_equal"] = False
        with pytest.raises(ValueError, match="plan answer diverged"):
            validate_bench(payload)

    def test_engine_missing_plan_field_rejected(self):
        payload = make_payload()
        del payload["engine"][0]["plan"]["compile_s"]
        with pytest.raises(ValueError, match="compile_s"):
            validate_bench(payload)

    def test_missing_pushdown_section_rejected(self):
        payload = make_payload()
        del payload["pushdown"]
        with pytest.raises(ValueError, match="pushdown section"):
            validate_bench(payload)

    def test_pushdown_precision_loss_rejected(self):
        # The whole-point gate: summaries may tie or win, never lose.
        payload = make_payload()
        payload["pushdown"][0]["verdict"] = "right-more-precise"
        with pytest.raises(ValueError, match="less precise"):
            validate_bench(payload)

    def test_pushdown_incomparable_rejected(self):
        payload = make_payload()
        payload["pushdown"][0]["verdict"] = "incomparable"
        with pytest.raises(ValueError, match="less precise"):
            validate_bench(payload)

    def test_pushdown_missing_run_field_rejected(self):
        payload = make_payload()
        del payload["pushdown"][0]["direct"]["visits"]
        with pytest.raises(ValueError, match="visits"):
            validate_bench(payload)


class TestRoundTrip:
    def test_payload_is_json_round_trippable(self, tmp_path):
        payload = make_payload()
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(payload))
        loaded = validate_bench_file(str(path))
        assert loaded == json.loads(json.dumps(payload))

    def test_validate_file_rejects_broken_file(self, tmp_path):
        payload = make_payload()
        payload["workloads"][0]["answers_equal"] = False
        path = tmp_path / "BENCH_perf.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            validate_bench_file(str(path))

    def test_summarize_mentions_every_workload(self):
        payload = make_payload()
        text = summarize(payload)
        assert "corpus/constants" in text
        assert "engine/constants" in text
        assert "pushdown/constants" in text
        assert "parallel random-open" in text

    def test_workload_answers_equal(self):
        # The real cached-vs-uncached comparison inside _workload.
        entry = make_payload()["workloads"][0]
        assert entry["answers_equal"] is True
        assert entry["uncached"]["visits"] >= entry["cached"]["visits"]

    def test_copy_is_safe(self):
        # validate_bench must not mutate its argument.
        payload = make_payload()
        snapshot = copy.deepcopy(payload)
        validate_bench(payload)
        assert payload == snapshot
