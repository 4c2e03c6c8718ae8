"""Experiment perf-ablation: the analyzers' eval memo.

Not a paper artifact — an engineering regression guard.  The eval
memo off and on is timed on the Section 6.2 blowup workloads, with the
cached-vs-uncached answer equality asserted inside every benchmarked
callable so a timing row is only reported for a *correct* run.

The headline: on ``top_conditional_chain`` the eval memo turns the
2^k duplicated-path walk into an O(k) one, so the ``cache_full`` row
must beat ``cache_off`` by orders of magnitude.  The JSON regression
artifact (thresholds, survey timings) is produced by ``python -m
repro bench``; this file hooks the same workloads into the
pytest-benchmark harness.
"""

import pytest

from repro.analysis.semantic_cps import SemanticCpsAnalyzer
from repro.corpus import (
    corpus_program,
    top_conditional_chain,
)
from repro.domains import ConstPropDomain, Lattice

DOM = ConstPropDomain()
LAT = Lattice(DOM)

CONFIGS = {
    "cache_off": False,
    "cache_full": True,  # the eval memo
}


def _run_semantic(program, cache, expected):
    analyzer = SemanticCpsAnalyzer(
        program.term,
        initial=program.initial_for(LAT),
        loop_mode="top",
        cache=cache,
    )
    result = analyzer.run()
    if expected is not None:
        assert result.answer == expected.answer
    return result


@pytest.mark.experiment("perf-ablation")
@pytest.mark.parametrize("config", CONFIGS)
def test_eval_memo_on_blowup_family(benchmark, config):
    # k=10: ~2^10 duplicated paths uncached, ~linear with the memo.
    program = top_conditional_chain(10)
    expected = _run_semantic(program, False, None)

    result = benchmark(
        lambda: _run_semantic(program, CONFIGS[config], expected)
    )
    if config == "cache_full":
        assert result.stats.visits < 100


@pytest.mark.experiment("perf-ablation")
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("name", ["factorial", "church-pairs"])
def test_cache_stack_on_corpus(benchmark, config, name):
    program = corpus_program(name)
    expected = _run_semantic(program, False, None)

    benchmark(lambda: _run_semantic(program, CONFIGS[config], expected))
