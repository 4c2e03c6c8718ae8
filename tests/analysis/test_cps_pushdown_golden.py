"""A golden pin of the syntactic-CPS analyzer on both engines and of the
pushdown analyzer (tree only), the sibling of `test_machine_golden`.

Same rows (the whole corpus, the Section 6.2 families,
``ackermann-open``, both loop programs and 40 seeded random open terms,
each under constant propagation and sign, with the eval memo off and
on) and the same digest of answer, store, full `AnalysisStats` and
event stream as `test_machine_golden`, under a 10k-visit budget.
Syntactic-CPS analyzes ``cps_transform(M)`` from the δe image of the
direct initial store, as every front door does; it runs with
``loop_mode='top'``, and on the loop programs also under its default
``'reject'``.  The digests are committed in
``golden/cps_pushdown_golden.json``.

Regenerate (only when a change of answers is intended) with::

    PYTHONPATH=src python tests/analysis/test_cps_pushdown_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.analysis.registry import run_analyzer
from repro.domains import Lattice
from tests.analysis.test_machine_golden import (
    DOMAINS,
    ENGINES,
    _digest,
    _has_loop,
    _programs,
)

FIXTURE = Path(__file__).parent / "golden" / "cps_pushdown_golden.json"
#: Smaller than the sibling's: syntactic-CPS meets the Section 6.2
#: blowup on the call-site chains and Ackermann, and a traced run to
#: 100k visits there takes seconds per row.  Those rows pin the abort
#: and every event before it.
BUDGET = 10_000


def _row_digests(row, term, initial_for, domain_name, cache) -> dict:
    domain = DOMAINS[domain_name]()
    common = dict(
        domain=domain,
        initial=initial_for(Lattice(domain)),
        max_visits=BUDGET,
        cache=cache,
    )
    out = {}
    for engine in ENGINES:
        out[f"syntactic-cps/{engine}"] = _digest(
            lambda sink, e=engine: run_analyzer(
                "syntactic-cps", term, engine=e, trace=sink,
                loop_mode="top", **common
            )
        )
        if _has_loop(row):
            out[f"syntactic-cps-reject/{engine}"] = _digest(
                lambda sink, e=engine: run_analyzer(
                    "syntactic-cps", term, engine=e, trace=sink, **common
                )
            )
    out["pushdown/tree"] = _digest(
        lambda sink: run_analyzer("pushdown", term, trace=sink, **common)
    )
    return out


def _rows():
    for row, term, initial_for in _programs():
        for domain_name in DOMAINS:
            for cache in (False, True):
                key = f"{row}/{domain_name}/cache-{'on' if cache else 'off'}"
                yield key, (row, term, initial_for, domain_name, cache)


def compute_fixture() -> dict:
    """Every row's digests, keyed by row name."""
    return {key: _row_digests(*args) for key, args in _rows()}


ROWS = dict(_rows())
GROUPS = sorted({key.split("/")[0] for key in ROWS})


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_row(golden):
    assert sorted(golden) == sorted(ROWS)


@pytest.mark.parametrize("group", GROUPS)
def test_digests_match(group, golden):
    mismatched = [
        key
        for key, args in ROWS.items()
        if key.startswith(group + "/")
        and _row_digests(*args) != golden[key]
    ]
    assert mismatched == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cps_pushdown_golden.py --write")
    FIXTURE.write_text(
        json.dumps(compute_fixture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
