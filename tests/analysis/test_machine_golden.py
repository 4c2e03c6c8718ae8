"""A golden pin of the direct and semantic-CPS analyzers on both engines.

For every row — a program, a number domain and the eval memo off or on
— each of the four runs (direct and semantic-CPS, tree and plan) is
reduced to one digest of everything it makes observable: the answer
value, the final store, the full `AnalysisStats` dict, and the whole
trace event stream (kind and fields, in emission order), or the error
it raised.  The digests are committed in ``golden/machine_golden.json``;
a change to either analyzer that moves any of these, on any row, fails
here and names the row.

Values and stores are rendered with their members sorted, so a digest
does not depend on ``PYTHONHASHSEED``.

Rows: the whole corpus, the Section 6.2 chain families for k = 2..6,
``ackermann-open``, both loop programs (semantic-CPS also under its
default ``loop_mode='reject'``, which pins the refusal message), and 40
seeded random open terms, each under constant propagation and sign.

Regenerate (only when a change of answers is intended) with::

    PYTHONPATH=src python tests/analysis/test_machine_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.analysis.common import AnalysisError
from repro.analysis.direct import analyze_direct
from repro.analysis.semantic_cps import analyze_semantic_cps
from repro.anf import normalize
from repro.corpus.programs import (
    PROGRAMS,
    ackermann_open,
    call_site_chain,
    conditional_chain,
    loop_feeding_conditional,
    loop_threshold_open,
    top_conditional_chain,
)
from repro.domains import ConstPropDomain, Lattice, SignDomain
from repro.gen.random_terms import random_open_term
from repro.lang.syntax import free_variables

FIXTURE = Path(__file__).parent / "golden" / "machine_golden.json"
BUDGET = 100_000
DOMAINS = {"constprop": ConstPropDomain, "sign": SignDomain}
ENGINES = ("tree", "plan")


class _DigestSink:
    """A trace sink that folds each event into a running hash."""

    enabled = True

    def __init__(self, digest) -> None:
        self.digest = digest

    def emit(self, event) -> None:
        self.digest.update(repr(sorted(event.as_dict().items())).encode())

    def close(self) -> None:
        pass


def _render_num(num) -> str:
    if isinstance(num, (frozenset, set)):
        return "{" + ",".join(sorted(map(repr, num))) + "}"
    return repr(num)


def _render_value(value) -> str:
    return "({}; {}; {})".format(
        _render_num(value.num),
        ",".join(sorted(map(str, value.clos))),
        ",".join(sorted(map(str, value.konts))),
    )


def _programs():
    """``(row name, term, initial-for-lattice)`` in a fixed order."""
    for name in sorted(PROGRAMS):
        yield f"corpus/{name}", PROGRAMS[name].term, PROGRAMS[name].initial_for
    families = [
        make(k)
        for make in (conditional_chain, top_conditional_chain, call_site_chain)
        for k in range(2, 7)
    ]
    families += [ackermann_open(), loop_feeding_conditional(3),
                 loop_threshold_open()]
    for program in families:
        yield f"family/{program.name}", program.term, program.initial_for
    for seed in range(40):
        term = normalize(random_open_term(random.Random(seed), 4))

        def initial_for(lattice, term=term):
            return {
                name: lattice.of_num(lattice.domain.top)
                for name in free_variables(term)
            }

        yield f"random/{seed}", term, initial_for


def _has_loop(row: str) -> bool:
    return row.startswith("family/loop-")


def _digest(run) -> str:
    digest = hashlib.sha256()
    sink = _DigestSink(digest)
    try:
        result = run(sink)
    except AnalysisError as error:
        digest.update(f"error {type(error).__name__}: {error}".encode())
    else:
        digest.update(_render_value(result.value).encode())
        for name, value in sorted(result.store.items()):
            digest.update(f"{name}={_render_value(value)}".encode())
        digest.update(repr(sorted(result.stats.as_dict().items())).encode())
    return digest.hexdigest()[:16]


def _row_digests(row, term, initial_for, domain_name, cache) -> dict:
    domain = DOMAINS[domain_name]()
    initial = initial_for(Lattice(domain))
    common = dict(initial=initial, max_visits=BUDGET, cache=cache)
    out = {}
    for engine in ENGINES:
        out[f"direct/{engine}"] = _digest(
            lambda sink, e=engine: analyze_direct(
                term, domain, trace=sink, engine=e, **common
            )
        )
        out[f"semantic-cps/{engine}"] = _digest(
            lambda sink, e=engine: analyze_semantic_cps(
                term, domain, loop_mode="top", trace=sink, engine=e, **common
            )
        )
        if _has_loop(row):
            out[f"semantic-cps-reject/{engine}"] = _digest(
                lambda sink, e=engine: analyze_semantic_cps(
                    term, domain, trace=sink, engine=e, **common
                )
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
        sys.exit("usage: test_machine_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(compute_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
