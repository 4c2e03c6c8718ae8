"""Pinned `term_hash` digests.

Persistent response rows and the ``If-None-Match`` fast path are keyed
by `term_hash`, so its hex digests must not move: not with a change to
the AST classes (a cached-hash slot is not a field of the term), nor
with ``PYTHONHASHSEED``.  The digests of every corpus program, of its
cps(A) image, and of 20 seeded random open terms (raw and A-normalized)
are committed in ``golden/term_hash.json``.

Regenerate (only when a change of digests is intended, which orphans
every stored response) with::

    PYTHONPATH=src python tests/incr/test_term_hash_pins.py --write
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

from repro.anf import normalize
from repro.corpus.programs import PROGRAMS
from repro.cps import cps_transform
from repro.gen.random_terms import random_open_term
from repro.incr.hash import term_hash

FIXTURE = Path(__file__).parent / "golden" / "term_hash.json"


def _terms():
    """``(row name, term)`` in a fixed order."""
    for name in sorted(PROGRAMS):
        term = PROGRAMS[name].term
        yield f"corpus/{name}", term
        yield f"corpus/{name}/cps", cps_transform(term)
    for seed in range(20):
        term = random_open_term(random.Random(seed), 4)
        yield f"random/{seed}", term
        yield f"random/{seed}/anf", normalize(term)


def compute_fixture() -> dict:
    return {row: term_hash(term) for row, term in _terms()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_digests_match(golden):
    assert compute_fixture() == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_term_hash_pins.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps(compute_fixture(), indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {FIXTURE}")
