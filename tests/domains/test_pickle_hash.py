"""Abstract values, stores, terms and closure tokens pickle without
their cached hashes.

`AbsVal`, `AbsStore` and `SlotStore` cache their hash, and so do the
compound nodes of both ASTs and the closure, continuation and frame
tokens `AbsClo`, `AbsCpsClo`, `AbsCo` and `AFrame`.  That hash folds
in string hashes, so it depends on the process's ``PYTHONHASHSEED``.
A value pickled in one process and loaded in another (a ``spawn``
worker, say) must hash there as a fresh equal value does, or set and
dict lookups miss it.  The closure tags come back as the module's
singletons, which the analyzers test by identity.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

BUILD = """
from repro.analysis.common import A_INC, A_STOP
from repro.domains import AbsStore, AbsVal, ConstPropDomain, Lattice
from repro.domains.store import SlotStore

lattice = Lattice(ConstPropDomain())
value = AbsVal(3, frozenset({A_INC, "x"}), frozenset({A_STOP}))
values = [
    value,
    AbsStore(lattice, {"x": value, "y": lattice.of_const(1)}),
    SlotStore(lattice, (value, lattice.bottom, lattice.of_clos(A_INC)), 2),
]
"""

DUMP = BUILD + """
import pickle, sys
for item in values:
    hash(item)  # fill every cache before pickling
sys.stdout.buffer.write(pickle.dumps(values))
"""

LOAD = BUILD + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
for got, want in zip(loaded, values):
    assert got == want, (got, want)
    assert hash(got) == hash(want), type(got).__name__
    assert got in {want}, type(got).__name__
assert any(tag is A_INC for tag in loaded[0].clos)
assert any(tag is A_STOP for tag in loaded[0].konts)
slots = loaded[2]
assert slots.vals[1] is slots.lattice.bottom
print("ok")
"""


def _python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = {
        **os.environ,
        "PYTHONHASHSEED": str(seed),
        "PYTHONPATH": str(SRC),
    }
    done = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_cached_hashes_do_not_cross_hash_seeds():
    pickled = _python(DUMP, seed=1)
    assert _python(LOAD, seed=2, stdin=pickled) == b"ok\n"


TERMS = """
from repro.analysis.common import AbsClo, AbsCo, AbsCpsClo, AFrame
from repro.anf import normalize
from repro.cps import cps_transform
from repro.lang import parse

source = "(let (f (lambda (x) (if0 x (add1 x) (+ x 2)))) (let (y (f 1)) y))"
term = normalize(parse(source))
lam = term.rhs
cterm = cps_transform(term)
clam = cterm.value
klam = cterm.body.kont
values = [
    term,
    lam,
    cterm,
    clam,
    klam,
    AbsClo(lam.param, lam.body),
    AbsCpsClo(clam.param, clam.kparam, clam.body),
    AbsCo(klam.param, klam.body),
    AFrame("f", term.body),
]
"""

TERMS_DUMP = TERMS + """
import pickle, sys
for item in values:
    hash(item)  # fill every cache before pickling
sys.stdout.buffer.write(pickle.dumps(values))
"""

TERMS_LOAD = TERMS + """
import pickle, sys
loaded = pickle.loads(sys.stdin.buffer.read())
for got, want in zip(loaded, values):
    name = type(got).__name__
    assert got == want, name
    assert hash(got) == hash(want), name
    assert got in {want}, name
    assert want in set(loaded), name
print("ok")
"""


def test_terms_and_tokens_rehash_under_another_seed():
    pickled = _python(TERMS_DUMP, seed=1)
    assert _python(TERMS_LOAD, seed=2, stdin=pickled) == b"ok\n"
