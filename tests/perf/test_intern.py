"""Tests for `repro.dataflow.mfp.JoinMemo`, and a guard that store
interning stays deleted.

The analyzers once hash-consed stores and values and memoized store
joins by default; an A/B against the incremental store hash showed the
layer cost more CPU and memory than it saved, so it was removed.  The
MFP solver's `JoinMemo` (``dataflow --cache``) is the one join memo
left.
"""

import repro.perf
from repro.dataflow.mfp import JoinMemo


def test_perf_exports_no_interning_layer():
    # One opt-in cache (the eval memo, ``cache=True``) is the only
    # analyzer cache; interning must not return as a default-on path.
    for name in ("Interner", "PerfConfig"):
        assert not hasattr(repro.perf, name), name


class TestJoinMemo:
    def test_caches_the_join_function(self):
        calls = []

        def join(a, b):
            calls.append((a, b))
            return dict(a, **b)

        memo = JoinMemo(join, canon_key=lambda d: tuple(sorted(d.items())))
        a, b = {"x": 1}, {"y": 2}
        first = memo(a, b)
        second = memo({"x": 1}, {"y": 2})
        assert first is second == {"x": 1, "y": 2}
        assert len(calls) == 1
        assert memo.hits == 1 and memo.misses == 1

    def test_none_passes_through(self):
        memo = JoinMemo(lambda a, b: (a or frozenset()) | (b or frozenset()))
        assert memo.canonical(None) is None
        assert memo(None, frozenset({1})) == frozenset({1})

    def test_idempotent_identity_shortcut(self):
        join_calls = []

        def join(a, b):
            join_calls.append(1)
            return a | b

        memo = JoinMemo(join, canon_key=frozenset)
        a = {1, 2}
        canon = memo.canonical(a)
        assert memo(canon, canon) is canon
        assert not join_calls
