"""A guard that store interning stays deleted.

The analyzers once hash-consed stores and values and memoized store
joins by default; an A/B against the incremental store hash showed the
layer cost more CPU and memory than it saved, so it was removed.  The
MFP solver's join memo went the same way: it made `solve_mfp` slower
on every corpus program.
"""

import repro.perf


def test_perf_exports_no_interning_layer():
    # One opt-in cache (the eval memo, ``cache=True``) is the only
    # analyzer cache; interning must not return as a default-on path.
    for name in ("Interner", "PerfConfig"):
        assert not hasattr(repro.perf, name), name
