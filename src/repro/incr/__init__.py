"""repro.incr — content-addressed persistence for the serve layer.

- `repro.incr.hash` — the alpha-invariant `term_hash`, the ETag that
  ``/v1/analyze`` echoes and matches for its ``not_modified`` fast
  path;
- `repro.incr.store` — the sqlite-backed `IncrStore` (WAL,
  multi-process safe, schema-versioned, size-bounded gc) that
  ``repro serve --incr-store`` persists whole response bodies in, and
  that ``repro cachectl`` inspects.

See ``docs/PERSISTENCE.md`` for the design.
"""

from repro.incr.hash import term_hash
from repro.incr.store import IncrStore, default_store_path, open_store

__all__ = [
    "IncrStore",
    "default_store_path",
    "open_store",
    "term_hash",
]
