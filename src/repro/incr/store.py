"""The persistent, content-addressed response store.

A single sqlite file (stdlib only) in WAL mode, safe under the
multi-process shard model: WAL gives many concurrent readers plus one
writer, writers queue on ``busy_timeout``, and every write happens in
one short transaction.  Rows are keyed by
``(config × kind × subject digest × judgment digest)``.  The serve
layer's `repro.serve.cache.PersistentResponseTier` writes
``kind="resp"`` rows: one serialized response body per canonical
request digest, under a config that names the repro version.  Files
written before sub-term summaries were removed may still hold
``kind="sub"`` rows; they are kept, counted under their own kind by
`IncrStore.summary`, and evicted by `IncrStore.gc` like any other row.

The header is schema-versioned: opening a store written by a
different layout drops and recreates it (content-addressed caches
lose nothing but warmth).  A monotone **generation** counter bumps on
every gc and every schema recreation; the serve layer folds it into
its volatile response-cache keys so an on-disk invalidation can never
be papered over by a stale in-memory entry.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from dataclasses import dataclass

#: Bump to invalidate every existing store file.
STORE_SCHEMA = 1

#: The row kind of a serve-layer response body.
KIND_RESPONSE = "resp"

#: Environment override for the default store location.
STORE_ENV = "REPRO_INCR_STORE"

_BUSY_TIMEOUT_MS = 5_000


@dataclass
class StoreStats:
    """Runtime counters for one `IncrStore` handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "errors": self.errors,
        }


class IncrStore:
    """A handle on the persistent store.

    Handles are cheap and per-process (sqlite connections must not
    cross ``fork``); every shard opens its own against the same path.
    """

    def __init__(self, path: str, max_bytes: int | None = None) -> None:
        self.path = path
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._generation_cache: int | None = None
        self._data_version: int | None = None
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._db = sqlite3.connect(path, check_same_thread=False)
        self._db.execute(f"PRAGMA busy_timeout={_BUSY_TIMEOUT_MS}")
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._ensure_schema()

    # -- schema ----------------------------------------------------------

    def _ensure_schema(self) -> None:
        with self._lock, self._db as db:
            db.execute(
                "CREATE TABLE IF NOT EXISTS meta"
                " (key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = db.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is not None and int(row[0]) == STORE_SCHEMA:
                self._create_tables(db)
                return
            # Unversioned, or written by another layout: start clean.
            db.execute("DROP TABLE IF EXISTS summaries")
            self._create_tables(db)
            db.execute(
                "INSERT OR REPLACE INTO meta VALUES ('schema', ?)",
                (str(STORE_SCHEMA),),
            )
            if row is not None:
                self._bump_generation(db)

    @staticmethod
    def _create_tables(db: sqlite3.Connection) -> None:
        db.execute(
            "CREATE TABLE IF NOT EXISTS summaries ("
            " cfg TEXT NOT NULL,"
            " kind TEXT NOT NULL,"
            " subject TEXT NOT NULL,"
            " judgment TEXT NOT NULL,"
            " payload TEXT NOT NULL,"
            " created REAL NOT NULL,"
            " last_used REAL NOT NULL,"
            " PRIMARY KEY (cfg, kind, subject, judgment))"
        )
        db.execute(
            "CREATE INDEX IF NOT EXISTS summaries_lru"
            " ON summaries (last_used)"
        )
        db.execute(
            "INSERT OR IGNORE INTO meta VALUES ('generation', '0')"
        )
        db.execute("INSERT OR IGNORE INTO meta VALUES ('gc_runs', '0')")

    @staticmethod
    def _bump_generation(db: sqlite3.Connection) -> None:
        db.execute(
            "UPDATE meta SET value = CAST(value AS INTEGER) + 1"
            " WHERE key='generation'"
        )

    # -- reads -----------------------------------------------------------

    def get(
        self, cfg: str, kind: str, subject: str, judgment: str
    ) -> str | None:
        """One payload, or None; counts a hit or miss."""
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM summaries"
                " WHERE cfg=? AND kind=? AND subject=? AND judgment=?",
                (cfg, kind, subject, judgment),
            ).fetchone()
        if row is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._touch((cfg, kind, subject, judgment))
        return row[0]

    def _touch(self, key: tuple[str, str, str, str]) -> None:
        try:
            with self._lock, self._db as db:
                db.execute(
                    "UPDATE summaries SET last_used=?"
                    " WHERE cfg=? AND kind=? AND subject=? AND judgment=?",
                    (time.time(), *key),
                )
        except sqlite3.OperationalError:
            self.stats.errors += 1

    # -- writes ----------------------------------------------------------

    def put(
        self, cfg: str, kind: str, subject: str, judgment: str, payload: str
    ) -> None:
        """Insert one row (idempotent: same key, same content —
        ``INSERT OR REPLACE`` keeps retries safe)."""
        now = time.time()
        try:
            with self._lock, self._db as db:
                db.execute(
                    "INSERT OR REPLACE INTO summaries VALUES"
                    " (?, ?, ?, ?, ?, ?, ?)",
                    (cfg, kind, subject, judgment, payload, now, now),
                )
            self.stats.puts += 1
        except sqlite3.OperationalError:
            self.stats.errors += 1

    # -- meta ------------------------------------------------------------

    def generation(self, refresh: bool = False) -> int:
        """The invalidation generation.

        Cached per handle; ``PRAGMA data_version`` (cheap — no row
        reads) detects commits by *other* connections, so a gc run in
        another shard is noticed without re-reading meta per request.
        """
        with self._lock:
            version = self._db.execute(
                "PRAGMA data_version"
            ).fetchone()[0]
            if (
                not refresh
                and self._generation_cache is not None
                and version == self._data_version
            ):
                return self._generation_cache
            row = self._db.execute(
                "SELECT value FROM meta WHERE key='generation'"
            ).fetchone()
            self._generation_cache = int(row[0]) if row else 0
            self._data_version = version
            return self._generation_cache

    def _meta_int(self, key: str) -> int:
        row = self._db.execute(
            "SELECT value FROM meta WHERE key=?", (key,)
        ).fetchone()
        return int(row[0]) if row else 0

    # -- stats and gc ----------------------------------------------------

    def file_bytes(self) -> int:
        """Bytes on disk (main file + WAL)."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            try:
                total += os.path.getsize(self.path + suffix)
            except OSError:
                pass
        return total

    def summary(self) -> dict:
        """Store-wide stats: disk + this handle's runtime counters."""
        with self._lock:
            entries = self._db.execute(
                "SELECT kind, COUNT(*), COALESCE(SUM(LENGTH(payload)), 0)"
                " FROM summaries GROUP BY kind"
            ).fetchall()
            gc_runs = self._meta_int("gc_runs")
        by_kind = {
            kind: {"entries": count, "payload_bytes": size}
            for kind, count, size in entries
        }
        return {
            "path": self.path,
            "schema": STORE_SCHEMA,
            "generation": self.generation(),
            "gc_runs": gc_runs,
            "bytes": self.file_bytes(),
            "entries": sum(e["entries"] for e in by_kind.values()),
            "by_kind": by_kind,
            **self.stats.as_dict(),
        }

    def gc(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used rows until the payload total is
        under ``max_bytes`` (0 clears everything), then bump the
        generation so volatile caches keyed on it invalidate."""
        limit = self.max_bytes if max_bytes is None else max_bytes
        evicted = 0
        with self._lock, self._db as db:
            if limit is not None:
                while True:
                    total = db.execute(
                        "SELECT COALESCE(SUM(LENGTH(payload)), 0)"
                        " FROM summaries"
                    ).fetchone()[0]
                    if total <= limit:
                        break
                    cursor = db.execute(
                        "DELETE FROM summaries WHERE rowid IN ("
                        " SELECT rowid FROM summaries"
                        " ORDER BY last_used ASC LIMIT 256)"
                    )
                    if cursor.rowcount <= 0:
                        break
                    evicted += cursor.rowcount
            db.execute(
                "UPDATE meta SET value = CAST(value AS INTEGER) + 1"
                " WHERE key='gc_runs'"
            )
            self._bump_generation(db)
        self._generation_cache = None
        try:
            self._db.execute("VACUUM")
        except sqlite3.OperationalError:
            self.stats.errors += 1
        with self._lock:
            remaining = self._db.execute(
                "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM summaries"
            ).fetchone()[0]
        return {
            "evicted": evicted,
            "bytes": remaining,
            "generation": self.generation(True),
        }

    def close(self) -> None:
        try:
            self._db.close()
        except sqlite3.Error:
            pass

    def __enter__(self) -> "IncrStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def default_store_path() -> str:
    """The store path used when none is given: ``$REPRO_INCR_STORE``
    or ``~/.cache/repro/incr.sqlite``."""
    override = os.environ.get(STORE_ENV)
    if override:
        return override
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "incr.sqlite"
    )


def open_store(
    path: str | None, max_bytes: int | None = None
) -> IncrStore | None:
    """Open ``path`` as an `IncrStore`, or None when ``path`` is None.

    Never raises: a store that cannot be opened (corrupt file,
    permissions) is reported as None so analysis proceeds uncached.
    """
    if path is None:
        return None
    try:
        return IncrStore(path, max_bytes=max_bytes)
    except sqlite3.Error:
        return None


def describe(path: str) -> dict:
    """`cachectl stats` helper: open read-only-ish and summarize."""
    store = IncrStore(path)
    try:
        return store.summary()
    finally:
        store.close()


def _format_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024
    return f"{n}B"


def render_stats(summary: dict) -> str:
    """Human-readable `cachectl stats` output."""
    lines = [
        f"store     {summary['path']}",
        f"schema    {summary['schema']}   generation {summary['generation']}"
        f"   gc_runs {summary['gc_runs']}",
        f"disk      {_format_bytes(summary['bytes'])}"
        f"   entries {summary['entries']}",
    ]
    for kind, info in sorted(summary.get("by_kind", {}).items()):
        lines.append(
            f"  {kind:<6} {info['entries']:>8} entries"
            f"  {_format_bytes(info['payload_bytes'])}"
        )
    lines.append(
        "session   hits {hits}  misses {misses}"
        "  puts {puts}  errors {errors}".format(**summary)
    )
    return "\n".join(lines)


__all__ = [
    "IncrStore",
    "StoreStats",
    "STORE_SCHEMA",
    "KIND_RESPONSE",
    "STORE_ENV",
    "default_store_path",
    "open_store",
    "describe",
    "render_stats",
]
