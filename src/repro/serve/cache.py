"""The cross-request LRU result cache.

Keys are the canonical request digests of :func:`repro.serve.jobs.
cache_key`; values are fully serialized response bodies, so a cache
hit returns a byte-identical payload without re-running (or even
re-touching) the analyzers.  One stored body stands in for every
request with the same canonical key.

Thread-safe: the server's handler threads probe it concurrently.
Hits emit a ``cache.hit`` trace event (component ``serve.cache``) and
bump the ``serve.cache.hits`` counter; misses and evictions have
counters too, so ``/metricsz`` exposes the hit rate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.events import CacheHit
from repro.obs.metrics import Metrics
from repro.obs.sinks import NULL_SINK, Sink


class ResultCache:
    """A bounded least-recently-used map from request digests to
    serialized response bodies."""

    def __init__(
        self,
        capacity: int = 256,
        metrics: Metrics | None = None,
        trace: Sink = NULL_SINK,
    ) -> None:
        if capacity < 0:
            raise ValueError("cache capacity must be >= 0")
        self.capacity = capacity
        self.metrics = metrics
        self.trace = trace
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, str]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> str | None:
        """The cached response body for ``key``, or None."""
        with self._lock:
            body = self._entries.get(key)
            if body is None:
                self.misses += 1
                self._count("serve.cache.misses")
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            self._count("serve.cache.hits")
        if self.trace.enabled:
            self.trace.emit(CacheHit(component="serve.cache", key=key))
        return body

    def put(self, key: str, body: str) -> None:
        """Store a response body (no-op for a zero-capacity cache)."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = body
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("serve.cache.evictions")
            if self.metrics is not None:
                self.metrics.gauge("serve.cache.size").set(
                    len(self._entries)
                )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    @property
    def hit_rate(self) -> float:
        """Hits over probes (0.0 before any probe)."""
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def snapshot(self) -> dict:
        """The JSON view ``/metricsz`` embeds."""
        with self._lock:
            size = len(self._entries)
        return {
            "capacity": self.capacity,
            "size": size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PersistentResponseTier:
    """Serialized response bodies persisted under the `repro.incr`
    store, below the in-memory `ResultCache`.

    A second server process (or the same one after a restart) pointed
    at the same store file serves these as fast-path hits without
    touching the analyzers.  Keys are the canonical request digests,
    config-scoped by the repro version (a release may change response
    bodies, so old rows must miss, not collide).  `lru_key` folds the
    store's generation counter into the in-memory cache key: a gc (or
    any schema reset) bumps the generation and orphans every LRU entry
    that was filled from — or alongside — the evicted rows.
    """

    def __init__(self, store) -> None:
        from repro import __version__

        self.store = store
        self.cfg = f"resp/{__version__}"

    def lru_key(self, key: str) -> str:
        return f"{key}:g{self.store.generation(refresh=True)}"

    def get(self, key: str) -> "str | None":
        from repro.incr.store import KIND_RESPONSE

        return self.store.get(self.cfg, KIND_RESPONSE, key, "-")

    def put(self, key: str, body: str) -> None:
        from repro.incr.store import KIND_RESPONSE

        self.store.put(self.cfg, KIND_RESPONSE, key, "-", body)
