"""A lightweight, thread-safe metrics registry.

Counters (monotone), gauges (last-write-wins, with a high-water mark),
and log-bucketed histograms (count/total/min/max plus ``quantile(q)``
tail estimates), plus ``span()`` timing contexts built on
``time.perf_counter``.  ``snapshot()`` returns a plain nested dict,
stable enough to print, JSON-encode, or assert on in tests; the
default shape is unchanged from v1, and ``snapshot(quantiles=True)``
adds p50/p90/p99 per histogram.  ``to_prometheus()`` renders the
whole registry in the Prometheus text exposition format (the
``GET /metricsz?format=prom`` body).

Instruments are created lazily on first use and identified by dotted
names (``"analyze.direct.seconds"``); re-requesting a name returns the
same instrument, so independent call sites accumulate into one series.

Every instrument is lock-guarded: the serve layer's handler threads
hammer one shared registry, and an unguarded ``dict`` insert or
read-modify-write ``+=`` would silently under-count.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager
from threading import Lock
from typing import Iterator, Mapping

#: Geometric bucket upper bounds: 1µs doubling up to ~134s.  Latencies
#: above the last bound land in the +Inf overflow bucket.  ×2 growth
#: bounds any quantile's relative error by the bucket width.
DEFAULT_BUCKETS: tuple[float, ...] = tuple(
    1e-6 * 2.0**exponent for exponent in range(28)
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value with a high-water mark."""

    __slots__ = ("name", "value", "max_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0
        self.max_value: float = 0
        self._lock = Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value
            if value > self.max_value:
                self.max_value = value

    def set_max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the high-water mark."""
        with self._lock:
            if value > self.max_value:
                self.value = value
                self.max_value = value

    def merge(self, value: float, max_value: float) -> None:
        """Fold in another gauge's reading: the larger value and the
        larger high-water mark win."""
        with self._lock:
            self.value = max(self.value, value)
            self.max_value = max(self.max_value, max_value)


class Histogram:
    """A log-bucketed distribution of an observed series.

    Keeps the exact count/total/min/max summaries of the v1 histogram
    and additionally counts observations into geometric buckets
    (`DEFAULT_BUCKETS`), which makes tail quantiles — the p99 a
    summary-only histogram literally cannot represent — computable via
    `quantile`.
    """

    __slots__ = (
        "name", "count", "total", "min", "max", "bounds", "buckets",
        "_lock",
    )

    def __init__(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.bounds = bounds
        # one slot per bound plus the +Inf overflow slot
        self.buckets = [0] * (len(bounds) + 1)
        self._lock = Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self.buckets[bisect_left(self.bounds, value)] += 1

    def export(self) -> dict:
        """Plain data that `merge` folds into another histogram."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "buckets": list(self.buckets),
                "count": self.count,
                "total": self.total,
                "min": self.min,
                "max": self.max,
            }

    def merge(self, data: Mapping) -> None:
        """Fold in another histogram's `export`: counts, totals and
        buckets add, min and max take the extremes."""
        if tuple(data["bounds"]) != self.bounds:
            raise ValueError(f"{self.name}: bucket bounds differ")
        with self._lock:
            self.count += data["count"]
            self.total += data["total"]
            for index, bucket_count in enumerate(data["buckets"]):
                self.buckets[index] += bucket_count
            if data["count"]:
                if self.min is None:
                    self.min, self.max = data["min"], data["max"]
                else:
                    self.min = min(self.min, data["min"])
                    self.max = max(self.max, data["max"])

    @property
    def mean(self) -> float | None:
        """The arithmetic mean, or None before any observation."""
        if self.count == 0:
            return None
        return self.total / self.count

    def quantile(self, q: float) -> float | None:
        """The ``q``-quantile (0 ≤ q ≤ 1), or None before any
        observation.

        Linear interpolation inside the containing bucket (the
        Prometheus ``histogram_quantile`` rule), clamped to the exact
        observed min/max so p0/p100 are precise.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        with self._lock:
            if self.count == 0:
                return None
            target = q * self.count
            cumulative = 0
            for index, bucket_count in enumerate(self.buckets):
                if bucket_count == 0:
                    continue
                if cumulative + bucket_count >= target:
                    lower = self.bounds[index - 1] if index > 0 else 0.0
                    upper = (
                        self.bounds[index]
                        if index < len(self.bounds)
                        else self.max
                    )
                    fraction = (target - cumulative) / bucket_count
                    value = lower + (upper - lower) * fraction
                    return min(max(value, self.min), self.max)
                cumulative += bucket_count
            return self.max  # pragma: no cover - target <= count always

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style
        (the final pair is ``(inf, count)``)."""
        with self._lock:
            pairs = []
            cumulative = 0
            for bound, bucket_count in zip(self.bounds, self.buckets):
                cumulative += bucket_count
                pairs.append((bound, cumulative))
            pairs.append((float("inf"), self.count))
            return pairs

    def summary(self, quantiles: bool = False) -> dict:
        """The snapshot entry; with ``quantiles`` adds p50/p90/p99."""
        entry = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }
        if quantiles:
            entry["p50"] = self.quantile(0.50)
            entry["p90"] = self.quantile(0.90)
            entry["p99"] = self.quantile(0.99)
        return entry


def _prom_name(name: str) -> str:
    """A dotted instrument name as a Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return f"repro_{sanitized}"


def _prom_value(value: float | None) -> str:
    if value is None:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    return repr(float(value)) if isinstance(value, float) else str(value)


class Metrics:
    """The registry: named counters, gauges, histograms, and spans."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_lock")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = Lock()

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block with ``time.perf_counter``.

        The duration lands in the histogram ``{name}.seconds`` and the
        counter ``{name}.calls``; exceptions propagate but the span is
        still recorded (aborted work is work too).
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.histogram(f"{name}.seconds").observe(elapsed)
            self.counter(f"{name}.calls").inc()

    def merge_stats(self, prefix: str, stats: dict[str, int]) -> None:
        """Fold a plain stats dict (e.g. ``AnalysisStats.as_dict()``)
        into counters/gauges under ``prefix``."""
        for key, value in stats.items():
            if key.startswith("max_"):
                self.gauge(f"{prefix}.{key}").set_max(value)
            else:
                self.counter(f"{prefix}.{key}").inc(value)

    def export(self) -> dict:
        """Every instrument as plain (picklable) data for `absorb`:
        how a shard process sends its work to the dispatcher."""
        counters, gauges, histograms = self._instruments()
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {
                name: (gauge.value, gauge.max_value) for name, gauge in gauges
            },
            "histograms": {
                name: hist.export() for name, hist in histograms
            },
        }

    def absorb(self, exported: Mapping) -> None:
        """Merge another registry's `export` into this one: counters
        add, gauges keep the larger value and mark, histograms add
        bucket by bucket."""
        for name, value in exported.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, (value, max_value) in exported.get("gauges", {}).items():
            with self._lock:
                gauge = self._gauges.get(name)
                if gauge is None:
                    # A copy, not a max against the fresh gauge's 0.
                    gauge = self._gauges[name] = Gauge(name)
                    gauge.value, gauge.max_value = value, max_value
                    continue
            gauge.merge(value, max_value)
        for name, data in exported.get("histograms", {}).items():
            with self._lock:
                hist = self._histograms.get(name)
                if hist is None:
                    hist = self._histograms[name] = Histogram(
                        name, tuple(data["bounds"])
                    )
            hist.merge(data)

    def merged(self, exported: Mapping) -> "Metrics":
        """A fresh registry holding this one's instruments merged with
        ``exported`` (how a process-mode server reports the work its
        shards did); this registry is left untouched."""
        view = Metrics()
        view.absorb(self.export())
        view.absorb(exported)
        return view

    def _instruments(self) -> tuple[list, list, list]:
        with self._lock:
            return (
                sorted(self._counters.items()),
                sorted(self._gauges.items()),
                sorted(self._histograms.items()),
            )

    def snapshot(self, quantiles: bool = False) -> dict:
        """A JSON-serializable view of every instrument.

        The default shape is the stable v1 contract; ``quantiles=True``
        adds ``p50``/``p90``/``p99`` to each histogram entry (what
        ``GET /metricsz`` serves).
        """
        counters, gauges, histograms = self._instruments()
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {
                name: {"value": gauge.value, "max": gauge.max_value}
                for name, gauge in gauges
            },
            "histograms": {
                name: hist.summary(quantiles=quantiles)
                for name, hist in histograms
            },
        }

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format
        (version 0.0.4): counters, gauges (plus their ``_max`` high
        -water marks), and histograms with cumulative ``_bucket``
        series, ``_sum``, and ``_count``."""
        lines: list[str] = []
        counters, gauges, histograms = self._instruments()
        for name, counter in counters:
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {counter.value}")
        for name, gauge in gauges:
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_prom_value(gauge.value)}")
            lines.append(f"# TYPE {metric}_max gauge")
            lines.append(f"{metric}_max {_prom_value(gauge.max_value)}")
        for name, hist in histograms:
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} histogram")
            for bound, cumulative in hist.cumulative_buckets():
                le = "+Inf" if bound == float("inf") else f"{bound:.6g}"
                lines.append(
                    f'{metric}_bucket{{le="{le}"}} {cumulative}'
                )
            lines.append(f"{metric}_sum {_prom_value(hist.total)}")
            lines.append(f"{metric}_count {hist.count}")
        return "\n".join(lines) + "\n"
