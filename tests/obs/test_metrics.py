"""Metrics registry: counters, gauges, histograms, spans, snapshots."""

import threading

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, Metrics


class TestCounter:
    def test_accumulates(self):
        metrics = Metrics()
        metrics.counter("visits").inc()
        metrics.counter("visits").inc(4)
        assert metrics.counter("visits").value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Metrics().counter("visits").inc(-1)

    def test_same_name_same_instrument(self):
        metrics = Metrics()
        assert metrics.counter("a") is metrics.counter("a")


class TestGauge:
    def test_set_tracks_high_water(self):
        gauge = Metrics().gauge("depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.max_value == 5

    def test_set_max_only_grows(self):
        gauge = Metrics().gauge("depth")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5
        assert gauge.max_value == 5


class TestHistogram:
    def test_summary_statistics(self):
        hist = Metrics().histogram("seconds")
        assert hist.mean is None
        for value in (1.0, 3.0, 2.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 6.0
        assert hist.min == 1.0
        assert hist.max == 3.0
        assert hist.mean == 2.0


class TestHistogramBuckets:
    def test_default_bounds_are_geometric(self):
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert len(DEFAULT_BUCKETS) == 28
        for narrow, wide in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]):
            assert wide == narrow * 2.0

    def test_observations_land_in_log_buckets(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.buckets == [1, 1, 1, 1]

    def test_cumulative_buckets_end_at_total_count(self):
        hist = Histogram("h", bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            hist.observe(value)
        assert hist.cumulative_buckets() == [
            (1.0, 1), (2.0, 2), (float("inf"), 3),
        ]


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        assert Metrics().histogram("h").quantile(0.5) is None

    def test_quantile_bounds_are_validated(self):
        with pytest.raises(ValueError):
            Metrics().histogram("h").quantile(1.5)

    def test_extremes_are_exact(self):
        hist = Metrics().histogram("h")
        for value in (0.001, 0.002, 0.004, 0.25):
            hist.observe(value)
        assert hist.quantile(0.0) == 0.001
        assert hist.quantile(1.0) == 0.25

    def test_quantiles_are_monotone(self):
        hist = Metrics().histogram("h")
        for index in range(1, 101):
            hist.observe(index / 1000.0)  # 1ms .. 100ms
        p50 = hist.quantile(0.50)
        p90 = hist.quantile(0.90)
        p99 = hist.quantile(0.99)
        assert p50 <= p90 <= p99 <= hist.max

    def test_quantile_error_bounded_by_bucket_width(self):
        # ×2 geometric buckets: the interpolated estimate can be off
        # by at most one bucket, i.e. a factor of 2.
        hist = Metrics().histogram("h")
        for index in range(1, 101):
            hist.observe(index / 1000.0)
        true_p50 = 0.050
        estimate = hist.quantile(0.50)
        assert true_p50 / 2 <= estimate <= true_p50 * 2

    def test_single_observation_pins_every_quantile(self):
        hist = Metrics().histogram("h")
        hist.observe(0.125)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 0.125


class TestThreadSafety:
    def test_concurrent_instrument_creation_and_updates(self):
        metrics = Metrics()

        def hammer(seed: int) -> None:
            for index in range(500):
                metrics.counter("shared").inc()
                metrics.histogram("lat").observe(index / 1000.0)
                metrics.gauge(f"g{seed}").set(index)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("shared").value == 8 * 500
        hist = metrics.histogram("lat")
        assert hist.count == 8 * 500
        assert sum(hist.buckets) == hist.count

    def test_same_name_race_returns_one_instrument(self):
        metrics = Metrics()
        seen = []

        def create() -> None:
            seen.append(metrics.counter("raced"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(instrument is seen[0] for instrument in seen)


class TestPrometheus:
    def test_counters_gauges_histograms_rendered(self):
        metrics = Metrics()
        metrics.counter("serve.requests.total").inc(7)
        metrics.gauge("serve.queue.depth").set(3)
        metrics.histogram("serve.request.seconds").observe(0.5)
        text = metrics.to_prometheus()
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 7" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "repro_serve_queue_depth 3" in text
        assert "repro_serve_queue_depth_max 3" in text
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert 'repro_serve_request_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_serve_request_seconds_sum 0.5" in text
        assert "repro_serve_request_seconds_count 1" in text

    def test_bucket_series_is_cumulative(self):
        metrics = Metrics()
        hist = metrics.histogram("lat")
        for value in (1e-6, 1.0, 1000.0):  # first, middle, overflow
            hist.observe(value)
        lines = [
            line
            for line in metrics.to_prometheus().splitlines()
            if line.startswith("repro_lat_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3
        assert lines[-1].startswith('repro_lat_bucket{le="+Inf"}')

    def test_names_are_sanitized(self):
        metrics = Metrics()
        metrics.counter("serve.responses.error.not_found").inc()
        text = metrics.to_prometheus()
        assert "repro_serve_responses_error_not_found 1" in text

    def test_ends_with_newline(self):
        assert Metrics().to_prometheus().endswith("\n")


class TestSpan:
    def test_records_duration_and_calls(self):
        metrics = Metrics()
        with metrics.span("work"):
            pass
        assert metrics.counter("work.calls").value == 1
        hist = metrics.histogram("work.seconds")
        assert hist.count == 1
        assert hist.min >= 0

    def test_records_even_on_exception(self):
        metrics = Metrics()
        with pytest.raises(RuntimeError):
            with metrics.span("work"):
                raise RuntimeError("boom")
        assert metrics.counter("work.calls").value == 1


class TestMergeStats:
    def test_counters_accumulate_and_max_keys_become_gauges(self):
        metrics = Metrics()
        metrics.merge_stats("analysis.direct", {"visits": 3, "max_depth": 2})
        metrics.merge_stats("analysis.direct", {"visits": 4, "max_depth": 1})
        assert metrics.counter("analysis.direct.visits").value == 7
        assert metrics.gauge("analysis.direct.max_depth").max_value == 2


class TestMerge:
    """`export`/`absorb`/`merged`: how a process-mode server folds its
    shards' registries into one."""

    @staticmethod
    def shard(visits, depth, observations):
        metrics = Metrics()
        metrics.counter("visits").inc(visits)
        metrics.gauge("depth").set_max(depth)
        for value in observations:
            metrics.histogram("seconds").observe(value)
        return metrics

    def test_counters_add_gauges_max_histograms_add_buckets(self):
        merged = Metrics()
        merged.absorb(self.shard(3, 5, [0.001, 0.5]).export())
        merged.absorb(self.shard(4, 2, [0.002]).export())
        assert merged.counter("visits").value == 7
        gauge = merged.gauge("depth")
        assert (gauge.value, gauge.max_value) == (5, 5)
        hist = merged.histogram("seconds")
        both = self.shard(0, 0, [0.001, 0.5, 0.002]).histogram("seconds")
        assert hist.buckets == both.buckets
        assert (hist.count, hist.min, hist.max) == (3, 0.001, 0.5)
        assert hist.total == pytest.approx(0.503)

    def test_merged_copies_and_leaves_the_source_alone(self):
        own = self.shard(1, 0, [0.25])
        own.gauge("level").set(-2)
        view = own.merged(self.shard(2, 0, []).export())
        assert view.counter("visits").value == 3
        # a gauge absent from the other side is copied, not maxed with 0
        assert view.gauge("level").value == -2
        assert own.counter("visits").value == 1
        assert own.histogram("seconds").count == 1
        assert view.snapshot()["histograms"] == own.snapshot()["histograms"]

    def test_mismatched_bounds_are_refused(self):
        metrics = Metrics()
        metrics.histogram("seconds").observe(1.0)
        other = Histogram("seconds", bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds differ"):
            metrics.histogram("seconds").merge(other.export())


class TestSnapshot:
    def test_nested_json_friendly_shape(self):
        metrics = Metrics()
        metrics.counter("c").inc(2)
        metrics.gauge("g").set(3)
        metrics.histogram("h").observe(1.5)
        snap = metrics.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": {"value": 3, "max": 3}}
        assert snap["histograms"]["h"] == {
            "count": 1,
            "total": 1.5,
            "mean": 1.5,
            "min": 1.5,
            "max": 1.5,
        }

    def test_empty_registry(self):
        assert Metrics().snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_quantiles_opt_in(self):
        metrics = Metrics()
        hist = metrics.histogram("h")
        for value in (0.001, 0.002, 0.004):
            hist.observe(value)
        plain = metrics.snapshot()["histograms"]["h"]
        assert set(plain) == {"count", "total", "mean", "min", "max"}
        rich = metrics.snapshot(quantiles=True)["histograms"]["h"]
        for key in ("p50", "p90", "p99"):
            assert isinstance(rich[key], float)
        assert rich["p50"] <= rich["p90"] <= rich["p99"]
