"""Metrics kernel tests: instruments, registry, text page, snapshot."""

from __future__ import annotations

import threading

import pytest

from repro.service.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SERVICE_METRICS,
    scheme_energy_counter,
    service_metrics,
)


class TestCounter:
    def test_monotonic(self):
        c = Counter("hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1.0)

    def test_thread_safety(self):
        c = Counter("hits")
        threads = [
            threading.Thread(target=lambda: [c.inc() for _ in range(1000)])
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestGauge:
    def test_peak_tracks_high_water_mark(self):
        g = Gauge("depth")
        g.inc(5)
        g.dec(3)
        g.set(4)
        assert g.value == 4
        assert g.peak == 5

    def test_sample_includes_peak(self):
        g = Gauge("depth")
        g.set(2)
        assert g.sample() == {"value": 2.0, "peak": 2.0}


class TestHistogram:
    def test_count_sum_max(self):
        h = Histogram("latency")
        for v in (1.0, 5.0, 3.0):
            h.observe(v)
        sample = h.sample()
        assert sample["count"] == 3
        assert sample["sum"] == 9.0
        assert sample["max"] == 5.0
        assert sample["mean"] == pytest.approx(3.0)

    def test_percentiles(self):
        h = Histogram("latency")
        for v in range(1, 101):
            h.observe(float(v))
        # Sketch percentiles: within the ~7.5% log-bucket width.
        assert h.percentile(50.0) == pytest.approx(50.0, rel=0.09)
        assert h.percentile(95.0) == pytest.approx(95.0, rel=0.09)
        assert h.percentile(100.0) == 100.0

    def test_empty_percentile_is_none(self):
        assert Histogram("latency").percentile(50.0) is None


class TestRegistry:
    def test_idempotent_registration(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_covers_all_metrics(self):
        registry = service_metrics()
        snapshot = registry.snapshot()
        for _, name, _ in SERVICE_METRICS:
            assert name in snapshot

    def test_render_text_page(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "solve requests received").inc(7)
        registry.gauge("repro_queue_depth").set(2)
        registry.histogram("repro_batch_size").observe(4)
        page = registry.render_text()
        assert "# HELP repro_requests_total solve requests received" in page
        assert "# TYPE repro_requests_total counter" in page
        assert "repro_requests_total 7" in page  # integers render without .0
        assert "repro_queue_depth_peak 2" in page
        assert "repro_batch_size_count 1" in page

    def test_scheme_energy_counter_slug(self):
        registry = MetricsRegistry()
        counter = scheme_energy_counter(registry, "sdem-on")
        assert counter.name == "repro_energy_uj_total_sdem_on"
        assert scheme_energy_counter(registry, "sdem-on") is counter


class TestStreamingPercentiles:
    """The log-bucket sketch: all-time percentiles with bounded relative
    error and no recency bias."""

    def test_empty_is_none(self):
        assert Histogram("h").percentile(50.0) is None

    def test_bounded_relative_error(self):
        h = Histogram("h")
        for v in range(1, 10_001):
            h.observe(float(v))
        # Bucket width is 10^(1/32) ~= 7.5%; allow a little headroom.
        assert h.percentile(50.0) == pytest.approx(5000.0, rel=0.09)
        assert h.percentile(99.0) == pytest.approx(9900.0, rel=0.09)

    def test_remembers_tail_the_reservoir_forgot(self):
        """2000 slow observations followed by 98k fast ones: a recent-window
        view would report a fast p-anything; the sketch still sees the
        slow 2%."""
        import random

        rng = random.Random(1)
        h = Histogram("h")
        slow = [rng.uniform(400.0, 600.0) for _ in range(2000)]
        fast = [rng.uniform(0.5, 2.0) for _ in range(98_000)]
        for v in slow + fast:
            h.observe(v)
        # 98% of the mass is fast, so p95 is fast...
        assert h.percentile(95.0) < 3.0
        # ...but p99 still lands in the slow band (2% of mass).
        assert 350.0 < h.percentile(99.0) < 700.0

    def test_overflow_and_underflow_clamp_to_observed_extremes(self):
        h = Histogram("h")
        h.observe(0.0)       # below the 1e-3 bucket floor
        h.observe(1e9)       # beyond the 1e6 bucket ceiling
        assert h.percentile(1.0) == 0.0
        assert h.percentile(99.9) == 1e9

    def test_single_value_consistent(self):
        h = Histogram("h")
        h.observe(42.0)
        assert h.percentile(50.0) == pytest.approx(42.0, rel=0.08)

    def test_rendered_on_text_page(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.observe(float(v))
        text = "\n".join(h.render())
        for key in ("p50", "p95", "p99"):
            assert f"h_{key} " in text
        assert "_stream" not in text
        sample = h.sample()
        assert sample["p50"] == pytest.approx(50.0, rel=0.09)
        assert sample["p99"] == pytest.approx(99.0, rel=0.09)

    def test_thread_safety(self):
        import threading

        h = Histogram("h")

        def worker(base):
            for v in range(1, 1001):
                h.observe(float(v) * base)

        threads = [
            threading.Thread(target=worker, args=(b,)) for b in (1.0, 10.0)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 2000
        assert h.percentile(99.9) == pytest.approx(10_000.0, rel=0.09)
