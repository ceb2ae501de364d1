"""Replay harness tests: in-process sink, percentiles, SLO ramp, digest.

The byte-reproducibility test here is the tier-1 guard for the ISSUE's
acceptance criterion (the 10^5-job version runs in the streaming bench
slice; the same code path is pinned here at CI-friendly size).
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.config import experiment_platform
from repro.replay import (
    ArrivalSpec,
    LatencyStats,
    ReplayReport,
    find_max_sustainable_rate,
    format_sustainable_rate,
    open_loop_latency_ms,
    percentile,
    replay_inprocess,
    run_replay,
    table_digest,
)


@pytest.fixture(scope="module")
def platform():
    return experiment_platform()


class TestPercentile:
    def test_exact_order_statistics(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50.0) == 50
        assert percentile(values, 99.0) == 99
        assert percentile(values, 100.0) == 100
        assert percentile(values, 0.0) == 1

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 50.0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_latency_stats_fields(self):
        stats = LatencyStats.from_values([float(v) for v in range(1, 1001)])
        assert stats.count == 1000
        assert stats.p50_ms == 500.0
        assert stats.p99_ms == 990.0
        assert stats.p99_9_ms == 999.0
        assert stats.max_ms == 1000.0
        assert stats.mean_ms == pytest.approx(500.5)
        assert LatencyStats.from_values([]) is None


class TestOpenLoopRecursion:
    def test_no_queueing_when_sparse(self):
        # Arrivals far apart: each latency is its own service time.
        latencies = open_loop_latency_ms([0.0, 100.0, 200.0], [5.0, 6.0, 7.0])
        assert latencies == [5.0, 6.0, 7.0]

    def test_queueing_accumulates_under_overload(self):
        # Simultaneous arrivals on one server: waits stack up.
        latencies = open_loop_latency_ms([0.0, 0.0, 0.0], [10.0, 10.0, 10.0])
        assert latencies == [10.0, 20.0, 30.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            open_loop_latency_ms([0.0], [1.0, 2.0])


class TestInprocessSink:
    def test_feasible_rate_all_done_no_misses(self, platform):
        spec = ArrivalSpec(mode="poisson", n=400, rate_jobs_s=50.0, seed=2)
        report = run_replay(spec, platform)
        assert report.counts["done"] == 400
        assert report.counts["shed"] == 0
        assert report.counts["deadline_miss"] == 0
        assert report.virtual is not None and report.virtual.count == 400
        assert report.energy is not None
        assert report.energy["per_job_uj"] > 0.0

    def test_byte_reproducible_digest(self, platform):
        spec = ArrivalSpec(mode="poisson", n=2000, rate_jobs_s=80.0, seed=1)
        first = run_replay(spec, platform)
        second = run_replay(spec, platform)
        assert first.digest == second.digest
        # The digest covers the whole canonical table, not just stats.
        rows_a = [r.canonical_row() for r in first.records]
        rows_b = [r.canonical_row() for r in second.records]
        assert rows_a == rows_b

    def test_digest_sensitive_to_seed(self, platform):
        base = ArrivalSpec(mode="poisson", n=200, rate_jobs_s=80.0, seed=1)
        other = ArrivalSpec(mode="poisson", n=200, rate_jobs_s=80.0, seed=2)
        assert (
            run_replay(base, platform).digest
            != run_replay(other, platform).digest
        )

    def test_backlog_cap_sheds_deterministically(self, platform):
        spec = ArrivalSpec(mode="mmpp", n=800, rate_jobs_s=600.0, seed=3)
        report = run_replay(spec, platform, max_backlog=8)
        assert report.counts["shed"] > 0
        assert report.max_backlog_seen <= 8
        # Shed rows carry no latency and are flagged in the table.
        shed_rows = [r for r in report.records if r.status == "shed"]
        assert shed_rows and all(math.isnan(r.latency_ms) for r in shed_rows)
        repeat = run_replay(spec, platform, max_backlog=8)
        assert repeat.counts["shed"] == report.counts["shed"]
        assert repeat.digest == report.digest

    def test_virtual_latency_within_span(self, platform):
        """Admitted jobs finish inside their feasible window: the online
        relaxation procrastinates but never past a latest start."""
        spec = ArrivalSpec(mode="poisson", n=300, rate_jobs_s=100.0, seed=5)
        report = run_replay(spec, platform)
        for record in report.records:
            assert record.deadline_met
            assert record.finish_ms <= record.deadline_ms + 1e-6
            assert record.queue_wait_ms >= 0.0
            assert record.latency_ms >= record.queue_wait_ms

    def test_trace_mode_replays_common_release(self, platform):
        from repro.models import Task

        trace = tuple(
            Task(0.0, 40.0 + 20.0 * i, 3000.0, f"t{i}") for i in range(4)
        )
        spec = ArrivalSpec(mode="trace", n=4, trace_tasks=trace)
        report = run_replay(spec, platform)
        assert report.counts["done"] == 4
        assert report.counts["deadline_miss"] == 0

    def test_empty_and_bad_args_rejected(self, platform):
        with pytest.raises(ValueError):
            replay_inprocess([], platform)
        jobs = ArrivalSpec(n=3, seed=1).jobs()
        with pytest.raises(ValueError):
            replay_inprocess(jobs, platform, max_backlog=0)
        with pytest.raises(ValueError):
            run_replay(ArrivalSpec(n=3, seed=1), platform, sink="mystery")

    def test_service_sink_requires_endpoint(self, platform):
        with pytest.raises(ValueError):
            run_replay(ArrivalSpec(n=3, seed=1), platform, sink="service")


class TestReport:
    def test_wire_roundtrips_json(self, platform):
        import json

        spec = ArrivalSpec(mode="poisson", n=100, rate_jobs_s=60.0, seed=9)
        report = run_replay(spec, platform)
        wire = report.to_wire(include_records=True)
        assert json.loads(json.dumps(wire))["counts"]["done"] == 100
        assert len(wire["records"]) == 100
        assert "records" not in report.to_wire()

    def test_render_mentions_key_figures(self, platform):
        spec = ArrivalSpec(mode="poisson", n=50, rate_jobs_s=60.0, seed=9)
        text = run_replay(spec, platform).render()
        assert "uJ/job" in text
        assert "p99" in text
        assert "digest" in text

    def test_table_digest_ignores_wall_telemetry(self, platform):
        spec = ArrivalSpec(mode="poisson", n=50, rate_jobs_s=60.0, seed=9)
        report = run_replay(spec, platform)
        mutated = [r for r in report.records]
        mutated[0].solve_wall_ms = 999.0  # telemetry only
        assert table_digest(mutated, report.energy) == report.digest


class TestSloRamp:
    def test_ramp_reports_points_and_best(self, platform):
        spec = ArrivalSpec(mode="poisson", n=300, seed=6)
        best, points = find_max_sustainable_rate(
            spec,
            platform,
            rates_jobs_s=[50.0, 100.0],
            slo_p99_ms=10_000.0,  # generous: both rates must pass
            max_backlog=64,
        )
        assert [p.rate_jobs_s for p in points] == [50.0, 100.0]
        assert best == 100.0
        assert all(p.sustainable for p in points)

    def test_impossible_slo_yields_none(self, platform):
        spec = ArrivalSpec(mode="poisson", n=200, seed=6)
        best, points = find_max_sustainable_rate(
            spec,
            platform,
            rates_jobs_s=[50.0],
            slo_p99_ms=1e-9,
            max_backlog=64,
        )
        assert best is None
        assert points[0].sustainable is False

    def test_every_point_passing_is_censored(self, platform):
        spec = ArrivalSpec(mode="poisson", n=100, seed=6)
        ramp = find_max_sustainable_rate(
            spec,
            platform,
            rates_jobs_s=[50.0, 100.0],
            slo_p99_ms=10_000.0,
            max_backlog=64,
        )
        assert ramp.best == 100.0
        assert ramp.censored is True
        assert (
            format_sustainable_rate(ramp.best, ramp.censored)
            == ">= 100 jobs/s (censored)"
        )

    def test_failing_top_point_is_not_censored(self, platform):
        # The top rate's backlog overflows max_backlog=1 and sheds, so it
        # fails the SLO whatever the wall clock says; the lower rate's
        # jobs never overlap, so it passes.
        spec = ArrivalSpec(mode="poisson", n=100, seed=6)
        ramp = find_max_sustainable_rate(
            spec,
            platform,
            rates_jobs_s=[0.01, 1e6],
            slo_p99_ms=10_000.0,
            max_backlog=1,
        )
        assert [p.sustainable for p in ramp.points] == [True, False]
        assert ramp.best == 0.01
        assert ramp.censored is False
        assert format_sustainable_rate(ramp.best, ramp.censored) == "0.01 jobs/s"

    def test_bad_slo_rejected(self, platform):
        with pytest.raises(ValueError):
            find_max_sustainable_rate(
                ArrivalSpec(n=10, seed=1),
                platform,
                rates_jobs_s=[10.0],
                slo_p99_ms=0.0,
            )
