"""Tests for the online simulation engine and core allocator."""

from __future__ import annotations

import pytest

from repro.baselines import RaceToIdlePolicy
from repro.energy import SleepPolicy
from repro.models import CorePowerModel, MemoryModel, Platform, Task
from repro.schedule import ExecutionInterval
from repro.schedule.validation import FeasibilityError
from repro.sim import CoreAllocator, simulate


@pytest.fixture
def platform():
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=5.0, s_up=1000.0),
        MemoryModel(alpha_m=20.0, xi_m=2.0),
        num_cores=4,
    )


class TestCoreAllocator:
    def test_reuses_freed_cores_lowest_first(self):
        alloc = CoreAllocator(4)
        a = alloc.acquire("a")
        b = alloc.acquire("b")
        assert (a, b) == (0, 1)
        alloc.release("a")
        c = alloc.acquire("c")
        assert c == 0

    def test_same_owner_keeps_core(self):
        alloc = CoreAllocator()
        assert alloc.acquire("x") == alloc.acquire("x")

    def test_overflow_detection(self):
        alloc = CoreAllocator(1)
        alloc.acquire("a")
        assert not alloc.overflowed
        alloc.acquire("b")
        assert alloc.overflowed
        assert alloc.peak_concurrency == 2

    def test_unbounded_never_overflows(self):
        alloc = CoreAllocator(None)
        for i in range(100):
            alloc.acquire(f"t{i}")
        assert not alloc.overflowed
        assert alloc.total_cores_used == 100

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            CoreAllocator(0)


class TestSimulate:
    def test_race_to_idle_single_task(self, platform):
        tasks = [Task(0.0, 100.0, 1000.0, "A")]
        result = simulate(RaceToIdlePolicy(platform), tasks, platform)
        # Executes [0, 1] at 1000 MHz, then everything sleeps.
        assert result.breakdown.memory_busy_time == pytest.approx(1.0)
        assert result.horizon == (0.0, 100.0)
        iv = result.schedule.all_intervals()
        assert len(iv) == 1 and iv[0].speed == pytest.approx(1000.0)

    def test_tasks_revealed_only_at_release(self, platform):
        """A task released later must not execute earlier."""
        tasks = [
            Task(0.0, 50.0, 500.0, "A"),
            Task(30.0, 80.0, 500.0, "B"),
        ]
        result = simulate(RaceToIdlePolicy(platform), tasks, platform)
        for iv in result.schedule.all_intervals():
            if iv.task == "B":
                assert iv.start >= 30.0 - 1e-9

    def test_near_simultaneous_releases_not_merged(self, platform):
        """Releases ~5e-8 ms apart at t = 60 ms are distinct arrivals: no
        segment may start before its own task's release."""
        from repro.core.online import SdemOnlinePolicy
        from repro.sim.engine import prepare_trace

        tasks = [
            Task(60.0, 90.0, 3000.0, "A"),
            Task(60.00000005, 95.0, 4000.0, "B"),
            Task(60.0000001, 100.0, 2000.0, "C"),
        ]
        assert len(prepare_trace(tasks).groups) == 3
        release = {t.name: t.release for t in tasks}
        for policy in (RaceToIdlePolicy(platform), SdemOnlinePolicy(platform)):
            result = simulate(policy, tasks, platform)
            for iv in result.schedule.all_intervals():
                assert iv.start >= release[iv.task]

    def test_peak_concurrency(self, platform):
        tasks = [
            Task(0.0, 50.0, 5000.0, "A"),  # 5 ms at s_up
            Task(1.0, 50.0, 5000.0, "B"),
            Task(2.0, 50.0, 5000.0, "C"),
        ]
        result = simulate(RaceToIdlePolicy(platform), tasks, platform)
        assert result.peak_concurrency == 3

    def test_simultaneous_arrivals_grouped(self, platform):
        tasks = [Task(5.0, 50.0, 100.0, "A"), Task(5.0, 60.0, 100.0, "B")]
        result = simulate(RaceToIdlePolicy(platform), tasks, platform)
        assert result.breakdown.total > 0.0

    def test_empty_trace_rejected(self, platform):
        with pytest.raises(ValueError):
            simulate(RaceToIdlePolicy(platform), [], platform)

    def test_explicit_horizon_respected(self, platform):
        tasks = [Task(0.0, 10.0, 100.0, "A")]
        result = simulate(
            RaceToIdlePolicy(platform), tasks, platform, horizon=(0.0, 1000.0)
        )
        assert result.horizon == (0.0, 1000.0)
        # Long trailing gap: memory sleeps it (break-even aware).
        assert result.breakdown.memory_sleep_time > 900.0

    def test_infeasible_speed_detected(self):
        slow = Platform(
            CorePowerModel(beta=1e-6, lam=3.0, alpha=0.0, s_up=10.0),
            MemoryModel(alpha_m=20.0),
        )
        with pytest.raises(ValueError):
            simulate(
                RaceToIdlePolicy(slow),
                [Task(0.0, 1.0, 100.0, "A")],  # needs 100 MHz
                slow,
            )


class ScriptedPolicy:
    """Test double: replays fixed (core, interval) executions at the end."""

    memory_policy = SleepPolicy.ALWAYS
    core_policy = SleepPolicy.ALWAYS

    def __init__(self, executions):
        self._executions = list(executions)

    def on_arrival(self, now, tasks):
        pass

    def run_until(self, now, until):
        out, self._executions = self._executions, []
        return out


class TestSimulateFailurePaths:
    """Misbehaving policies must fail loudly, with actionable messages."""

    def test_interval_past_deadline_rejected(self, platform):
        policy = ScriptedPolicy([(0, ExecutionInterval("A", 0.0, 12.0, 100.0))])
        with pytest.raises(FeasibilityError, match=r"ends at 12.0 after deadline 10.0"):
            simulate(policy, [Task(0.0, 10.0, 1200.0, "A")], platform)

    def test_overlapping_intervals_on_one_core_rejected(self, platform):
        policy = ScriptedPolicy(
            [
                (0, ExecutionInterval("A", 0.0, 5.0, 100.0)),
                (0, ExecutionInterval("A", 4.0, 9.0, 100.0)),
            ]
        )
        with pytest.raises(ValueError, match="overlapping intervals on one core"):
            simulate(policy, [Task(0.0, 10.0, 900.0, "A")], platform)

    def test_empty_policy_output_rejected(self, platform):
        policy = ScriptedPolicy([])
        with pytest.raises(RuntimeError, match="policy emitted no executions"):
            simulate(policy, [Task(0.0, 10.0, 100.0, "A")], platform)

    def test_under_execution_rejected(self, platform):
        policy = ScriptedPolicy([(0, ExecutionInterval("A", 0.0, 5.0, 100.0))])
        with pytest.raises(FeasibilityError, match="executed"):
            simulate(policy, [Task(0.0, 10.0, 1000.0, "A")], platform)
