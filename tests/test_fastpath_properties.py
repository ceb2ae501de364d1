"""Fast-path properties: randomized traces, every path, pinned seeds.

The batched simulation/accounting fast path must be invisible in the
outputs: trace generation stays bit-identical to the scalar loop,
``simulate_unit`` energies agree to 1e-9 with the pure-Python paths, and
rounded exhibit rows (``SeriesResult.rows()``) are *byte-identical* no
matter which engine produced them -- the compiled kernels engaged or
disabled (by patching :mod:`repro.core.kernels`), or every size-selected
scalar loop forced.  The fused small-n overhead solve must match the
unfused numpy scan path float-for-float.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core import vectorized
from repro.core.transition import solve_common_release_with_overhead
from repro.energy.accounting import SleepPolicy, account_segments
from repro.experiments.runner import SeriesResult, compare_policies
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from repro.sim.engine import simulate_segments
from repro.baselines.mbkp import mbkps
from repro.workloads.dspstone import dspstone_trace
from repro.workloads.synthetic import synthetic_tasks
from tests.engine_helpers import (
    clear_memos,
    kernels_disabled,
    per_engine,
    pure_python_paths,
)

REL_TOL = 1e-9

def experiment_platform(num_cores: int = 4) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=2.0, s_up=1000.0, xi=5.0),
        MemoryModel(alpha_m=10.0, xi_m=8.0),
        num_cores=num_cores,
    )


def per_backend(build):
    """``build()`` on the forced pure-Python paths, then on the engine as it
    runs by default, with cold memo caches."""
    with pure_python_paths():
        scalar = build()
    clear_memos()
    return scalar, build()


def fft_factory(seed: int):
    return dspstone_trace(
        "fft", utilization_factor=3.0, n=24, seed=seed, streams=4
    )


def synthetic_factory(seed: int):
    return synthetic_tasks(n=20, max_interarrival=30.0, seed=seed)


class TestTraceGenerationBitIdentity:
    """The columnwise trace builds may never change experiment inputs."""

    @pytest.mark.parametrize("seed", range(6))
    def test_fft_trace_bit_identical(self, seed):
        scalar, numpy_ = per_backend(lambda: fft_factory(seed))
        assert [
            (t.release, t.deadline, t.workload, t.name) for t in scalar
        ] == [(t.release, t.deadline, t.workload, t.name) for t in numpy_]

    @pytest.mark.parametrize("seed", range(6))
    def test_synthetic_trace_bit_identical(self, seed):
        scalar, numpy_ = per_backend(lambda: synthetic_factory(seed))
        assert [
            (t.release, t.deadline, t.workload, t.name) for t in scalar
        ] == [(t.release, t.deadline, t.workload, t.name) for t in numpy_]

    @pytest.mark.parametrize("streams", [1, 3])
    def test_matmul_trace_stays_scalar_and_identical(self, streams):
        # matmul consumes a data-dependent number of draws and must not
        # be batched; both paths run the same scalar loop.
        build = lambda: dspstone_trace(  # noqa: E731
            "matmul", utilization_factor=4.0, n=18, seed=7, streams=streams
        )
        scalar, numpy_ = per_backend(build)
        assert [(t.release, t.workload) for t in scalar] == [
            (t.release, t.workload) for t in numpy_
        ]


class TestSimulateUnitAgreement:
    """Unit energies agree across paths and engines to 1e-9 relative."""

    @pytest.mark.parametrize("factory", [fft_factory, synthetic_factory])
    @pytest.mark.parametrize("seed", range(4))
    def test_unit_totals_agree(self, factory, seed):
        from repro.experiments.runner import simulate_unit

        platform = experiment_platform()
        scalar, numpy_ = per_backend(
            lambda: simulate_unit(factory, platform, seed)
        )
        for s_val, n_val in zip(
            scalar.totals + scalar.memory, numpy_.totals + numpy_.memory
        ):
            assert n_val == pytest.approx(s_val, rel=REL_TOL, abs=1e-9)

    def test_rows_byte_identical_across_backends(self):
        platform = experiment_platform()

        def build():
            series = SeriesResult(name="prop")
            for label, factory in (
                ("fft", fft_factory),
                ("syn", synthetic_factory),
            ):
                series.points.append(
                    compare_policies(label, factory, platform, seeds=3)
                )
            return json.dumps(series.rows(), sort_keys=True)

        scalar_rows, engine_rows = per_backend(build)
        assert scalar_rows == engine_rows
        for rows in per_engine(build).values():
            assert rows == engine_rows

    def test_fig6_slice_rows_identical_across_engines(self):
        """A quick Fig. 6 slice, kernels engaged and disabled: same rows."""
        from repro.experiments.fig6 import fig6_specs
        from repro.experiments.parallel import run_series

        specs = fig6_specs("fft", u_values=[2, 5, 9], instances=24)
        rows = per_engine(
            lambda: run_series("fig6", specs, seeds=2, max_workers=1).rows()
        )
        assert len(set(json.dumps(r, sort_keys=True) for r in rows.values())) == 1


class TestSharedSegmentTablePricing:
    """MBKPS/MBKP come from one schedule priced under two policies."""

    @pytest.mark.parametrize("seed", range(3))
    def test_multi_policy_pricing_matches_single_calls(self, seed):
        platform = experiment_platform()
        trace = fft_factory(seed)
        horizon = (
            min(t.release for t in trace),
            max(t.deadline for t in trace),
        )
        run = simulate_segments(mbkps(platform), trace, horizon=horizon)
        both = account_segments(
            run.segments,
            platform,
            horizon=horizon,
            memory_policies=(SleepPolicy.ALWAYS, SleepPolicy.NEVER),
        )
        singles = [
            account_segments(
                run.segments,
                platform,
                horizon=horizon,
                memory_policies=(policy,),
            )[0]
            for policy in (SleepPolicy.ALWAYS, SleepPolicy.NEVER)
        ]
        assert [b.total for b in both] == [s.total for s in singles]
        assert [b.memory_total for b in both] == [
            s.memory_total for s in singles
        ]
        # Same schedule, different pricing: MBKP (never sleeps) pays at
        # least as much memory energy as MBKPS (always sleeps).
        assert both[1].memory_total >= both[0].memory_total - 1e-12


class TestFusedOverheadSolve:
    """The fused small-n kernel must equal the unfused scan bit-for-bit."""

    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_fused_matches_scan_path(self, monkeypatch, alpha, seed):
        rng = random.Random(4200 + seed)
        release = rng.uniform(0.0, 20.0)
        ts = TaskSet(
            Task(
                release,
                release + rng.uniform(5.0, 80.0),
                rng.uniform(50.0, 3000.0),
            )
            for _ in range(rng.randint(1, 10))
        )
        platform = Platform(
            CorePowerModel(beta=1e-6, lam=3.0, alpha=alpha, s_up=1000.0, xi=5.0),
            MemoryModel(alpha_m=10.0, xi_m=8.0),
        )
        with kernels_disabled():
            fused = solve_common_release_with_overhead(ts, platform)
        # Shrinking the small-n cutoff to 0 forces the unfused scan path.
        monkeypatch.setattr(vectorized, "_SMALL_N", 0)
        scan = solve_common_release_with_overhead(ts, platform)
        assert fused.delta == scan.delta
        assert fused.case_index == scan.case_index
        assert fused.predicted_energy == scan.predicted_energy
        assert fused.finish_times == scan.finish_times
        assert fused.speeds == scan.speeds


class TestTaskSetPresorted:
    """The replan hot-path constructor must match the checked one."""

    def test_presorted_matches_sorted_constructor(self):
        rng = random.Random(11)
        tasks = [
            Task(5.0, 5.0 + rng.uniform(1.0, 50.0), rng.uniform(10.0, 500.0))
            for _ in range(8)
        ]
        ordered = tuple(
            sorted(tasks, key=lambda t: (t.deadline, t.release, t.workload))
        )
        fast = TaskSet.presorted(ordered)
        checked = TaskSet(tasks)
        assert list(fast) == list(checked)

    def test_presorted_rejects_empty(self):
        with pytest.raises(ValueError):
            TaskSet.presorted(())
