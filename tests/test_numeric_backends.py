"""Engine-vs-scalar-reference agreement for the numeric core.

The scalar routines are the paper-fidelity reference; every engine this
host runs (numpy always, the compiled kernels when they load) must
reproduce them to 1e-9 relative on randomized task sets -- energies,
chosen sleep lengths, and per-task speeds alike.  The kernel-less engine
is reached by patching :mod:`repro.core.kernels` (see
``tests/engine_helpers.py``), never through an option.
"""

from __future__ import annotations

import random

import pytest

from repro.core import blocks, common_release, kernels, vectorized
from repro.core.agreeable import solve_agreeable
from repro.core.blocks import block_energy, solve_block
from repro.core.common_release import solve_common_release
from repro.core.transition import (
    overhead_energy_at_delta,
    solve_common_release_with_overhead,
)
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from tests.engine_helpers import engine, engines, kernels_disabled, per_engine

REL_TOL = 1e-9


def make_platform(
    alpha: float,
    alpha_m: float = 10.0,
    s_up: float = 1000.0,
    xi: float = 0.0,
    xi_m: float = 0.0,
) -> Platform:
    return Platform(
        CorePowerModel(beta=1e-6, lam=3.0, alpha=alpha, s_up=s_up, xi=xi),
        MemoryModel(alpha_m=alpha_m, xi_m=xi_m),
    )


def random_agreeable_tasks(rng: random.Random, n: int) -> TaskSet:
    releases = sorted(rng.uniform(0.0, 60.0) for _ in range(n))
    deadlines = []
    last_d = 0.0
    for r in releases:
        d = max(r + rng.uniform(5.0, 60.0), last_d + rng.uniform(0.1, 5.0))
        deadlines.append(d)
        last_d = d
    return TaskSet(
        Task(r, d, rng.uniform(50.0, 3000.0))
        for r, d in zip(releases, deadlines)
    )


def random_common_release_tasks(rng: random.Random, n: int) -> TaskSet:
    release = rng.uniform(0.0, 20.0)
    return TaskSet(
        Task(release, release + rng.uniform(5.0, 80.0), rng.uniform(50.0, 3000.0))
        for _ in range(n)
    )


def reference_block(ts: TaskSet, platform: Platform, method: str):
    """``(start, end, energy)`` of the scalar reference block solve."""
    if method == "descent":
        x_bounds, y_bounds, starts = blocks._descent_box(ts)
        start, end, _ = blocks._minimize_2d(
            lambda s, e: blocks._block_energy_scalar(ts, platform, s, e),
            x_bounds,
            y_bounds,
            starts,
        )
    else:
        cell = (
            blocks._solve_cell_alpha_zero
            if platform.core.alpha == 0.0
            else blocks._solve_cell_alpha_nonzero
        )
        with kernels_disabled():
            start, end, _ = blocks._best_over_cells(ts, platform, cell)
    return start, end, blocks._block_energy_scalar(ts, platform, start, end)


def assert_close(scalar: float, numpy: float) -> None:
    assert numpy == pytest.approx(scalar, rel=REL_TOL, abs=1e-9)


class TestBlockEnergyAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_block_energy_random(self, alpha, seed):
        rng = random.Random(1000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(1, 9))
        lo = min(t.release for t in ts)
        hi = max(t.deadline for t in ts)
        probes = [
            (lo + f * (hi - lo) * 0.3, hi - g * (hi - lo) * 0.3)
            for f, g in [(0.0, 0.0), (0.5, 0.5), (1.0, 0.2), (0.2, 1.0)]
        ]
        for start, end in probes:
            reference = blocks._block_energy_scalar(ts, platform, start, end)
            out = per_engine(lambda: block_energy(ts, platform, start, end))
            for value in out.values():
                assert_close(reference, value)


class TestSolveBlockAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("method", ["descent", "pairs"])
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_block_random(self, alpha, method, seed):
        rng = random.Random(2000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(1, 7))
        _, _, reference = reference_block(ts, platform, method)
        for solution in per_engine(
            lambda: solve_block(ts, platform, method=method)
        ).values():
            # The optimum value must agree; the argmin may differ on a flat
            # stretch of the objective, so cross-check each engine's chosen
            # busy interval by re-pricing it with the scalar reference.
            assert_close(reference, solution.energy)
            repriced = blocks._block_energy_scalar(
                ts, platform, solution.start, solution.end
            )
            assert repriced == pytest.approx(solution.energy, rel=1e-6)


class TestCommonReleaseAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 0.2])
    @pytest.mark.parametrize("seed", range(6))
    def test_solve_common_release_random(self, alpha, seed):
        rng = random.Random(3000 + seed)
        platform = make_platform(alpha)
        ts = random_common_release_tasks(rng, rng.randint(1, 9))
        if alpha == 0.0:
            # The binary case search is the scalar walk over the same cases.
            reference = solve_common_release(ts, platform, method="binary")
        else:
            reference = common_release._solve_alpha_nonzero_scalar(
                ts, platform, ts[0].release
            )
        for solution in per_engine(
            lambda: solve_common_release(ts, platform)
        ).values():
            assert_close(reference.predicted_energy, solution.predicted_energy)
            assert solution.delta == pytest.approx(
                reference.delta, rel=1e-6, abs=1e-6
            )
            for name, speed in reference.speeds.items():
                assert solution.speeds[name] == pytest.approx(speed, rel=REL_TOL)

    @pytest.mark.parametrize(
        "alpha,xi,xi_m",
        [(0.0, 0.0, 12.0), (0.2, 0.7, 12.0), (310.0, 0.0, 40.0)],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_with_overhead_random(self, alpha, xi, xi_m, seed, monkeypatch):
        rng = random.Random(4000 + seed)
        s_up = 1900.0 if alpha > 1.0 else 1000.0
        platform = make_platform(
            alpha, alpha_m=40.0, s_up=s_up, xi=xi, xi_m=xi_m
        )
        ts = random_common_release_tasks(rng, rng.randint(1, 9))
        if not ts.is_feasible_at(platform.core.s_up):
            pytest.skip("draw infeasible at s_up")
        solve = lambda: solve_common_release_with_overhead(ts, platform)  # noqa: E731
        # The prefix-scan path (forced at any n) against the fused small-n
        # solve of each engine.
        with kernels_disabled(), monkeypatch.context() as patch:
            patch.setattr(vectorized, "_SMALL_N", 0)
            scan = solve()
        # The emitted sleep length must price, under the scalar per-task
        # reference, to exactly the energy the scan predicted.
        assert_close(
            overhead_energy_at_delta(ts, platform, scan.delta),
            scan.predicted_energy,
        )
        for solution in per_engine(solve).values():
            assert_close(scan.predicted_energy, solution.predicted_energy)
            for name, speed in scan.speeds.items():
                assert solution.speeds[name] == pytest.approx(speed, rel=REL_TOL)


class TestAgreeableDpAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 2.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_solve_agreeable_random(self, alpha, seed):
        rng = random.Random(5000 + seed)
        platform = make_platform(alpha)
        ts = random_agreeable_tasks(rng, rng.randint(2, 7))
        out = per_engine(lambda: solve_agreeable(ts, platform))
        first = out[engines()[0]]
        for solution in out.values():
            assert_close(first.predicted_energy, solution.predicted_energy)
            assert solution.num_blocks == first.num_blocks
            # Every chosen block re-prices under the scalar reference.
            repriced = sum(
                blocks._block_energy_scalar(b.tasks, platform, b.start, b.end)
                for b in solution.blocks
            )
            assert_close(repriced, solution.predicted_energy)


class TestBackendSelection:
    def test_cache_key_depends_on_backend(self):
        from repro.experiments.cache import unit_key
        from repro.models import paper_platform

        if not kernels.available():
            pytest.skip("one engine on this host: the kernels do not load")
        platform = paper_platform()
        config = {"kind": "synthetic", "n": 4}
        with engine("numpy"):
            numpy_key = unit_key(platform, config, 0, "sdem-on")
        jit_key = unit_key(platform, config, 0, "sdem-on")
        assert numpy_key != jit_key
