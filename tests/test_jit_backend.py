"""The compiled (``jit``) numeric engine.

Three layers of coverage:

* agreement to 1e-9 relative with the numpy engine and the scalar
  references on randomized task sets for every solver the kernels
  accelerate (plus bit-identity between the kernels' fused Section-7
  solve and the Python fast path it shadows);
* demotion -- kernels that build but fail their self-check must leave
  the numpy engine serving with exactly one structured
  :class:`~repro.core.kernels.JitUnavailableWarning`, never a mid-run
  crash, while a host that cannot build them stays silent;
* engine-keyed caching -- ``ResultCache`` keys must differ across the
  engines so a jit-computed entry is never served to a numpy host.

Agreement tests skip wholesale when the kernels do not load (e.g. a CI
leg without cffi); the demotion and cache-key tests run everywhere.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core import blocks, kernels, vectorized
from repro.core.blocks import block_energy, solve_block
from repro.core.transition import solve_common_release_with_overhead
from repro.models import CorePowerModel, MemoryModel, Platform, Task, TaskSet
from tests.engine_helpers import engine, engines, kernels_disabled, per_engine

REL_TOL = 1e-9

needs_jit = pytest.mark.skipif(
    not kernels.available(), reason="the compiled kernels do not load"
)


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


def random_common_release_tasks(rng: random.Random, n: int) -> TaskSet:
    release = rng.uniform(0.0, 20.0)
    return TaskSet(
        Task(release, release + rng.uniform(5.0, 80.0), rng.uniform(50.0, 3000.0))
        for _ in range(n)
    )


def random_block_tasks(rng: random.Random, n: int) -> TaskSet:
    """Agreeable staggered-release sets (solve_block's precondition)."""
    releases = sorted(rng.uniform(0.0, 40.0) for _ in range(n))
    tasks, last_d = [], 0.0
    for r in releases:
        d = max(r + rng.uniform(5.0, 70.0), last_d + rng.uniform(0.1, 5.0))
        tasks.append(Task(r, d, rng.uniform(50.0, 3000.0)))
        last_d = d
    return TaskSet(tasks)


def per_backend(solve):
    """``solve()`` on the numpy and jit engines with cold memo caches."""
    return per_engine(solve, ("numpy", "jit"))


def assert_close(reference: float, candidate: float) -> None:
    scale = max(1.0, abs(reference))
    assert candidate == pytest.approx(reference, rel=REL_TOL, abs=REL_TOL * scale)


@needs_jit
class TestJitAgreement:
    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_block_energy_random(self, alpha, seed):
        rng = random.Random(2000 + seed)
        tasks = random_block_tasks(rng, rng.randint(1, 7))
        platform = make_platform(alpha)
        start = tasks.earliest_release - rng.uniform(0.0, 5.0)
        end = tasks.latest_deadline + rng.uniform(0.0, 5.0)
        out = per_backend(lambda: block_energy(tasks, platform, start, end))
        assert_close(out["numpy"], out["jit"])
        # The C kernel transcribes the scalar accumulation loop statement
        # for statement: identical floats, not merely 1e-9-close.  (numpy
        # may differ in the last ulp -- pairwise np.sum reassociates.)
        assert out["jit"] == blocks._block_energy_scalar(tasks, platform, start, end)

    @pytest.mark.parametrize("alpha", [0.0, 0.05])
    @pytest.mark.parametrize("seed", range(4))
    def test_solve_block_random(self, alpha, seed):
        rng = random.Random(3000 + seed)
        tasks = random_block_tasks(rng, rng.randint(1, 6))
        platform = make_platform(alpha)
        out = per_backend(lambda: solve_block(tasks, platform))
        x_bounds, y_bounds, starts = blocks._descent_box(tasks)
        _, _, reference = blocks._minimize_2d(
            lambda s, e: blocks._block_energy_scalar(tasks, platform, s, e),
            x_bounds,
            y_bounds,
            starts,
        )
        for backend in ("numpy", "jit"):
            assert_close(reference, out[backend].energy)

    @pytest.mark.parametrize("alpha,xi,xi_m", [(0.05, 5.0, 2.0), (0.0, 5.0, 0.0)])
    @pytest.mark.parametrize("seed", range(5))
    def test_overhead_solve_random(self, alpha, xi, xi_m, seed):
        rng = random.Random(4000 + seed)
        tasks = random_common_release_tasks(rng, rng.randint(1, 8))
        platform = make_platform(alpha, xi=xi, xi_m=xi_m)
        rel_end = tasks.latest_deadline + rng.uniform(5.0, 60.0)
        out = per_backend(
            lambda: solve_common_release_with_overhead(
                tasks, platform, horizon_end=rel_end
            )
        )
        # The fused small-n solve is a statement-for-statement transcription
        # of the numpy fast path: identical floats, not merely 1e-9-close.
        assert out["jit"].predicted_energy == out["numpy"].predicted_energy
        assert out["jit"].delta == out["numpy"].delta
        assert out["jit"].case_index == out["numpy"].case_index
        assert out["jit"].finish_times == out["numpy"].finish_times
        assert out["jit"].speeds == out["numpy"].speeds

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_fused_solve_bit_identical_to_python_fused(self, seed):
        rng = random.Random(5000 + seed)
        tasks = random_common_release_tasks(rng, rng.randint(1, 6))
        platform = make_platform(0.05, xi=5.0, xi_m=2.0)
        rel_end = tasks.latest_deadline + 30.0
        compiled = kernels.overhead_solve_small(tasks, platform, rel_end)
        python = vectorized.overhead_solve_small(tasks, platform, rel_end)
        assert compiled[0] == python[0]
        assert tuple(compiled[1]) == tuple(python[1])
        assert tuple(compiled[2]) == tuple(python[2])
        assert (compiled[3] is None) == (python[3] is None)
        if compiled[3] is not None:
            assert tuple(compiled[3]) == tuple(python[3])

    def test_warm_up_reports_provider(self):
        assert kernels.warm_up() == kernels.provider_name()
        assert kernels.provider_name() == "cffi"

    def test_available_backends_lists_jit(self):
        """Kernels that load make ``jit`` the engine this host runs."""
        assert engines() == ["numpy", "jit"]
        assert vectorized.get_backend() == "jit"


class FailingProvider:
    """Builds fine, but disagrees with the Python references."""

    name = "cffi"

    def overhead_solve_small(self, sig, latest_deadline, params, rel_end):
        return (0.0, (), (), None)


class TestJitFallback:
    """Demotion when the kernels build but fail their self-check."""

    @pytest.fixture()
    def broken_jit(self, monkeypatch):
        """Make the provider fail its self-check; reset the warn latch."""
        from repro.core.kernels import _cffi_provider

        kernels.clear()
        monkeypatch.setattr(_cffi_provider, "build", FailingProvider)
        monkeypatch.setattr(kernels, "_demotion_warned", False)
        yield
        monkeypatch.undo()
        kernels.clear()  # forget the failed resolution for later tests
        blocks.block_energy_cache_clear()

    def test_fallback_warns_once_and_never_crashes(self, broken_jit):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolved = vectorized.get_backend()
            assert not kernels.available()
            # Re-resolving must not warn again (one warning per process).
            kernels.clear()
            assert vectorized.get_backend() == "numpy"
        assert resolved == "numpy"
        assert "overhead_solve_small mismatch" in (kernels.load_error() or "")
        jit_warnings = [
            w for w in caught
            if issubclass(w.category, kernels.JitUnavailableWarning)
        ]
        assert len(jit_warnings) == 1
        assert "numpy engine serves instead" in str(jit_warnings[0].message)

    def test_fallback_backend_still_solves(self, broken_jit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tasks = TaskSet([Task(0.0, 50.0, 3000.0), Task(0.0, 80.0, 4000.0)])
            solution = solve_common_release_with_overhead(
                tasks, make_platform(0.05, xi=5.0), horizon_end=120.0
            )
        assert vectorized.get_backend() == "numpy"
        assert solution.predicted_energy > 0.0

    def test_jit_absent_from_available_backends(self, broken_jit):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert engines() == ["numpy"]
        assert vectorized.get_backend() == "numpy"

    def test_unbuildable_kernels_stay_silent(self, monkeypatch):
        from repro.core.kernels import _cffi_provider

        def no_compiler():
            raise OSError("no C compiler (faked)")

        kernels.clear()
        monkeypatch.setattr(_cffi_provider, "build", no_compiler)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert vectorized.get_backend() == "numpy"
            assert "faked" in (kernels.load_error() or "")
            assert not [
                w for w in caught
                if issubclass(w.category, kernels.JitUnavailableWarning)
            ]
        finally:
            monkeypatch.undo()
            kernels.clear()


class TestBackendKeyedCache:
    """ResultCache keys must partition by engine."""

    def _key(self):
        from repro.experiments.cache import unit_key
        from repro.models import paper_platform

        return unit_key(paper_platform(), {"kind": "synthetic", "n": 4}, 0, "sdem-on")

    def test_unit_keys_distinct_across_backends(self):
        if not kernels.available():
            pytest.skip("one engine on this host: the kernels do not load")
        with engine("numpy"):
            numpy_key = self._key()
        assert self._key() != numpy_key

    def test_jit_entry_never_served_to_numpy_request(self, tmp_path):
        if not kernels.available():
            pytest.skip("the compiled kernels do not load")
        from repro.experiments.cache import ResultCache
        from repro.models import paper_platform

        cache = ResultCache(root=str(tmp_path))
        platform = paper_platform()
        config = {"kind": "synthetic", "n": 4}

        jit_key = cache.unit_key(platform, config, 0, "sdem-on")
        cache.put(jit_key, {"energy": 123.0, "backend": "jit"})
        assert cache.get(jit_key) == {"energy": 123.0, "backend": "jit"}

        with kernels_disabled():
            numpy_key = cache.unit_key(platform, config, 0, "sdem-on")
        assert numpy_key != jit_key
        assert cache.get(numpy_key) is None

    def test_service_request_key_partitions_by_backend(self):
        from repro.experiments.cache import service_request_key
        from repro.models import paper_platform

        tasks_config = [[0.0, 40.0, 8000.0, "a"]]
        keys = {
            backend: service_request_key(
                paper_platform(), tasks_config, "common-release", backend
            )
            for backend in ("numpy", "jit")
        }
        assert len(set(keys.values())) == 2


class TestServiceProtocolJit:
    WIRE = {
        "v": 1,
        "id": "r1",
        "kind": "solve",
        "tasks": [
            {"name": "a", "release": 0.0, "deadline": 40.0, "workload": 8000.0},
        ],
    }

    def test_protocol_accepts_jit_numeric(self):
        """A legacy ``numeric`` field is ignored like any unknown field."""
        from repro.service.protocol import request_from_wire

        request = request_from_wire({**self.WIRE, "numeric": "jit"})
        assert not hasattr(request, "numeric")
        assert request.tasks_config() == request_from_wire(self.WIRE).tasks_config()
