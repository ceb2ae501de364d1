"""Choose the numeric engine inside a test by patching ``repro.core.kernels``.

The engine is the platform's choice, not an option: the compiled kernels
serve the solver inner loops whenever they load and pass their
self-check, numpy runs everything else.  Tests reach the kernel-less
engine by making the kernels resolve as if this host could not build
them, and the scalar reference routines by calling them directly (or by
raising the size cutoffs below which the pure-Python paths run).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import pytest

from repro.core import kernels, vectorized
from repro.core.blocks import block_energy_cache_clear


def clear_memos() -> None:
    """Drop the engine-computed memo caches (they are not engine-keyed)."""
    block_energy_cache_clear()
    vectorized.block_arrays_cache_clear()


@contextmanager
def kernels_disabled() -> Iterator[None]:
    """Run the numpy engine: the kernels resolve as unavailable."""
    saved = (kernels._provider, kernels._load_attempted, kernels._load_error)
    kernels._provider = None
    kernels._load_attempted = True
    kernels._load_error = "kernels disabled by the test"
    clear_memos()
    try:
        yield
    finally:
        kernels._provider, kernels._load_attempted, kernels._load_error = saved
        clear_memos()


def engines() -> List[str]:
    """The engines this host can run: numpy always, jit when it loads."""
    return ["numpy", "jit"] if kernels.available() else ["numpy"]


@contextmanager
def engine(name: str) -> Iterator[None]:
    """Run ``name`` (``"numpy"`` or ``"jit"``) with cold memo caches."""
    if name == "numpy":
        with kernels_disabled():
            yield
        return
    assert name == "jit" and kernels.available(), f"engine {name!r} unavailable"
    clear_memos()
    try:
        yield
    finally:
        clear_memos()


def per_engine(
    solve: Callable[[], object], names: Optional[Sequence[str]] = None
) -> Dict[str, object]:
    """``solve()`` under each engine, with cold memo caches."""
    results = {}
    for name in names if names is not None else engines():
        with engine(name):
            results[name] = solve()
    return results


@contextmanager
def pure_python_paths() -> Iterator[None]:
    """Force every size-selected pure-Python path, kernels disabled.

    Raises the cutoffs above which accounting, validation, the Section 7
    scan and the trace generators switch to their ndarray builds, so the
    scalar loops run whatever the input size.
    """
    from repro.workloads import dspstone, synthetic

    with kernels_disabled(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectorized, "_SMALL_N", 1 << 30)
        patch.setattr(dspstone, "_BATCH_MIN", 1 << 30)
        patch.setattr(synthetic, "_BATCH_MIN", 1 << 30)
        yield
