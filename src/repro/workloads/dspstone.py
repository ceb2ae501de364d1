"""DSPstone-like FFT / matrix-multiply benchmark tasks (paper Section 8.1.1).

The paper instantiates tasks from two DSPstone kernels measured on Analog
Devices' xsim2101 simulator:

* **FFT**: a randomly generated 1024-point discrete signal;
* **matrix multiply**: randomly constructed ``[X x Y] . [Y x Z]`` matrices.

The feasible region of an instance equals its processing time at
**16.5 MHz** (the simulated DSP's clock), and instances are released
sporadically with period ``|d - r| * U`` for ``U`` in 2..9 -- larger ``U``
means lower utilization.

We cannot run xsim2101 offline (DESIGN.md substitution S2), so instance
cycle counts are modelled from the kernels' arithmetic-operation counts
with a DSP cost-per-operation factor:

* FFT-1024: ``(N/2) log2 N = 5120`` butterflies x ~20 cycles each, about
  102 kcycles per kernel call (~6.2 ms at 16.5 MHz);
* matmul: ``X * Z`` dot products of length ``Y`` at ~4 cycles per MAC plus
  loop overhead, with dimensions drawn uniformly from 10..24 (~1-6 ms per
  call).

A released *task* is a batch of kernel calls (10 FFT frames / 16 matrix
products by default) -- DSP workloads process frame batches, and the
resulting 10-120 ms task lengths match the range the paper uses for its
synthetic tasks, which corroborates the calibration.  Only *relative*
workloads matter to the energy-saving ratios of Figures 6a/6b; the
absolute calibration cancels.
"""

from __future__ import annotations

import math
import random
from typing import List, Literal, Tuple

from repro.models.task import Task

__all__ = [
    "REFERENCE_MHZ",
    "FFT_1024_KILOCYCLES",
    "FFT_BATCH",
    "MATMUL_BATCH",
    "fft_instance_kilocycles",
    "matmul_instance_kilocycles",
    "dspstone_trace",
]

#: The DSP clock defining feasible-region lengths (Section 8.1.1).
REFERENCE_MHZ: float = 16.5

#: Modelled FFT-1024 cycle count: (N/2) * log2(N) butterflies * 20 cycles
#: = 102.4 kilocycles.
FFT_1024_KILOCYCLES: float = (1024 / 2) * 10 * 20 / 1000.0

_FFT_JITTER = 0.05
_MATMUL_DIM_RANGE = (10, 24)
_CYCLES_PER_MAC = 4.0
_LOOP_OVERHEAD_PER_DOT = 12.0

#: Kernel calls batched into one released task (see module docstring).
FFT_BATCH = 10
MATMUL_BATCH = 16


def fft_instance_kilocycles(rng: random.Random, *, batch: int = FFT_BATCH) -> float:
    """Cycle count (kc) of one released FFT task (a batch of kernel calls).

    The kernel is data-oblivious; a small jitter models cache and input
    conditioning variation between randomly generated signals.
    """
    return (
        batch
        * FFT_1024_KILOCYCLES
        * rng.uniform(1.0 - _FFT_JITTER, 1.0 + _FFT_JITTER)
    )


def matmul_instance_kilocycles(
    rng: random.Random,
    dim_range: Tuple[int, int] = _MATMUL_DIM_RANGE,
    *,
    batch: int = MATMUL_BATCH,
) -> float:
    """Cycle count (kc) of one released matmul task (a batch of products)."""
    total = 0.0
    for _ in range(batch):
        x = rng.randint(*dim_range)
        y = rng.randint(*dim_range)
        z = rng.randint(*dim_range)
        total += x * z * (
            2.0 * y * _CYCLES_PER_MAC / 2.0 + _LOOP_OVERHEAD_PER_DOT
        )
    return total / 1000.0


def dspstone_trace(
    benchmark: Literal["fft", "matmul"],
    *,
    utilization_factor: float,
    n: int,
    seed: int,
    streams: int = 1,
) -> List[Task]:
    """Generate a sporadic DSPstone instance trace (Section 8.1.1).

    Parameters
    ----------
    benchmark:
        ``'fft'`` or ``'matmul'``.
    utilization_factor:
        The paper's ``U`` in 2..9: each stream's instances are separated by
        ``|d - r| * U`` (sporadic, so we draw the actual gap uniformly from
        ``[1.0, 1.15] * period`` -- at least the period, slightly jittered).
        Larger ``U`` = lower utilization.
    n:
        Total number of instances across all streams.
    streams:
        Number of independent instance streams released concurrently
        (phase-shifted); >1 exercises the multi-core overlap that the
        shared memory cares about.
    """
    if benchmark not in ("fft", "matmul"):
        raise ValueError(f"unknown benchmark {benchmark!r}")
    if utilization_factor <= 0.0:
        raise ValueError("utilization_factor must be positive")
    if n < 1 or streams < 1:
        raise ValueError("n and streams must be >= 1")
    rng = random.Random(seed)
    # The FFT workload model is a single uniform draw per instance, so the
    # whole trace vectorizes: pre-draw the unit variates in this loop's
    # exact call order and evaluate the same arithmetic columnwise
    # (bit-identical -- see fft_trace_columns).  The matmul model consumes
    # a data-dependent number of randint() draws and stays scalar.
    if benchmark == "fft" and n >= _BATCH_MIN:
        return _fft_trace_batched(rng, utilization_factor, n, streams)
    draw = (
        fft_instance_kilocycles if benchmark == "fft" else matmul_instance_kilocycles
    )
    tasks: List[Task] = []
    clock = [rng.uniform(0.0, 10.0) for _ in range(streams)]  # phase shifts
    for index in range(n):
        stream = index % streams
        workload = draw(rng)
        span = workload / REFERENCE_MHZ
        release = clock[stream]
        tasks.append(
            Task(release, release + span, workload, f"{benchmark}{index}")
        )
        period = span * utilization_factor
        clock[stream] += period * rng.uniform(1.0, 1.15)
    tasks.sort(key=lambda t: (t.release, t.name))
    return tasks


#: Below this many instances the columnwise build cannot beat the loop.
_BATCH_MIN = 16


def _fft_trace_batched(
    rng: random.Random, utilization_factor: float, n: int, streams: int
) -> List[Task]:
    """Columnwise FFT trace build, bit-identical to the scalar loop.

    One ``rng.random()`` call per scalar ``rng.uniform()`` call, in the
    same order (phases first, then workload + period jitter per instance),
    keeps the RNG stream aligned; the arithmetic happens in
    :func:`repro.core.vectorized.fft_trace_columns` with the scalar
    expressions' exact association.
    """
    from repro.core import vectorized

    draws = [rng.random() for _ in range(streams + 2 * n)]
    releases, spans, workloads = vectorized.fft_trace_columns(
        draws[:streams],
        draws[streams::2],
        draws[streams + 1 :: 2],
        streams=streams,
        base_kilocycles=FFT_BATCH * FFT_1024_KILOCYCLES,
        jitter=_FFT_JITTER,
        reference_mhz=REFERENCE_MHZ,
        utilization_factor=utilization_factor,
        phase_range=(0.0, 10.0),
        period_jitter=(1.0, 1.15),
    )
    tasks = [
        Task(release, release + span, workload, f"fft{index}")
        for index, (release, span, workload) in enumerate(
            zip(releases, spans, workloads)
        )
    ]
    tasks.sort(key=lambda t: (t.release, t.name))
    return tasks
