"""Synthetic sporadic task generation (paper Section 8.1.2).

The paper's recipe:

* workload uniform in ``[2, 5] x 10^6`` cycles (2000-5000 kilocycles);
* feasible region length uniform in ``[10 ms, 120 ms]``;
* sporadic releases with *maximum* inter-arrival time ``x``, swept from
  100 ms to 800 ms (Table 4) -- smaller ``x`` means higher utilization.

The paper does not state the inter-arrival distribution below its maximum;
we use ``Uniform(0, x]``, the simplest distribution consistent with
"maximum inter-arrival time ``x``", and expose the choice as a parameter.
All randomness flows through an explicit seed for reproducibility.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.models.task import Task, TaskSet
from repro.units import SCALAR, unit

__all__ = ["agreeable_trace", "synthetic_tasks", "utilization_of"]

WORKLOAD_RANGE_KC: Tuple[float, float] = (2000.0, 5000.0)
SPAN_RANGE_MS: Tuple[float, float] = (10.0, 120.0)

#: Below this many tasks the columnwise build cannot beat the loop.
_BATCH_MIN = 16


def synthetic_tasks(
    *,
    n: int,
    max_interarrival: float,
    seed: int,
    workload_range: Tuple[float, float] = WORKLOAD_RANGE_KC,
    span_range: Tuple[float, float] = SPAN_RANGE_MS,
    min_interarrival: float = 0.0,
) -> List[Task]:
    """Generate ``n`` sporadic tasks with the Section 8.1.2 parameters.

    Returns release-ordered tasks (a trace for the online engine).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_interarrival <= 0.0:
        raise ValueError("max_interarrival must be positive")
    if not (0.0 <= min_interarrival <= max_interarrival):
        raise ValueError("need 0 <= min_interarrival <= max_interarrival")
    rng = random.Random(seed)
    if n >= _BATCH_MIN:
        # Pre-draw the unit variates in this loop's exact call order and
        # evaluate the same arithmetic columnwise -- bit-identical to the
        # scalar loop (see synthetic_trace_columns), so the dispatch can
        # never change experiment outputs.
        from repro.core import vectorized

        draws = [rng.random() for _ in range(3 * n - 1)]
        releases, spans, workloads = vectorized.synthetic_trace_columns(
            draws[2::3],
            [draws[0], *draws[3::3]],
            [draws[1], *draws[4::3]],
            min_interarrival=min_interarrival,
            max_interarrival=max_interarrival,
            span_range=span_range,
            workload_range=workload_range,
        )
        return [
            Task(release, release + span, workload, f"S{index}")
            for index, (release, span, workload) in enumerate(
                zip(releases, spans, workloads)
            )
        ]
    tasks: List[Task] = []
    t = 0.0
    for index in range(n):
        if index > 0:
            t += rng.uniform(min_interarrival, max_interarrival)
        span = rng.uniform(*span_range)
        workload = rng.uniform(*workload_range)
        tasks.append(Task(t, t + span, workload, f"S{index}"))
    return tasks


def agreeable_trace(
    *,
    n: int,
    max_interarrival: float,
    seed: int,
    workload_range: Tuple[float, float] = WORKLOAD_RANGE_KC,
    span_range: Tuple[float, float] = SPAN_RANGE_MS,
    min_interarrival: float = 0.0,
) -> Tuple[List[float], List[float], List[float]]:
    """Columnwise agreeable sporadic trace: ``(releases, deadlines, workloads)``.

    Draws exactly like :func:`synthetic_tasks` (same RNG call order, same
    seed mapping), but each deadline is clamped up to the running maximum of
    ``release + span`` so deadlines are non-decreasing in release order --
    the *agreeable* instance class the Section 5 DP and the fptas tier
    solve offline in one call.  Returns bare float columns and never
    materializes :class:`~repro.models.task.Task` objects, so it scales to
    ``n`` in the 10^3-10^5 range the huge-n bench slice sweeps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_interarrival <= 0.0:
        raise ValueError("max_interarrival must be positive")
    if not (0.0 <= min_interarrival <= max_interarrival):
        raise ValueError("need 0 <= min_interarrival <= max_interarrival")
    rng = random.Random(seed)
    if n >= _BATCH_MIN:
        from repro.core import vectorized

        draws = [rng.random() for _ in range(3 * n - 1)]
        return vectorized.agreeable_trace_columns(
            draws[2::3],
            [draws[0], *draws[3::3]],
            [draws[1], *draws[4::3]],
            min_interarrival=min_interarrival,
            max_interarrival=max_interarrival,
            span_range=span_range,
            workload_range=workload_range,
        )
    releases: List[float] = []
    deadlines: List[float] = []
    workloads: List[float] = []
    t = 0.0
    horizon = 0.0
    for index in range(n):
        if index > 0:
            t += rng.uniform(min_interarrival, max_interarrival)
        span = rng.uniform(*span_range)
        workload = rng.uniform(*workload_range)
        horizon = max(horizon, t + span)
        releases.append(t)
        deadlines.append(horizon)
        workloads.append(workload)
    return releases, deadlines, workloads


@unit(SCALAR)
def utilization_of(tasks: List[Task], *, num_cores: int, speed: float) -> float:
    """Average per-core utilization of a trace at a reference speed.

    ``sum(w_i / speed) / (num_cores * trace_span)`` -- a descriptive metric
    used by the experiment harness to label the ``x`` sweep.
    """
    if not tasks:
        return 0.0
    span = max(t.deadline for t in tasks) - min(t.release for t in tasks)
    if span <= 0.0:
        return 0.0
    demand = sum(t.workload / speed for t in tasks)
    return demand / (num_cores * span)
