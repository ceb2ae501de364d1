"""The online simulation engine.

A policy implements two callbacks:

``on_arrival(now, tasks)``
    New tasks just became visible (their release time equals ``now``).
    The policy updates its internal plan; Section 6's SDEM-ON re-solves the
    common-release relaxation here.

``run_until(now, until)``
    Advance the world from ``now`` to ``until`` (``inf`` after the last
    arrival) and return the execution intervals emitted, each tagged with a
    core index.  The policy must have finished every revealed task by each
    task's deadline; the engine validates the assembled schedule.

The engine is deliberately thin: *all* scheduling intelligence lives in
policies, and all pricing lives in :mod:`repro.energy.accounting`, so every
algorithm is measured by exactly the same ruler.

Two entry points share the replay loop:

* :func:`simulate` -- the full-fat path: assembles a
  :class:`~repro.schedule.timeline.Schedule`, validates it, prices it and
  reports peak concurrency.  Every fidelity test and ad-hoc caller uses
  this.
* :func:`simulate_segments` -- the experiment fast path: drives the policy
  and returns the raw ``(core, interval)`` segment list plus the horizon,
  *without* materializing per-core timelines.  The work-unit pipeline in
  :mod:`repro.experiments.runner` validates and prices these segments
  directly (batched with numpy above the small-table cutoff), which
  profiling shows erases most of the non-solver share of a work unit --
  see docs/PERFORMANCE.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.energy.accounting import EnergyBreakdown, SleepPolicy, account
from repro.models.platform import Platform
from repro.models.task import Task, TaskSet
from repro.schedule.timeline import CoreTimeline, ExecutionInterval, Schedule
from repro.schedule.validation import validate_schedule

__all__ = [
    "OnlinePolicy",
    "PreparedTrace",
    "SegmentRun",
    "SimulationResult",
    "prepare_trace",
    "simulate",
    "simulate_segments",
]


class OnlinePolicy(Protocol):
    """Interface every online scheduling policy implements."""

    #: How the accountant should treat memory idle gaps for this policy
    #: (e.g. MBKP never sleeps the memory, MBKPS always does).
    memory_policy: SleepPolicy
    #: Ditto for core idle gaps.
    core_policy: SleepPolicy

    def on_arrival(self, now: float, tasks: Sequence[Task]) -> None:
        """Reveal newly released tasks."""

    def run_until(
        self, now: float, until: float
    ) -> List[Tuple[int, ExecutionInterval]]:
        """Advance to ``until`` and return (core, interval) executions."""


@dataclass(frozen=True)
class SimulationResult:
    """A priced simulation run."""

    schedule: Schedule
    breakdown: EnergyBreakdown
    horizon: Tuple[float, float]
    peak_concurrency: int

    @property
    def total_energy(self) -> float:
        return self.breakdown.total


@dataclass(frozen=True)
class SegmentRun:
    """A driven-but-unpriced replay: raw segments plus their context."""

    segments: List[Tuple[int, ExecutionInterval]]
    task_set: TaskSet
    horizon: Tuple[float, float]


@dataclass(frozen=True)
class PreparedTrace:
    """A trace sorted, horizon-resolved and grouped by arrival instant.

    Replaying several policies over the same trace (the work-unit
    pipeline) prepares once and drives each policy from the shared groups.
    """

    task_set: TaskSet
    horizon: Tuple[float, float]
    groups: List[Tuple[float, List[Task]]]


def prepare_trace(
    tasks: Iterable[Task], horizon: Optional[Tuple[float, float]] = None
) -> PreparedTrace:
    """Sort the trace, resolve the horizon and group arrivals by instant."""
    task_list = sorted(tasks, key=lambda t: (t.release, t.deadline, t.name))
    if not task_list:
        raise ValueError("cannot simulate an empty task list")
    task_set = TaskSet(task_list)
    if horizon is None:
        horizon = (task_set.earliest_release, task_set.latest_deadline)

    groups: List[Tuple[float, List[Task]]] = []
    for task in task_list:
        # Absolute tolerance only: a relative one merges releases ~6e-8 ms
        # apart at t = 60 ms, starting the later task before its release.
        if groups and math.isclose(
            groups[-1][0], task.release, rel_tol=0.0, abs_tol=1e-12
        ):
            groups[-1][1].append(task)
        else:
            groups.append((task.release, [task]))
    return PreparedTrace(task_set=task_set, horizon=horizon, groups=groups)


def _drive(
    policy: OnlinePolicy, groups: List[Tuple[float, List[Task]]]
) -> List[Tuple[int, ExecutionInterval]]:
    """Replay the arrival groups through ``policy``, collecting segments."""
    segments: List[Tuple[int, ExecutionInterval]] = []
    now = groups[0][0]
    for when, batch in groups:
        if when > now:
            segments.extend(policy.run_until(now, when))
            now = when
        policy.on_arrival(when, batch)
    segments.extend(policy.run_until(now, math.inf))
    return segments


def simulate_segments(
    policy: OnlinePolicy,
    tasks: Optional[Iterable[Task]] = None,
    *,
    horizon: Optional[Tuple[float, float]] = None,
    prepared: Optional[PreparedTrace] = None,
) -> SegmentRun:
    """Drive ``policy`` over the trace and return the raw segment table.

    The fast-path counterpart of :func:`simulate`: no per-core timelines,
    no validation, no pricing -- callers own those steps (the experiment
    pipeline validates with
    :func:`repro.schedule.validation.validate_segments` and prices with
    :func:`repro.energy.accounting.account_segments`).  Pass ``prepared``
    (from :func:`prepare_trace`) instead of ``tasks`` to replay several
    policies without re-sorting and re-grouping the trace each time.
    """
    if prepared is None:
        if tasks is None:
            raise ValueError("simulate_segments needs tasks or prepared")
        prepared = prepare_trace(tasks, horizon)
    segments = _drive(policy, prepared.groups)
    if not segments:
        raise RuntimeError("policy emitted no executions")
    return SegmentRun(
        segments=segments, task_set=prepared.task_set, horizon=prepared.horizon
    )


def simulate(
    policy: OnlinePolicy,
    tasks: Iterable[Task],
    platform: Platform,
    *,
    horizon: Optional[Tuple[float, float]] = None,
    validate: bool = True,
) -> SimulationResult:
    """Replay ``tasks`` (released at their release times) under ``policy``.

    ``horizon`` defaults to ``[min release, max deadline]`` so competing
    policies are always compared over identical time windows.  The
    assembled schedule is validated against the task set and the
    platform's ``s_up`` unless ``validate=False``.
    """
    prepared = prepare_trace(tasks, horizon)
    task_set, resolved = prepared.task_set, prepared.horizon
    per_core: Dict[int, List[ExecutionInterval]] = {}
    for core, interval in _drive(policy, prepared.groups):
        per_core.setdefault(core, []).append(interval)

    if not per_core:
        raise RuntimeError("policy emitted no executions")
    num_cores = max(per_core) + 1
    schedule = Schedule(
        CoreTimeline(per_core.get(i, [])) for i in range(num_cores)
    )
    if validate:
        validate_schedule(schedule, task_set, max_speed=platform.core.s_up)

    breakdown = account(
        schedule,
        platform,
        horizon=resolved,
        memory_policy=policy.memory_policy,
        core_policy=policy.core_policy,
    )
    peak = _peak_concurrency(schedule)
    return SimulationResult(
        schedule=schedule,
        breakdown=breakdown,
        horizon=resolved,
        peak_concurrency=peak,
    )


def _peak_concurrency(schedule: Schedule) -> int:
    """Maximum number of cores busy at once."""
    events: List[Tuple[float, int]] = []
    for core in schedule.cores:
        for span in core.busy_spans():
            events.append((span[0], 1))
            events.append((span[1], -1))
    events.sort()
    level = peak = 0
    for _, delta in events:
        level += delta
        peak = max(peak, level)
    return peak
