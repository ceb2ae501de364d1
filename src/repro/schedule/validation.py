"""Feasibility validation of schedules against a task set and platform.

A schedule is *feasible* (paper Section 3) when every task completes its
workload inside its feasible region ``[r_i, d_i]`` without exceeding the
maximum speed, and no core runs two things at once.  The validator is the
test suite's ground truth: every scheme -- optimal, heuristic or baseline --
must emit schedules that pass it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.models.task import Task, TaskSet
from repro.schedule.timeline import ExecutionInterval, Schedule

__all__ = [
    "FeasibilityError",
    "validate_schedule",
    "validate_segments",
    "is_feasible",
]

_REL_TOL = 1e-6
_ABS_TOL = 1e-6


class FeasibilityError(AssertionError):
    """Raised when a schedule violates the SDEM feasibility conditions."""


def validate_schedule(
    schedule: Schedule,
    tasks: TaskSet,
    *,
    max_speed: float = float("inf"),
    require_non_preemptive: bool = False,
    rel_tol: float = _REL_TOL,
    abs_tol: float = _ABS_TOL,
) -> None:
    """Raise :class:`FeasibilityError` on any violated condition.

    Checks, in order:

    1. every execution interval names a known task;
    2. intervals respect release times and deadlines;
    3. no interval exceeds ``max_speed``;
    4. each task's executed workload matches its requirement;
    5. optionally, each task occupies exactly one interval on exactly one
       core (the offline non-preemptive, non-migrating model).

    Per-core non-overlap is enforced structurally by
    :class:`~repro.schedule.timeline.CoreTimeline`.
    """
    by_name: Dict[str, Task] = {task.name: task for task in tasks}
    if len(by_name) != len(tasks):
        raise FeasibilityError("task names are not unique")

    pieces: Dict[str, List[int]] = {name: [] for name in by_name}
    executed: Dict[str, float] = {name: 0.0 for name in by_name}

    for core_index, core in enumerate(schedule.cores):
        for interval in core:
            task = by_name.get(interval.task)
            if task is None:
                raise FeasibilityError(f"unknown task {interval.task!r} in schedule")
            if interval.start < task.release - abs_tol:
                raise FeasibilityError(
                    f"{interval.task}: starts at {interval.start} before "
                    f"release {task.release}"
                )
            if interval.end > task.deadline + abs_tol:
                raise FeasibilityError(
                    f"{interval.task}: ends at {interval.end} after "
                    f"deadline {task.deadline}"
                )
            if interval.speed > max_speed * (1.0 + rel_tol) + abs_tol:
                raise FeasibilityError(
                    f"{interval.task}: speed {interval.speed} exceeds "
                    f"s_up {max_speed}"
                )
            executed[interval.task] += interval.workload
            pieces[interval.task].append(core_index)

    for name, task in by_name.items():
        done = executed[name]
        need = task.workload
        if abs(done - need) > max(abs_tol, rel_tol * need):
            raise FeasibilityError(
                f"{name}: executed {done:.6f} kc of required {need:.6f} kc"
            )

    if require_non_preemptive:
        for name, cores_used in pieces.items():
            if len(cores_used) != 1:
                raise FeasibilityError(
                    f"{name}: split into {len(cores_used)} intervals in a "
                    "non-preemptive schedule"
                )
            # single interval implies single core; nothing else to check


def validate_segments(
    segments: Sequence[Tuple[int, ExecutionInterval]],
    tasks: TaskSet,
    *,
    max_speed: float = float("inf"),
    rel_tol: float = _REL_TOL,
    abs_tol: float = _ABS_TOL,
) -> None:
    """Validate raw ``(core, interval)`` segments without a Schedule.

    Applies the same conditions and tolerances as
    :func:`validate_schedule`, plus an explicit per-core overlap check:
    segment tables never pass through
    :class:`~repro.schedule.timeline.CoreTimeline`, which is what enforces
    non-overlap structurally on the full-fat path.  Used by the experiment
    fast path (:func:`repro.sim.engine.simulate_segments`).
    """
    by_name: Dict[str, Task] = {task.name: task for task in tasks}
    if len(by_name) != len(tasks):
        raise FeasibilityError("task names are not unique")

    # Imported lazily: repro.core pulls this module in through its package
    # init, before vectorized would be importable at module scope.
    from repro.core import vectorized

    if len(segments) > vectorized._SMALL_N:
        index_of = {name: i for i, name in enumerate(by_name)}
        seg_task = []
        for _, interval in segments:
            row = index_of.get(interval.task)
            if row is None:
                raise FeasibilityError(
                    f"unknown task {interval.task!r} in schedule"
                )
            seg_task.append(row)
        ordered_tasks = list(by_name.values())
        if vectorized.segments_feasible_batch(
            [t.release for t in ordered_tasks],
            [t.deadline for t in ordered_tasks],
            [t.workload for t in ordered_tasks],
            seg_task,
            [iv.start for _, iv in segments],
            [iv.end for _, iv in segments],
            [iv.speed for _, iv in segments],
            [core for core, _ in segments],
            max_speed=max_speed,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
        ):
            return
        # A violation exists; fall through so the scalar loop below raises
        # the precise, human-readable error.

    executed: Dict[str, float] = {name: 0.0 for name in by_name}
    per_core: Dict[int, List[ExecutionInterval]] = {}

    for core_index, interval in segments:
        task = by_name.get(interval.task)
        if task is None:
            raise FeasibilityError(f"unknown task {interval.task!r} in schedule")
        if interval.start < task.release - abs_tol:
            raise FeasibilityError(
                f"{interval.task}: starts at {interval.start} before "
                f"release {task.release}"
            )
        if interval.end > task.deadline + abs_tol:
            raise FeasibilityError(
                f"{interval.task}: ends at {interval.end} after "
                f"deadline {task.deadline}"
            )
        if interval.speed > max_speed * (1.0 + rel_tol) + abs_tol:
            raise FeasibilityError(
                f"{interval.task}: speed {interval.speed} exceeds "
                f"s_up {max_speed}"
            )
        executed[interval.task] += interval.workload
        per_core.setdefault(core_index, []).append(interval)

    for name, task in by_name.items():
        done = executed[name]
        need = task.workload
        if abs(done - need) > max(abs_tol, rel_tol * need):
            raise FeasibilityError(
                f"{name}: executed {done:.6f} kc of required {need:.6f} kc"
            )

    # CoreTimeline's structural guarantee, reproduced for raw segments:
    # intervals on one core must not overlap (beyond float jitter).
    for core_index, intervals in per_core.items():
        ordered = sorted(intervals, key=lambda iv: iv.start)
        for before, after in zip(ordered, ordered[1:]):
            if after.start < before.end - abs_tol:
                raise FeasibilityError(
                    f"core {core_index}: {before.task} [{before.start}, "
                    f"{before.end}) overlaps {after.task} [{after.start}, "
                    f"{after.end})"
                )


def is_feasible(
    schedule: Schedule,
    tasks: TaskSet,
    *,
    max_speed: float = float("inf"),
    require_non_preemptive: bool = False,
) -> bool:
    """Boolean wrapper over :func:`validate_schedule`."""
    try:
        validate_schedule(
            schedule,
            tasks,
            max_speed=max_speed,
            require_non_preemptive=require_non_preemptive,
        )
    except FeasibilityError:
        return False
    return True
