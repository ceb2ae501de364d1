"""Energy accounting for SDEM schedules.

The accountant prices a :class:`~repro.schedule.timeline.Schedule` on a
:class:`~repro.models.platform.Platform` over an explicit horizon and under
explicit *sleep policies*:

* ``SleepPolicy.NEVER`` -- the component idles awake through every gap
  (the paper's MBKP baseline memory behaviour);
* ``SleepPolicy.ALWAYS`` -- the component sleeps through every gap and pays
  one transition overhead per gap, even counter-productively short ones
  (the MBKPS baseline: "turns the memory into sleep state whenever the
  memory has an idle time");
* ``SleepPolicy.BREAK_EVEN`` -- sleeps exactly when the gap is at least the
  break-even time (what an overhead-aware runtime such as SDEM-ON does).

With ``xi = xi_m = 0`` all three memory policies except ``NEVER`` coincide
with the theory sections' free-sleep model, where energy reduces to
``alpha_m * (|I| - Delta)`` for the memory and ``alpha`` only during
execution for the cores.

Horizon semantics: gaps at the horizon edges (before the first busy span
and after the last one) are priced like interior gaps.  Comparisons between
algorithms must therefore use the *same* horizon; the experiment harness
always passes ``[0, max deadline]``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.models.platform import Platform
from repro.schedule.timeline import (
    ExecutionInterval,
    Schedule,
    complement_within,
    merge_intervals,
    total_length,
)
from repro.units import UJ, unit

__all__ = [
    "SleepPolicy",
    "EnergyBreakdown",
    "account",
    "account_segments",
    "memory_energy_for_gaps",
]


class SleepPolicy(enum.Enum):
    """How a component crosses idle gaps."""

    NEVER = "never"
    ALWAYS = "always"
    BREAK_EVEN = "break_even"


@dataclass(frozen=True)
class EnergyBreakdown:
    """Itemized system energy in uJ (mW * ms).

    Attributes
    ----------
    core_dynamic:
        ``sum over intervals of beta * s**lam * duration``.
    core_static_active:
        ``alpha * total execution time`` across cores.
    core_idle:
        Static + transition energy spent by cores across their idle gaps
        (zero when ``alpha = 0``).
    memory_active:
        ``alpha_m * memory busy time`` (union of core busy spans).
    memory_idle:
        Static + transition energy spent by the memory across common idle
        gaps, per the memory sleep policy.
    memory_sleep_time:
        Total time the memory actually spent asleep.
    memory_busy_time:
        Total memory-active (busy-union) time, the ``|I| - Delta`` of the
        paper's formulas.
    """

    core_dynamic: float
    core_static_active: float
    core_idle: float
    memory_active: float
    memory_idle: float
    memory_sleep_time: float
    memory_busy_time: float

    @property
    @unit(UJ)
    def core_total(self) -> float:
        return self.core_dynamic + self.core_static_active + self.core_idle

    @property
    @unit(UJ)
    def memory_total(self) -> float:
        return self.memory_active + self.memory_idle

    @property
    @unit(UJ)
    def memory_static_total(self) -> float:
        """Total memory leakage-related energy (what Fig. 6a reports)."""
        return self.memory_total

    @property
    @unit(UJ)
    def total(self) -> float:
        """System-wide energy, the SDEM objective."""
        return self.core_total + self.memory_total

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            self.core_dynamic + other.core_dynamic,
            self.core_static_active + other.core_static_active,
            self.core_idle + other.core_idle,
            self.memory_active + other.memory_active,
            self.memory_idle + other.memory_idle,
            self.memory_sleep_time + other.memory_sleep_time,
            self.memory_busy_time + other.memory_busy_time,
        )


def _gap_energy(
    gaps: Iterable[Tuple[float, float]],
    static_power: float,
    break_even: float,
    policy: SleepPolicy,
) -> Tuple[float, float]:
    """Return ``(energy, sleep_time)`` for idle gaps of one component."""
    energy = 0.0
    sleep_time = 0.0
    for start, end in gaps:
        gap = end - start
        if policy is SleepPolicy.NEVER:
            energy += static_power * gap
        elif policy is SleepPolicy.ALWAYS:
            energy += static_power * break_even
            sleep_time += gap
        else:  # BREAK_EVEN
            if gap >= break_even:
                energy += static_power * break_even
                sleep_time += gap
            else:
                energy += static_power * gap
    return energy, sleep_time


def memory_energy_for_gaps(
    platform: Platform,
    gaps: Iterable[Tuple[float, float]],
    policy: SleepPolicy,
) -> Tuple[float, float]:
    """Memory (energy, sleep_time) over the given common-idle gaps."""
    memory = platform.memory
    return _gap_energy(gaps, memory.alpha_m, memory.xi_m, policy)


def account(
    schedule: Schedule,
    platform: Platform,
    *,
    horizon: Optional[Tuple[float, float]] = None,
    memory_policy: SleepPolicy = SleepPolicy.BREAK_EVEN,
    core_policy: SleepPolicy = SleepPolicy.BREAK_EVEN,
) -> EnergyBreakdown:
    """Price ``schedule`` on ``platform`` over ``horizon``.

    ``horizon`` defaults to the schedule's own busy span (no edge gaps).
    Cores that never execute anything contribute zero in every policy: an
    unused core is assumed powered off for the whole horizon, matching the
    unbounded-core model where only instantiated cores exist.
    """
    core_model = platform.core
    memory_model = platform.memory

    busy_union = schedule.busy_union()
    if horizon is None:
        if busy_union:
            horizon = (busy_union[0][0], busy_union[-1][1])
        else:
            horizon = (0.0, 0.0)

    core_dynamic = 0.0
    core_static_active = 0.0
    core_idle = 0.0
    for core in schedule.cores:
        if len(core) == 0:
            continue
        for interval in core:
            core_dynamic += core_model.dynamic_power(interval.speed) * interval.duration
            core_static_active += core_model.alpha * interval.duration
        if core_model.alpha > 0.0:
            gaps = core.idle_gaps(horizon)
            idle_energy, _ = _gap_energy(
                gaps, core_model.alpha, core_model.xi, core_policy
            )
            core_idle += idle_energy

    memory_busy_time = total_length(busy_union)
    memory_active = memory_model.alpha_m * memory_busy_time
    memory_gaps = complement_within(busy_union, horizon)
    memory_idle, memory_sleep_time = _gap_energy(
        memory_gaps, memory_model.alpha_m, memory_model.xi_m, memory_policy
    )

    return EnergyBreakdown(
        core_dynamic=core_dynamic,
        core_static_active=core_static_active,
        core_idle=core_idle,
        memory_active=memory_active,
        memory_idle=memory_idle,
        memory_sleep_time=memory_sleep_time,
        memory_busy_time=memory_busy_time,
    )


# ---------------------------------------------------------------------------
# Segment-table fast path
# ---------------------------------------------------------------------------

#: Raw execution segment: ``(core index, interval)`` as emitted by the
#: online policies, before any :class:`~repro.schedule.timeline.Schedule`
#: is assembled.
Segment = Tuple[int, ExecutionInterval]


def _account_segments_scalar(
    segments: Sequence[Segment],
    platform: Platform,
    horizon: Tuple[float, float],
    memory_policies: Sequence[SleepPolicy],
    core_policy: SleepPolicy,
) -> List[EnergyBreakdown]:
    """Reference pricing over raw segments, bit-identical to :func:`account`.

    Mirrors the accountant's arithmetic order exactly -- cores visited in
    index order, each core's intervals in start order, the busy union
    merged from per-core spans in the same sequence -- so pricing segments
    directly produces the same floats as building the
    :class:`~repro.schedule.timeline.Schedule` first.  The shared terms
    (core side, busy union, gap list) are computed once and re-priced per
    memory policy.
    """
    core_model = platform.core
    memory_model = platform.memory
    per_core: Dict[int, List[ExecutionInterval]] = {}
    for index, interval in segments:
        per_core.setdefault(index, []).append(interval)

    core_dynamic = 0.0
    core_static_active = 0.0
    core_idle = 0.0
    all_spans: List[Tuple[float, float]] = []
    for index in sorted(per_core):
        intervals = sorted(per_core[index], key=lambda iv: iv.start)
        for interval in intervals:
            core_dynamic += core_model.dynamic_power(interval.speed) * interval.duration
            core_static_active += core_model.alpha * interval.duration
        busy_spans = merge_intervals((iv.start, iv.end) for iv in intervals)
        if core_model.alpha > 0.0:
            gaps = complement_within(busy_spans, horizon)
            idle_energy, _ = _gap_energy(
                gaps, core_model.alpha, core_model.xi, core_policy
            )
            core_idle += idle_energy
        all_spans.extend(busy_spans)

    busy_union = merge_intervals(all_spans) if all_spans else []
    memory_busy_time = total_length(busy_union)
    memory_active = memory_model.alpha_m * memory_busy_time
    memory_gaps = complement_within(busy_union, horizon)
    out: List[EnergyBreakdown] = []
    for memory_policy in memory_policies:
        memory_idle, memory_sleep_time = _gap_energy(
            memory_gaps, memory_model.alpha_m, memory_model.xi_m, memory_policy
        )
        out.append(
            EnergyBreakdown(
                core_dynamic=core_dynamic,
                core_static_active=core_static_active,
                core_idle=core_idle,
                memory_active=memory_active,
                memory_idle=memory_idle,
                memory_sleep_time=memory_sleep_time,
                memory_busy_time=memory_busy_time,
            )
        )
    return out


def account_segments(
    segments: Sequence[Segment],
    platform: Platform,
    *,
    horizon: Tuple[float, float],
    memory_policies: Sequence[SleepPolicy],
    core_policy: SleepPolicy = SleepPolicy.BREAK_EVEN,
) -> List[EnergyBreakdown]:
    """Price raw execution segments under several memory policies at once.

    The segment-table counterpart of :func:`account`: no
    :class:`~repro.schedule.timeline.Schedule` is materialized, and the
    core-side terms plus the memory busy union are shared across every
    requested memory policy -- which is how the experiment pipeline prices
    MBKPS and MBKP from one simulated schedule.

    Large tables go through :func:`repro.core.vectorized.accounting_batch`
    (agreement to float re-association, covered by the property tests);
    small tables use the bit-exact reference loop above.
    """
    # Imported lazily: repro.core.online (pulled in by the repro.core
    # package init) imports this module for SleepPolicy.
    from repro.core import vectorized

    if len(segments) > vectorized._SMALL_N:
        arrays = vectorized.timeline_arrays(
            [(c, iv.start, iv.end, iv.speed) for c, iv in segments], horizon
        )
        priced = vectorized.accounting_batch(
            arrays,
            platform,
            memory_policies=[policy.value for policy in memory_policies],
            core_policy=core_policy.value,
        )
        return [EnergyBreakdown(*fields) for fields in priced]
    return _account_segments_scalar(
        segments, platform, horizon, memory_policies, core_policy
    )
