"""The benchmark's own arithmetic: percentiles, self time, rate search.

Everything here is pure (no clocks, no I/O) so ``test_pbstats.py`` can pin
it down exactly; the rate search awaits its probe, which does the I/O.
"""

from __future__ import annotations

import math
from typing import Awaitable, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail is reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile: the ceil(p/100 * N)-th smallest."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def supported(count: int, p: float) -> bool:
    """True when ``count`` samples leave at least ``MIN_BEYOND`` beyond ``p``."""
    if count <= 0:
        return False
    rank = max(1, math.ceil(p / 100.0 * count - 1e-9))
    return count - rank >= MIN_BEYOND


def tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` at the highest ladder percentile the sample supports."""
    for p in TAIL_LADDER:
        if supported(len(values), p):
            return p, nearest_rank(values, p)
    return None


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: One recorded span: ``(index, parent_index or -1, name, start, end)``.
Span = Tuple[int, int, str, float, float]


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _index, parent, _name, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(index, []), start, end)
        for index, _parent, _name, start, end in spans
    ]


def layer_totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)`` over ``spans``."""
    out: Dict[str, Tuple[int, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        calls, total = out.get(span[2], (0, 0.0))
        out[span[2]] = (calls + 1, total + own)
    return out


# ---------------------------------------------------------------------------
# Highest sustainable rate
# ---------------------------------------------------------------------------


async def search_rate(
    probe: Callable[[float], Awaitable[bool]],
    *,
    start: float,
    factor: float,
    cap: float,
    steps: int,
    floor: float = 0.0,
) -> Dict[str, object]:
    """Ramp by ``factor`` until a probe fails, then bisect the bracket.

    ``probe(rate)`` is awaited and says whether ``rate`` passed.

    Returns ``rate`` (the highest rate that passed), ``censored`` (the
    ramp reached ``cap`` and it still passed, so ``rate`` is a lower
    bound) and ``probes`` (every ``(rate, passed)`` in order).  When even
    ``start`` fails, the search bisects between ``floor`` (a rate already
    known to pass, or 0) and ``start``.
    """
    if not (0.0 <= floor < start <= cap and factor > 1.0 and steps >= 0):
        raise ValueError("need 0 <= floor < start <= cap, factor > 1, steps >= 0")
    probes: List[Tuple[float, bool]] = []

    async def run(rate: float) -> bool:
        passed = bool(await probe(rate))
        probes.append((rate, passed))
        return passed

    last_pass = floor
    rate = start
    while True:
        if not await run(rate):
            first_fail = rate
            break
        last_pass = rate
        if rate >= cap:
            return {"rate": last_pass, "censored": True, "probes": probes}
        rate = min(rate * factor, cap)
    lo, hi = last_pass, first_fail
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if await run(mid):
            lo = mid
        else:
            hi = mid
    return {"rate": lo, "censored": False, "probes": probes}
