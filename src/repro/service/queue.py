"""Bounded admission queue with priority lanes and backpressure.

Admission control is the service's first line of defence: a request is
either **admitted** -- at which point it is guaranteed a terminal response
(result, deadline expiry or cancellation) -- or **rejected at the door**
with an HTTP-429-style error carrying ``retry_after_ms``.  A rejected
request is *never partially executed*: it never reaches the batcher, the
worker pool or the result cache (the saturation property tests pin this).

Two lanes with strict priority:

* ``interactive`` -- latency-sensitive one-off solves; always admitted
  while there is any capacity left;
* ``sweep`` -- bulk experiment traffic; first to go when the service
  degrades.

Degradation policy: when the queue depth reaches
``ceil(shed_threshold * capacity)`` the queue enters *degraded mode* and
sheds sweep-lane arrivals (code ``SHEDDING``) while still admitting
interactive ones; at full capacity everything is rejected
(``QUEUE_FULL``).  Degraded mode clears when depth falls back under the
threshold.  ``retry_after_ms`` scales linearly with occupancy so clients
back off harder the fuller the queue is.

The queue is thread-safe but non-blocking: the asyncio server polls it
via an event, worker threads never touch it.  The clock is injectable so
deadline semantics are testable without sleeping.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.protocol import (
    E_QUEUE_FULL,
    E_SHEDDING,
    LANE_INTERACTIVE,
    LANE_SWEEP,
    SolveRequest,
)

__all__ = [
    "AdmitResult",
    "QueueEntry",
    "AdmissionQueue",
]


@dataclass
class QueueEntry:
    """One admitted request waiting for dispatch."""

    request: SolveRequest
    enqueued_at: float
    expires_at: Optional[float] = None
    cancelled: bool = False
    #: Free slot for the transport layer (the server parks the asyncio
    #: future that resolves into the client's response here).
    context: object = None

    @property
    def lane(self) -> str:
        return self.request.lane

    def expired(self, now: float) -> bool:
        return self.expires_at is not None and now >= self.expires_at


@dataclass(frozen=True)
class AdmitResult:
    """Outcome of an admission attempt."""

    admitted: bool
    entry: Optional[QueueEntry] = None
    code: Optional[str] = None
    message: Optional[str] = None
    retry_after_ms: Optional[float] = None


class AdmissionQueue:
    """Bounded two-lane FIFO with strict interactive-over-sweep priority."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        shed_threshold: float = 0.8,
        base_retry_after_ms: float = 250.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if not (0.0 < shed_threshold <= 1.0):
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {shed_threshold}"
            )
        self.capacity = capacity
        self.shed_at = max(1, math.ceil(shed_threshold * capacity))
        self.base_retry_after_ms = base_retry_after_ms
        self._clock = clock
        self._lanes: Dict[str, List[QueueEntry]] = {
            LANE_INTERACTIVE: [],
            LANE_SWEEP: [],
        }
        self._lock = threading.Lock()
        self._depth_peak = 0
        #: Called (outside the lock) after every successful offer; the
        #: server uses it to wake the dispatch loop.
        self.on_enqueue: Optional[Callable[[], None]] = None

    # -- introspection ------------------------------------------------------

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth_locked()

    def _depth_locked(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    @property
    def depth_peak(self) -> int:
        """High-water mark: the saturation tests assert ``<= capacity``."""
        with self._lock:
            return self._depth_peak

    def lane_depths(self) -> Dict[str, int]:
        with self._lock:
            return {name: len(lane) for name, lane in self._lanes.items()}

    @property
    def degraded(self) -> bool:
        """True while sweep-lane shedding is active."""
        with self._lock:
            return self._depth_locked() >= self.shed_at

    def _retry_after_ms(self, depth: int) -> float:
        """Back off proportionally to occupancy (full queue => 2x base)."""
        return self.base_retry_after_ms * (1.0 + depth / self.capacity)

    # -- admission ----------------------------------------------------------

    def offer(self, request: SolveRequest) -> AdmitResult:
        """Admit ``request`` or reject it with a backpressure error.

        The capacity invariant is enforced here and only here: the queue
        can never hold more than ``capacity`` entries, so an admitted
        request always has a seat and a rejected one leaves no trace.
        """
        now = self._clock()
        with self._lock:
            depth = self._depth_locked()
            if depth >= self.capacity:
                return AdmitResult(
                    admitted=False,
                    code=E_QUEUE_FULL,
                    message=(
                        f"admission queue full ({depth}/{self.capacity}); "
                        "retry after the indicated backoff"
                    ),
                    retry_after_ms=self._retry_after_ms(depth),
                )
            if depth >= self.shed_at and request.lane == LANE_SWEEP:
                return AdmitResult(
                    admitted=False,
                    code=E_SHEDDING,
                    message=(
                        f"degraded mode: queue at {depth}/{self.capacity} "
                        f"(shed threshold {self.shed_at}); sweep-lane load "
                        "is being shed, interactive requests still admitted"
                    ),
                    retry_after_ms=self._retry_after_ms(depth),
                )
            expires_at = (
                now + request.timeout_ms / 1000.0
                if request.timeout_ms is not None
                else None
            )
            entry = QueueEntry(request=request, enqueued_at=now, expires_at=expires_at)
            self._lanes[request.lane].append(entry)
            self._depth_peak = max(self._depth_peak, self._depth_locked())
        if self.on_enqueue is not None:
            self.on_enqueue()
        return AdmitResult(admitted=True, entry=entry)

    # -- dispatch -----------------------------------------------------------

    def pop_batch(
        self, max_items: int
    ) -> Tuple[List[QueueEntry], List[QueueEntry], List[QueueEntry]]:
        """Dequeue up to ``max_items`` live entries.

        Returns ``(ready, expired, cancelled)``.  Interactive entries
        dequeue before any sweep entry; FIFO within a lane.  Expired and
        cancelled entries are drained eagerly (they never count against
        ``max_items``) so a stale backlog cannot starve live work.
        """
        now = self._clock()
        ready: List[QueueEntry] = []
        expired: List[QueueEntry] = []
        cancelled: List[QueueEntry] = []
        with self._lock:
            for lane in (LANE_INTERACTIVE, LANE_SWEEP):
                keep: List[QueueEntry] = []
                for entry in self._lanes[lane]:
                    if entry.cancelled:
                        cancelled.append(entry)
                    elif entry.expired(now):
                        expired.append(entry)
                    elif len(ready) < max_items:
                        ready.append(entry)
                    else:
                        keep.append(entry)
                self._lanes[lane] = keep
        return ready, expired, cancelled

    def cancel(self, request_id: str) -> bool:
        """Mark a pending request cancelled; True when it was still queued."""
        with self._lock:
            for lane in self._lanes.values():
                for entry in lane:
                    if entry.request.id == request_id and not entry.cancelled:
                        entry.cancelled = True
                        return True
        return False

    def drain(self) -> List[QueueEntry]:
        """Remove and return every queued entry (graceful shutdown)."""
        with self._lock:
            remaining = [
                entry
                for lane in (LANE_INTERACTIVE, LANE_SWEEP)
                for entry in self._lanes[lane]
            ]
            for lane in self._lanes.values():
                lane.clear()
        return remaining
