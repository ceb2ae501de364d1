"""The two replay sinks: in-process SDEM-ON and the TCP solve service.

**In-process** (:func:`replay_inprocess`): every arrival enters the
:class:`~repro.core.online.SdemOnlinePolicy` replan path directly, with
*virtual-time fast-forward* -- the replayer never sleeps, it advances the
policy's clock from arrival to arrival, so a 10^5-job hour of simulated
traffic runs in seconds of wall time.  Per-job latency here is **virtual**
(finish instant minus arrival instant on the deterministic SDEM-ON
schedule), which is what makes the per-job table byte-reproducible
run-to-run for a fixed seed.  Wall-clock replan times are captured
separately as telemetry; the harness feeds them through an open-loop
queueing recursion to answer the *capacity* question (max sustainable
rate at a P99 SLO) without contaminating the deterministic table.

Overload behaviour: the common-release relaxation assumes unbounded
cores, so admitted jobs never miss deadlines by construction -- the
pressure valve is **admission**.  When the live backlog reaches
``max_backlog`` the arrival is shed (the deterministic analogue of the
service's two-lane admission queue), bounding both per-arrival solve
cost and the concurrency the relaxation assumes.

**Service** (:func:`replay_service`): arrivals are paced in real time
(optionally compressed by ``time_scale``) over a pool of pipelined
:class:`~repro.service.client.ServiceClient` connections on the
interactive lane.  This sink is open-loop in the strict sense: send
times follow the arrival process, never the responses.  Backpressure
(shed / queue-full) is honored via the client's capped
``retry_after_ms`` backoff; latencies are measured wall clock and are
*not* part of any reproducibility contract.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.online import SdemOnlinePolicy
from repro.energy.accounting import EnergyBreakdown, SleepPolicy, account_segments
from repro.models.platform import Platform
from repro.replay.arrivals import Job
from repro.schedule.timeline import ExecutionInterval

__all__ = [
    "JOB_STATUSES",
    "JobRecord",
    "ReplayOutcome",
    "replay_inprocess",
    "replay_service",
]

_EPS = 1e-6

#: Terminal states of one replayed job.
JOB_STATUSES = ("done", "shed", "timeout", "error")


@dataclass
class JobRecord:
    """Per-job outcome row -- the unit of the reproducibility contract.

    For the in-process sink every field except ``solve_wall_ms`` is
    derived from the deterministic virtual-time schedule; ``solve_wall_ms``
    is wall-clock telemetry and is excluded from the canonical table the
    harness digests.  For the service sink latency fields are measured
    and carry no determinism guarantee.
    """

    name: str
    arrival_ms: float
    deadline_ms: float
    workload_kc: float
    status: str = "done"
    start_ms: float = math.nan
    finish_ms: float = math.nan
    latency_ms: float = math.nan
    queue_wait_ms: float = math.nan
    deadline_met: bool = False
    attempts: int = 1
    solve_wall_ms: float = 0.0

    def canonical_row(self) -> list:
        """The digest row: deterministic fields only, fixed order."""
        return [
            self.name,
            self.arrival_ms,
            self.deadline_ms,
            self.workload_kc,
            self.status,
            self.start_ms if not math.isnan(self.start_ms) else None,
            self.finish_ms if not math.isnan(self.finish_ms) else None,
            self.latency_ms if not math.isnan(self.latency_ms) else None,
            self.queue_wait_ms if not math.isnan(self.queue_wait_ms) else None,
            self.deadline_met,
        ]


@dataclass
class ReplayOutcome:
    """What a sink hands to the harness: records plus sink-side totals."""

    sink: str
    records: List[JobRecord]
    energy: Optional[EnergyBreakdown] = None
    wall_seconds: float = 0.0
    solve_wall_ms: List[float] = field(default_factory=list)
    peak_concurrency: int = 0
    max_backlog_seen: int = 0
    shed_retries: int = 0

    @property
    def completed(self) -> List[JobRecord]:
        return [r for r in self.records if r.status == "done"]


def replay_inprocess(
    jobs: Sequence[Job],
    platform: Platform,
    *,
    max_backlog: int = 64,
    procrastinate: bool = True,
) -> ReplayOutcome:
    """Drive ``jobs`` through SDEM-ON with virtual-time fast-forward.

    Returns one :class:`ReplayOutcome` whose records carry virtual-time
    latencies (deterministic for a fixed job stream) and whose
    ``energy`` prices the union schedule under the policy's break-even
    memory/core sleep rules.
    """
    if max_backlog < 1:
        raise ValueError(f"max_backlog must be >= 1, got {max_backlog}")
    if not jobs:
        raise ValueError("cannot replay an empty job stream")

    policy = SdemOnlinePolicy(platform, procrastinate=procrastinate)
    segments: List[Tuple[int, ExecutionInterval]] = []
    records = [
        JobRecord(j.name, j.arrival_ms, j.deadline_ms, j.workload_kc) for j in jobs
    ]
    solve_wall_ms: List[float] = []
    max_backlog_seen = 0

    wall_started = time.perf_counter()
    now = jobs[0].arrival_ms
    for job, record in zip(jobs, records):
        if job.arrival_ms < now - _EPS:
            raise ValueError(
                f"job {job.name} arrives at {job.arrival_ms} before current "
                f"instant {now}; arrival streams must be time-ordered"
            )
        if job.arrival_ms > now:
            segments.extend(policy.run_until(now, job.arrival_ms))
            now = job.arrival_ms
        backlog = policy.live_jobs
        if backlog > max_backlog_seen:
            max_backlog_seen = backlog
        if backlog >= max_backlog:
            record.status = "shed"
            record.attempts = 0
            continue
        replan_started = time.perf_counter()
        policy.on_arrival(now, [job.task()])
        replan_ms = (time.perf_counter() - replan_started) * 1000.0
        record.solve_wall_ms = replan_ms
        solve_wall_ms.append(replan_ms)
    segments.extend(policy.run_until(now, math.inf))
    wall_seconds = time.perf_counter() - wall_started

    # Virtual completion instants: the policy removes a job once its
    # remaining workload hits zero, so a job's last interval end *is* its
    # finish and its first interval start is when it left the queue.
    first_start: Dict[str, float] = {}
    last_end: Dict[str, float] = {}
    for _core, interval in segments:
        name = interval.task
        if name not in first_start or interval.start < first_start[name]:
            first_start[name] = interval.start
        if name not in last_end or interval.end > last_end[name]:
            last_end[name] = interval.end
    for record in records:
        if record.status != "done":
            continue
        start = first_start.get(record.name)
        finish = last_end.get(record.name)
        if start is None or finish is None:
            # A zero-workload guard; Task validation should prevent this.
            record.status = "error"
            continue
        record.start_ms = start
        record.finish_ms = finish
        record.latency_ms = finish - record.arrival_ms
        record.queue_wait_ms = start - record.arrival_ms
        record.deadline_met = finish <= record.deadline_ms + _EPS

    energy: Optional[EnergyBreakdown] = None
    if segments:
        horizon_start = min(first_start.values())
        horizon_end = max(last_end.values())
        for record in records:
            if record.status == "done":
                horizon_start = min(horizon_start, record.arrival_ms)
                horizon_end = max(horizon_end, record.deadline_ms)
        energy = account_segments(
            segments,
            platform,
            horizon=(horizon_start, horizon_end),
            memory_policies=[policy.memory_policy],
            core_policy=policy.core_policy,
        )[0]

    return ReplayOutcome(
        sink="inproc",
        records=records,
        energy=energy,
        wall_seconds=wall_seconds,
        solve_wall_ms=solve_wall_ms,
        peak_concurrency=policy.peak_concurrency,
        max_backlog_seen=max_backlog_seen,
    )


def _service_wire(
    job: Job,
    scheme: str,
    lane: str,
    platform: Optional[Dict[str, float]] = None,
) -> Dict[str, object]:
    """One solve request for ``job``, re-anchored at its arrival.

    The instance is shipped release-0 (deadline = the job's span): the
    service solves the job's own feasible window, and the wire bytes do
    not depend on absolute virtual time.  ``platform`` overrides the
    server's paper-default platform parameters for this request.
    """
    wire: Dict[str, object] = {
        "kind": "solve",
        "scheme": scheme,
        "lane": lane,
        "tasks": [
            {
                "name": job.name,
                "release": 0.0,
                "deadline": job.span_ms,
                "workload": job.workload_kc,
            }
        ],
    }
    if platform is not None:
        wire["platform"] = platform
    return wire


async def replay_service(
    jobs: Sequence[Job],
    *,
    host: str,
    port: int,
    clients: int = 4,
    lane: str = "interactive",
    scheme: str = "auto",
    time_scale: float = 1.0,
    timeout_ms: float = 10_000.0,
    max_attempts: int = 3,
    backoff_cap_ms: float = 500.0,
    platform_cycle: Optional[Sequence[Dict[str, float]]] = None,
) -> ReplayOutcome:
    """Open-loop replay against a running solve server.

    Send instants follow the arrival process compressed by ``time_scale``
    (virtual ms / ``time_scale`` = wall ms; e.g. ``time_scale=20`` plays
    an hour of traffic in three minutes); responses never gate sends.
    Latencies are measured in **wall ms** and a job's deadline check
    compares wall latency against its span: the span is a per-job
    real-time SLO, so compressing the arrival spacing raises the load
    (denser arrivals) without artificially scaling response times.
    Shed / queue-full responses retry with the server-suggested capped
    backoff; a job is recorded ``shed`` only when its final attempt is
    still declined.

    ``platform_cycle`` rotates each job through a sequence of platform
    parameter overrides (job ``i`` gets entry ``i % len``).  The batcher
    groups requests by platform fingerprint, so cycling a handful of
    platforms makes the service bench slice form several batch groups
    and cache-key families instead of one.
    """
    import asyncio

    from repro.service import protocol
    from repro.service.client import RequestTimedOut, ServiceClient

    if time_scale <= 0.0:
        raise ValueError(f"time_scale must be positive, got {time_scale}")
    if not jobs:
        raise ValueError("cannot replay an empty job stream")

    records = [
        JobRecord(j.name, j.arrival_ms, j.deadline_ms, j.workload_kc) for j in jobs
    ]
    outcome = ReplayOutcome(sink="service", records=records)
    pool = [ServiceClient(host, port) for _ in range(max(1, clients))]
    await asyncio.gather(*(c.connect() for c in pool))

    loop = asyncio.get_running_loop()
    epoch = loop.time()
    origin_ms = jobs[0].arrival_ms

    def backpressure(_code: str, _delay_ms: float) -> None:
        outcome.shed_retries += 1

    async def fire(index: int, job: Job, record: JobRecord) -> None:
        target = epoch + (job.arrival_ms - origin_ms) / 1000.0 / time_scale
        delay = target - loop.time()
        if delay > 0.0:
            await asyncio.sleep(delay)
        client = pool[index % len(pool)]
        platform = (
            platform_cycle[index % len(platform_cycle)]
            if platform_cycle
            else None
        )
        wire = _service_wire(job, scheme, lane, platform)
        sent = loop.time()
        attempts_box = [0]

        def counting_backpressure(code: str, delay_ms: float) -> None:
            attempts_box[0] += 1
            backpressure(code, delay_ms)

        try:
            response = await client.request_with_retry(
                wire,
                timeout_ms=timeout_ms,
                max_attempts=max_attempts,
                backoff_cap_ms=backoff_cap_ms,
                on_backpressure=counting_backpressure,
            )
        except RequestTimedOut:
            record.status = "timeout"
            record.attempts = max_attempts
            return
        except ConnectionError:
            record.status = "error"
            return
        elapsed_wall_ms = (loop.time() - sent) * 1000.0
        record.attempts = 1 + attempts_box[0]
        record.latency_ms = elapsed_wall_ms
        record.queue_wait_ms = 0.0
        record.start_ms = job.arrival_ms
        record.finish_ms = job.arrival_ms + elapsed_wall_ms
        if response.get("ok"):
            record.status = "done"
            record.deadline_met = elapsed_wall_ms <= job.span_ms + _EPS
            timing = response.get("timing")
            if isinstance(timing, dict):
                solve_ms = timing.get("solve_ms")
                if isinstance(solve_ms, (int, float)):
                    record.solve_wall_ms = float(solve_ms)
                    outcome.solve_wall_ms.append(float(solve_ms))
        else:
            error = response.get("error")
            code = error.get("code") if isinstance(error, dict) else None
            if code in (protocol.E_SHEDDING, protocol.E_QUEUE_FULL):
                record.status = "shed"
            else:
                record.status = "error"

    wall_started = time.perf_counter()
    try:
        await asyncio.gather(
            *(fire(i, job, rec) for i, (job, rec) in enumerate(zip(jobs, records)))
        )
    finally:
        await asyncio.gather(*(c.close() for c in pool))
    outcome.wall_seconds = time.perf_counter() - wall_started
    return outcome
