"""Latency/energy SLO harness over the replay sinks.

Two latency notions coexist, deliberately:

* **Virtual latency** -- finish minus arrival on the deterministic
  SDEM-ON schedule (in-process sink) or rescaled wall time (service
  sink).  The per-job virtual table, plus the energy breakdown, is
  what :func:`table_digest` hashes: for a fixed seed the digest is
  byte-stable run-to-run, which is the subsystem's reproducibility
  contract and the bench slice's ``rows_identical`` check.

* **Wall SLO latency** -- what a single-threaded server would have
  answered: the open-loop queueing recursion
  ``start_i = max(arrival_i, finish_{i-1})``,
  ``latency_i = start_i - arrival_i + service_i`` over the *measured*
  replan wall times at the offered arrival instants.  This is the
  capacity question (:func:`find_max_sustainable_rate` ramps the
  offered load until P99 crosses the SLO) and is machine-dependent by
  nature, so it never enters the digest.

Percentiles here are exact order statistics (nearest-rank) -- the
harness holds every sample, unlike the service's streaming estimators.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.models.platform import Platform
from repro.replay.arrivals import ArrivalSpec, offered_rate_jobs_s
from repro.replay.sinks import JobRecord, ReplayOutcome, replay_inprocess
from repro.units import MS, UJ, unit

__all__ = [
    "LatencyStats",
    "RampPoint",
    "RampResult",
    "ReplayReport",
    "energy_per_job_uj",
    "find_max_sustainable_rate",
    "format_sustainable_rate",
    "open_loop_latency_ms",
    "percentile",
    "run_replay",
    "table_digest",
]


def percentile(values: Sequence[float], p: float) -> float:
    """Exact nearest-rank percentile (``p`` in [0, 100]) of ``values``."""
    if not values:
        return math.nan
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    ordered = sorted(values)
    # The 1e-9 slack keeps ceil() exact when p*n/100 is a whole number
    # that floating point overshoots (e.g. 99.9% of 1000 -> 999.0...01).
    rank = math.ceil(p / 100.0 * len(ordered) - 1e-9) - 1
    return ordered[min(len(ordered) - 1, max(0, rank))]


@dataclass(frozen=True)
class LatencyStats:
    """P50/P95/P99/P99.9 summary of one latency sample set (ms)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p99_9_ms: float
    max_ms: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> Optional["LatencyStats"]:
        if not values:
            return None
        ordered = sorted(values)
        n = len(ordered)

        def rank(p: float) -> float:
            index = math.ceil(p / 100.0 * n - 1e-9) - 1
            return ordered[min(n - 1, max(0, index))]

        return cls(
            count=n,
            mean_ms=sum(ordered) / n,
            p50_ms=rank(50.0),
            p95_ms=rank(95.0),
            p99_ms=rank(99.0),
            p99_9_ms=rank(99.9),
            max_ms=ordered[-1],
        )

    def to_wire(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "p99_9_ms": self.p99_9_ms,
            "max_ms": self.max_ms,
        }


def open_loop_latency_ms(
    arrivals_ms: Sequence[float], service_ms: Sequence[float]
) -> List[float]:
    """Single-server open-loop queue recursion (Lindley-style).

    ``arrivals_ms`` are the offered instants (virtual ms at the offered
    rate, i.e. real ms had the stream played at 1x) and ``service_ms``
    the measured per-job service times.  Returns per-job sojourn times:
    queueing wait behind earlier jobs plus own service.
    """
    if len(arrivals_ms) != len(service_ms):
        raise ValueError(
            f"arrival/service length mismatch: {len(arrivals_ms)} vs "
            f"{len(service_ms)}"
        )
    out: List[float] = []
    previous_finish = -math.inf
    for arrival, service in zip(arrivals_ms, service_ms):
        start = arrival if arrival > previous_finish else previous_finish
        finish = start + service
        out.append(finish - arrival)
        previous_finish = finish
    return out


@unit(UJ)
def energy_per_job_uj(total_uj: float, completed: int) -> float:
    """Energy per completed job; NaN when nothing completed."""
    if completed <= 0:
        return math.nan
    return total_uj / completed


def table_digest(
    records: Sequence[JobRecord], energy: Optional[Dict[str, float]]
) -> str:
    """SHA-256 of the canonical per-job table (+ energy totals).

    Only deterministic fields enter the hash -- wall-clock telemetry is
    excluded -- so for the in-process sink two same-seed runs must
    produce identical digests on the same numeric engine.
    """
    payload = {
        "rows": [record.canonical_row() for record in records],
        "energy": energy,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class ReplayReport:
    """Everything one replay run measured, JSON-ready.

    ``virtual`` summarizes deterministic virtual-time latencies (the
    digest's domain); ``wall_slo`` summarizes the open-loop queueing
    recursion over measured replan walls (the capacity domain);
    ``queue_wait`` is the virtual procrastination-induced wait.
    """

    sink: str
    spec: Dict[str, object]
    offered_rate_jobs_s: float
    counts: Dict[str, int]
    virtual: Optional[LatencyStats]
    queue_wait: Optional[LatencyStats]
    wall_slo: Optional[LatencyStats]
    energy: Optional[Dict[str, float]]
    digest: str
    wall_seconds: float
    peak_concurrency: int
    max_backlog_seen: int
    records: List[JobRecord] = field(default_factory=list, repr=False)

    @property
    def deadline_miss_pct(self) -> float:
        done = self.counts.get("done", 0)
        if done == 0:
            return 0.0
        return 100.0 * self.counts.get("deadline_miss", 0) / done

    @classmethod
    def from_outcome(
        cls, outcome: ReplayOutcome, spec: Dict[str, object]
    ) -> "ReplayReport":
        records = outcome.records
        counts = {status: 0 for status in ("done", "shed", "timeout", "error")}
        for record in records:
            counts[record.status] = counts.get(record.status, 0) + 1
        counts["total"] = len(records)
        counts["deadline_miss"] = sum(
            1 for r in records if r.status == "done" and not r.deadline_met
        )
        counts["shed_retries"] = outcome.shed_retries

        done = [r for r in records if r.status == "done"]
        virtual = LatencyStats.from_values([r.latency_ms for r in done])
        queue_wait = LatencyStats.from_values([r.queue_wait_ms for r in done])

        wall_slo: Optional[LatencyStats] = None
        if outcome.solve_wall_ms:
            admitted = [r for r in records if r.status != "shed" and r.attempts > 0]
            if len(admitted) == len(outcome.solve_wall_ms):
                wall_slo = LatencyStats.from_values(
                    open_loop_latency_ms(
                        [r.arrival_ms for r in admitted], outcome.solve_wall_ms
                    )
                )

        energy: Optional[Dict[str, float]] = None
        if outcome.energy is not None:
            breakdown = outcome.energy
            energy = {
                "total_uj": breakdown.total,
                "per_job_uj": energy_per_job_uj(breakdown.total, len(done)),
                "core_dynamic_uj": breakdown.core_dynamic,
                "core_static_active_uj": breakdown.core_static_active,
                "core_idle_uj": breakdown.core_idle,
                "memory_active_uj": breakdown.memory_active,
                "memory_idle_uj": breakdown.memory_idle,
                "memory_sleep_ms": breakdown.memory_sleep_time,
                "memory_busy_ms": breakdown.memory_busy_time,
            }

        return cls(
            sink=outcome.sink,
            spec=spec,
            # JobRecord carries arrival_ms, which is all the rate needs.
            offered_rate_jobs_s=offered_rate_jobs_s(records),
            counts=counts,
            virtual=virtual,
            queue_wait=queue_wait,
            wall_slo=wall_slo,
            energy=energy,
            digest=table_digest(records, energy),
            wall_seconds=outcome.wall_seconds,
            peak_concurrency=outcome.peak_concurrency,
            max_backlog_seen=outcome.max_backlog_seen,
            records=list(records),
        )

    def to_wire(self, *, include_records: bool = False) -> Dict[str, object]:
        out: Dict[str, object] = {
            "sink": self.sink,
            "spec": self.spec,
            "offered_rate_jobs_s": self.offered_rate_jobs_s,
            "counts": dict(self.counts),
            "deadline_miss_pct": self.deadline_miss_pct,
            "virtual": self.virtual.to_wire() if self.virtual else None,
            "queue_wait": self.queue_wait.to_wire() if self.queue_wait else None,
            "wall_slo": self.wall_slo.to_wire() if self.wall_slo else None,
            "energy": self.energy,
            "digest": self.digest,
            "wall_seconds": self.wall_seconds,
            "peak_concurrency": self.peak_concurrency,
            "max_backlog_seen": self.max_backlog_seen,
        }
        if include_records:
            out["records"] = [record.canonical_row() for record in self.records]
        return out

    def render(self) -> str:
        counts = self.counts
        lines = [
            f"sink:            {self.sink}",
            f"jobs:            {counts.get('total', 0)} total, "
            f"{counts.get('done', 0)} done, {counts.get('shed', 0)} shed, "
            f"{counts.get('timeout', 0)} timeout, {counts.get('error', 0)} error",
            f"offered rate:    {self.offered_rate_jobs_s:.1f} jobs/s",
            f"deadline misses: {counts.get('deadline_miss', 0)} "
            f"({self.deadline_miss_pct:.3f}% of done)",
        ]
        if self.virtual is not None:
            v = self.virtual
            label = (
                "virtual latency: "
                if self.sink == "inproc"
                else "wall latency:    "
            )
            lines.append(
                label
                + f"p50 {v.p50_ms:.2f}  p95 {v.p95_ms:.2f}  p99 {v.p99_ms:.2f}  "
                f"p99.9 {v.p99_9_ms:.2f}  max {v.max_ms:.2f} ms"
            )
        if self.wall_slo is not None:
            w = self.wall_slo
            lines.append(
                "wall SLO:        "
                f"p50 {w.p50_ms:.3f}  p99 {w.p99_ms:.3f}  "
                f"p99.9 {w.p99_9_ms:.3f} ms (open-loop, measured)"
            )
        if self.energy is not None:
            lines.append(
                f"energy:          {self.energy['total_uj']:.0f} uJ total, "
                f"{self.energy['per_job_uj']:.1f} uJ/job, "
                f"memory asleep {self.energy['memory_sleep_ms']:.0f} ms"
            )
        lines.append(
            f"replay wall:     {self.wall_seconds:.2f} s "
            f"(peak concurrency {self.peak_concurrency}, "
            f"backlog max {self.max_backlog_seen})"
        )
        lines.append(f"digest:          {self.digest[:16]}...")
        return "\n".join(lines)


def run_replay(
    spec: ArrivalSpec,
    platform: Platform,
    *,
    sink: str = "inproc",
    max_backlog: int = 64,
    procrastinate: bool = True,
    host: Optional[str] = None,
    port: Optional[int] = None,
    clients: int = 4,
    lane: str = "interactive",
    scheme: str = "auto",
    time_scale: float = 1.0,
    timeout_ms: float = 10_000.0,
    max_attempts: int = 3,
    backoff_cap_ms: float = 500.0,
) -> ReplayReport:
    """Materialize ``spec`` and replay it through one sink.

    ``sink="inproc"`` is synchronous virtual-time fast-forward;
    ``sink="service"`` paces arrivals in real (scaled) time against a
    running solve server at ``host:port``.
    """
    jobs = spec.jobs()
    if sink == "inproc":
        outcome = replay_inprocess(
            jobs, platform, max_backlog=max_backlog, procrastinate=procrastinate
        )
    elif sink == "service":
        if host is None or port is None:
            raise ValueError("service sink needs host and port")
        import asyncio

        from repro.replay.sinks import replay_service

        outcome = asyncio.run(
            replay_service(
                jobs,
                host=host,
                port=port,
                clients=clients,
                lane=lane,
                scheme=scheme,
                time_scale=time_scale,
                timeout_ms=timeout_ms,
                max_attempts=max_attempts,
                backoff_cap_ms=backoff_cap_ms,
            )
        )
    else:
        raise ValueError(f"unknown sink {sink!r}; valid: inproc, service")
    return ReplayReport.from_outcome(outcome, spec.describe())


@dataclass(frozen=True)
class RampPoint:
    """One offered-load step of the SLO ramp."""

    rate_jobs_s: float
    n: int
    p99_wall_ms: float
    shed: int
    deadline_miss: int
    sustainable: bool

    def to_wire(self) -> Dict[str, object]:
        return {
            "rate_jobs_s": self.rate_jobs_s,
            "n": self.n,
            "p99_wall_ms": self.p99_wall_ms,
            "shed": self.shed,
            "deadline_miss": self.deadline_miss,
            "sustainable": self.sustainable,
        }


class RampResult(NamedTuple):
    """Outcome of an SLO ramp; unpacks as ``(best, points)``."""

    best: Optional[float]
    points: List[RampPoint]

    @property
    def censored(self) -> bool:
        """True when the highest offered rate passed: the ramp ran out
        before the service did, so ``best`` is only a lower bound."""
        return bool(self.points) and self.points[-1].sustainable


def format_sustainable_rate(best: Optional[float], censored: bool) -> str:
    """``"800 jobs/s"``, ``">= 1600 jobs/s (censored)"`` or ``"none"``."""
    if best is None:
        return "none"
    if censored:
        return f">= {best:g} jobs/s (censored)"
    return f"{best:g} jobs/s"


def find_max_sustainable_rate(
    spec: ArrivalSpec,
    platform: Platform,
    *,
    rates_jobs_s: Sequence[float],
    slo_p99_ms: float,
    max_backlog: int = 64,
) -> RampResult:
    """Ramp the offered load; report the highest rate meeting the SLO.

    A rate is *sustainable* when the open-loop wall P99 stays within
    ``slo_p99_ms``, nothing was shed, and no admitted job missed its
    deadline.  Returns ``(best_rate, points)`` with ``best_rate=None``
    when even the lowest rate fails; ``.censored`` flags a ramp whose
    top rate passed.  Wall P99 is measured, so the answer is
    machine-dependent -- that is the point.
    """
    if slo_p99_ms <= 0.0:
        raise ValueError(f"slo_p99_ms must be positive, got {slo_p99_ms}")
    points: List[RampPoint] = []
    best: Optional[float] = None
    for rate in sorted(rates_jobs_s):
        report = run_replay(
            spec.at_rate(rate), platform, sink="inproc", max_backlog=max_backlog
        )
        p99_wall = report.wall_slo.p99_ms if report.wall_slo else math.nan
        shed = report.counts.get("shed", 0)
        missed = report.counts.get("deadline_miss", 0)
        sustainable = (
            not math.isnan(p99_wall)
            and p99_wall <= slo_p99_ms
            and shed == 0
            and missed == 0
        )
        points.append(
            RampPoint(rate, spec.n, p99_wall, shed, missed, sustainable)
        )
        if sustainable and (best is None or rate > best):
            best = rate
    return RampResult(best, points)
