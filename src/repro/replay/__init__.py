"""``repro.replay``: the open-loop streaming workload subsystem.

Everything else in the repo reproduces *closed-loop* figures: a fixed
sweep of (point, seed) work units, timed cold and warm.  This package
measures the system as a **server**: a seeded open-loop arrival process
(:mod:`repro.replay.arrivals`) emits sporadic jobs with deadlines,
independent of how fast the sink answers; a replayer
(:mod:`repro.replay.sinks`) drives them through the in-process SDEM-ON
online replan path or the ``repro.service`` TCP server; and a latency/SLO
harness (:mod:`repro.replay.harness`) reports per-job queueing + solve
latency percentiles, deadline-miss and shed counts, energy per job, and
the maximum sustainable offered rate at a P99 SLO.

Entry points: ``repro replay`` (CLI) and ``repro bench --slice
streaming`` (the trajectory-gated bench slice).  See docs/STREAMING.md.
"""

from repro.replay.arrivals import (
    ARRIVAL_MODES,
    ArrivalSpec,
    Job,
    mmpp_jobs,
    offered_rate_jobs_s,
    poisson_jobs,
    trace_jobs,
)
from repro.replay.harness import (
    LatencyStats,
    RampPoint,
    RampResult,
    ReplayReport,
    find_max_sustainable_rate,
    format_sustainable_rate,
    open_loop_latency_ms,
    percentile,
    run_replay,
    table_digest,
)
from repro.replay.sinks import (
    JOB_STATUSES,
    JobRecord,
    ReplayOutcome,
    replay_inprocess,
    replay_service,
)

__all__ = [
    "ARRIVAL_MODES",
    "ArrivalSpec",
    "JOB_STATUSES",
    "Job",
    "JobRecord",
    "LatencyStats",
    "RampPoint",
    "RampResult",
    "ReplayOutcome",
    "ReplayReport",
    "find_max_sustainable_rate",
    "format_sustainable_rate",
    "mmpp_jobs",
    "offered_rate_jobs_s",
    "open_loop_latency_ms",
    "percentile",
    "poisson_jobs",
    "replay_inprocess",
    "replay_service",
    "run_replay",
    "table_digest",
    "trace_jobs",
]
