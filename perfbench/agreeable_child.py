"""Seeded agreeable instances: exact Section 5 DP, then the FPTAS columns path.

    python perfbench/agreeable_child.py SEED COUNT LARGE_N TRACE(0|1) SPANS_PATH

Solves instances ``0 .. COUNT-1`` of the seed's instance list exactly and
with the FPTAS on the same columns, then (when ``LARGE_N`` is positive) one
large agreeable trace with the FPTAS alone.  The work is fixed by the
arguments, not by a time budget, so every run of one seed solves the same
instances.  Prints a ready line once imports are done, then one JSON
result line.
"""

from __future__ import annotations

import random
import sys
import time

from common import announce_ready, emit, peak_rss_mb

import repro.core.agreeable as agreeable
import repro.core.fptas as fptas
from repro.core.blocks import block_energy_cache_info
from repro.core.vectorized import get_backend
from repro.experiments.config import experiment_platform
from repro.models.task import Task, TaskSet
from repro.utils.solvers import solver_call_total
from repro.workloads.synthetic import agreeable_trace

#: Instance size: "n in the tens" at the cost the exact DP allows.
N_TASKS = 10
#: Mean inter-arrival 10 ms against 10-120 ms windows: every instance is one
#: overlapping cluster, so the DP prices every block and the cost of one
#: solve varies little between instances (about 10% here).
MAX_INTERARRIVAL_MS = 20.0
LARGE_MAX_INTERARRIVAL_MS = 120.0
#: The exact DP is optimal, so the FPTAS may not beat it by more than this.
FLOAT_SLACK = 1e-9


def instance_seed(seed: int, index: int) -> int:
    return random.Random(seed * 1_000_003 + index).randrange(1 << 31)


def columns(seed: int, index: int):
    return agreeable_trace(
        n=N_TASKS,
        max_interarrival=MAX_INTERARRIVAL_MS,
        seed=instance_seed(seed, index),
    )


def as_taskset(releases, deadlines, workloads) -> TaskSet:
    return TaskSet.presorted(
        tuple(
            Task(r, d, w, f"A{i}")
            for i, (r, d, w) in enumerate(zip(releases, deadlines, workloads))
        )
    )


def main() -> int:
    seed, count, large_n = (int(value) for value in sys.argv[1:4])
    traced, spans_path = sys.argv[4] == "1", sys.argv[5]
    # xi_m = 0, as the huge-n bench slice runs the exact DP.
    platform = experiment_platform(xi_m=0.0)
    epsilon = fptas.get_solver_epsilon()
    tracer = None
    if traced:
        from spans import Tracer

        tracer = Tracer()
        tracer.wrap(agreeable, "solve_agreeable", "core.agreeable.solve")
        tracer.wrap(agreeable, "solve_block", "core.blocks.solve_block")
        tracer.wrap(fptas, "solve_agreeable_fptas_columns", "core.fptas.solve")
    announce_ready()

    exact_s, fptas_s, fptas_tasks, gaps, violations, blocks = [], 0.0, 0, [], [], 0
    hits = misses = exact_calls = 0
    for index in range(count):
        releases, deadlines, workloads = columns(seed, index)
        tasks = as_taskset(releases, deadlines, workloads)
        memo_before = block_energy_cache_info()
        calls_before = solver_call_total()
        start = time.perf_counter()
        exact = agreeable.solve_agreeable(tasks, platform)
        exact_s.append(time.perf_counter() - start)
        exact_calls += solver_call_total() - calls_before
        memo_after = block_energy_cache_info()
        for kind in ("energy", "solution"):
            hits += memo_after[f"{kind}_hits"] - memo_before[f"{kind}_hits"]
            misses += memo_after[f"{kind}_misses"] - memo_before[f"{kind}_misses"]
        start = time.perf_counter()
        approx = fptas.solve_agreeable_fptas_columns(
            releases, deadlines, workloads, platform, epsilon=epsilon
        )
        fptas_s += time.perf_counter() - start
        fptas_tasks += len(releases)
        blocks += approx["num_blocks"]
        gaps.append(approx["energy"] / exact.predicted_energy - 1.0)
        # Both directions: the FPTAS within (1+eps) of the optimum, and the
        # exact DP no worse than the FPTAS (a suboptimal exact DP fails).
        if approx["energy"] > (1.0 + epsilon) * exact.predicted_energy:
            violations.append(f"instance {index}: fptas above (1+eps)*exact")
        if exact.predicted_energy > approx["energy"] * (1.0 + FLOAT_SLACK):
            violations.append(f"instance {index}: exact above fptas")

    large_s = 0.0
    if large_n > 0:
        releases, deadlines, workloads = agreeable_trace(
            n=large_n,
            max_interarrival=LARGE_MAX_INTERARRIVAL_MS,
            seed=instance_seed(seed, -1),
        )
        start = time.perf_counter()
        approx = fptas.solve_agreeable_fptas_columns(
            releases, deadlines, workloads, platform, epsilon=epsilon
        )
        large_s = time.perf_counter() - start
        fptas_s += large_s
        fptas_tasks += large_n
        blocks += approx["num_blocks"]

    if tracer is not None:
        tracer.dump(spans_path)
    emit(
        {
            "exact_s": exact_s,
            "fptas_s": fptas_s,
            "fptas_calls": count + (1 if large_n > 0 else 0),
            "fptas_tasks": fptas_tasks,
            "fptas_blocks": blocks,
            "large_s": large_s,
            "gaps": gaps,
            "violations": violations,
            "epsilon": epsilon,
            "memo_hits": hits,
            "memo_misses": misses,
            "solver_calls": exact_calls,
            "rss_mb": peak_rss_mb(),
            "backend": get_backend(),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
