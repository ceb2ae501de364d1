"""One Fig. 6 FFT U-sweep in a fresh process with a fresh, empty result cache.

Runs the sweep the way ``repro fig6 --workers 1`` does (serial engine,
on-disk cache), with the benchmark seed moved into the trace seeds so the
program only sees generated inputs.

    python perfbench/fig6_child.py SEED CACHE_DIR TRACE(0|1) SPANS_PATH

Prints a ready line once imports are done, then one JSON result line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time

from common import announce_ready, emit, peak_rss_mb

import repro.core.online as online
import repro.experiments.parallel as parallel
import repro.experiments.runner as runner
from repro.core.vectorized import get_backend
from repro.experiments.cache import ResultCache
from repro.experiments.fig6 import fig6_specs

#: ``repro fig6`` defaults: 64 instances per trace, 10 seeds per U point.
INSTANCES = 64
UNIT_SEEDS = 10
#: Trace-seed shift per benchmark seed; larger than any U offset.
SEED_SHIFT = 100_003


def specs_for(seed: int):
    return [
        dataclasses.replace(
            spec,
            trace_factory=dataclasses.replace(
                spec.trace_factory,
                seed_offset=spec.trace_factory.seed_offset + SEED_SHIFT * seed,
            ),
        )
        for spec in fig6_specs("fft", instances=INSTANCES)
    ]


def install_tracer():
    from spans import Tracer

    tracer = Tracer()
    for name in (
        "solve_common_release",
        "solve_common_release_with_overhead",
        "solve_common_release_fptas",
    ):
        tracer.wrap(online, name, "core.replan", note=lambda a, k, r: len(a[0]))
    tracer.wrap(runner, "simulate_segments", "sim.simulate_segments")
    tracer.wrap(runner, "account_segments", "energy.account_segments")
    tracer.wrap(runner, "validate_segments", "schedule.validate_segments")
    tracer.wrap(parallel, "dspstone_trace", "workloads.trace")
    tracer.wrap(ResultCache, "get", "experiments.cache.get")
    tracer.wrap(ResultCache, "put", "experiments.cache.put")
    tracer.wrap(parallel, "run_unit", "experiments.run_unit")
    return tracer


def main() -> int:
    seed, cache_dir, traced, spans_path = (
        int(sys.argv[1]),
        sys.argv[2],
        sys.argv[3] == "1",
        sys.argv[4],
    )
    specs = specs_for(seed)
    cache = ResultCache(cache_dir)
    announce_ready()

    unit_ms = []
    tracer = install_tracer() if traced else None
    if tracer is None:
        run_unit = parallel.run_unit

        def timed_unit(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_unit(*args, **kwargs)
            finally:
                unit_ms.append((time.perf_counter() - start) * 1000.0)

        parallel.run_unit = timed_unit

    start = time.perf_counter()
    series = parallel.run_series(
        "fig6-fft", specs, seeds=UNIT_SEEDS, max_workers=1, cache=cache
    )
    wall_s = time.perf_counter() - start

    if tracer is not None:
        tracer.dump(spans_path)
        unit_ms = [
            (end - begin) * 1000.0
            for _i, _p, name, begin, end in tracer.spans
            if name == "experiments.run_unit"
        ]
    rows = json.dumps(series.rows(), sort_keys=True).encode("utf-8")
    emit(
        {
            "units": len(specs) * UNIT_SEEDS,
            "cached_units": sum(p.cached_units for p in series.points),
            "wall_s": wall_s,
            "unit_ms": unit_ms,
            "digest": hashlib.sha256(rows).hexdigest(),
            "rss_mb": peak_rss_mb(),
            "backend": get_backend(),
        }
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
