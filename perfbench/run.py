"""The repository benchmark: one workload per run, metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``fig6-sweep`` -- the Fig. 6 FFT U-sweep, serial, each sweep in a fresh
  process with a fresh empty result cache; an operation is one work unit.
* ``agreeable-offline`` -- a fixed list of seeded agreeable instances
  solved by the exact Section 5 DP and by the FPTAS columns path, plus one
  large trace by the FPTAS; an operation is one exact solve.
* ``service-repeat`` -- open-loop Poisson traffic against ``repro serve``
  over TCP, every request drawn from a pool of 64; an operation is one
  request.

With ``--trace 0`` the last line carries the end-to-end metrics, which are
common to all workloads (an operation is workload-specific, see above):

* ``setup_s`` -- process start until ready, median of seven set-up-only
  starts;
* ``peak_rss_mb`` -- peak RSS of the process under test (service: up to
  the end of the light phase);
* ``ops_per_s`` -- fig6 units/s, exact solves/s, or the service's
  capacity: answered requests per second with 64 requests kept in flight
  (median of several bursts);
* ``p50_ms`` -- one operation's median latency (service: at the light
  rate, timed from the due send time).

The report line also gives each latency's highest percentile with at least
ten samples beyond it, and the sample count.

With ``--trace 1`` it carries the per-layer split, from spans the
benchmark records around each layer's public functions (see ``spans.py``):
self time is a span minus its child spans.  ``*.self_s`` and ``*.calls``
are per fig6 sweep (80 units) or per exact solve; ``*.self_us`` is per call
and service ``*.calls`` are per request.  ``core.fptas.solve.self_s`` and
``core.fptas.blocks`` are per FPTAS solve.  Layers a workload does not
reach read 0.  Lines before the
last one are a readable report, with the workload-specific figures.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

FIG6_MIN_SWEEPS = 3
#: Work units per sweep in fig6_child.py: 8 U points x 10 seeds.
FIG6_UNITS = 80
#: Agreeable: exact solves per 30 s of run time.  The count depends only on
#: --seconds, so every run of one seed solves the same instances.
AGREEABLE_PER_30S = 8
LARGE_N = 2000
#: Service traffic: the light and loaded rates, the P99 limit of the rate
#: search and its ramp.
LIGHT_RPS = 60.0
LOADED_RPS = 500.0
P99_LIMIT_MS = 500.0
RAMP_FACTOR = 1.5
RAMP_CAP_RPS = 4000.0
BISECT_STEPS = 3
#: Light-phase requests per second of run time (its tail is then p98); a
#: rate-search probe lasts PROBE_S per 30 s of run time and sends at least
#: MIN_REQUESTS, so its p99 has ten samples beyond it.
LIGHT_PER_S = 20
PROBE_S = 1.2
MIN_REQUESTS = 1000
WARMUP_REQUESTS = 100
#: Capacity: answered requests per second with SATURATION_WINDOW requests
#: in flight (fewer than the admission queue holds, so none is refused),
#: median of SATURATION_BURSTS bursts.
SATURATION_REQUESTS = 800
SATURATION_WINDOW = 64
SATURATION_BURSTS = 5
#: Every Nth fixed-rate response is re-solved in-process and compared.
CHECK_EVERY = 40


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> Dict[str, object]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def median(values) -> float:
    return statistics.median(values)


# ---------------------------------------------------------------------------
# fig6-sweep
# ---------------------------------------------------------------------------


def _fig6_layers(children: List[dict]) -> Dict[str, float]:
    """Per-sweep self time and calls of each layer, medians over sweeps."""
    import pbstats
    import spans

    per_sweep: Dict[str, List[float]] = {}
    calls: Dict[str, List[float]] = {}
    replan_tasks: List[float] = []
    residues = []
    for child in children:
        recorded, _keys, notes = spans.load(child["spans"])
        totals = pbstats.layer_totals(recorded)
        for name, (count, seconds) in totals.items():
            per_sweep.setdefault(name, []).append(seconds)
            calls.setdefault(name, []).append(count)
        replan_tasks.extend(notes.get("core.replan", []))
        units = sum(end - start for _i, _p, name, start, end in recorded if name == "experiments.run_unit")
        residues.append(child["wall_s"] - units)
    out = {}
    for name in (
        "core.replan",
        "sim.simulate_segments",
        "energy.account_segments",
        "schedule.validate_segments",
        "workloads.trace",
        "experiments.run_unit",
    ):
        out[f"{name}.self_s"] = median(per_sweep.get(name, [0.0]))
        out[f"{name}.calls"] = median(calls.get(name, [0]))
    out["core.replan.tasks_mean"] = pbstats.mean(replan_tasks)
    for name in ("experiments.cache.get", "experiments.cache.put"):
        count = sum(calls.get(name, [0]))
        out[f"{name}.self_us"] = sum(per_sweep.get(name, [0.0])) / count * 1e6 if count else 0.0
        out[f"{name}.calls"] = median(calls.get(name, [0]))
    out["experiments.residue_s"] = median(residues)
    return out


def run_fig6(args) -> dict:
    import pbstats
    from common import WORK, run_child, setup_s

    def sweep(index: int, traced: bool) -> dict:
        spans_path = os.path.join(WORK, f"fig6-{index}.spans.json")
        return run_child(
            "fig6_child.py",
            [str(args.seed), os.path.join(WORK, f"fig6-cache-{index}"), "1" if traced else "0", spans_path],
            timeout=150,
        ) | {"spans": spans_path, "traced": traced}

    setup = setup_s("fig6_child.py", [str(args.seed), os.path.join(WORK, "fig6-setup"), "0", ""])
    deadline = time.perf_counter() + args.seconds
    children, failures = [], []
    index = 0
    while len(children) < FIG6_MIN_SWEEPS or time.perf_counter() < deadline:
        # In a traced run, alternate untraced and traced sweeps so the
        # tracing overhead is measured on interleaved, identical sweeps.
        traced = bool(args.trace) and index % 2 == 1
        try:
            children.append(sweep(index, traced))
        except RuntimeError as exc:
            failures.append(str(exc))
            if len(failures) > 3:
                fail(f"fig6 sweeps keep failing: {failures[-1]}")
        index += 1
    digests = {child["digest"] for child in children}
    cached = sum(child["cached_units"] for child in children)
    correct = len(digests) == 1 and cached == 0
    plain = [c for c in children if not c["traced"]]
    unit_ms = [ms for c in plain for ms in c["unit_ms"]]
    tail_p, tail_ms = pbstats.tail(unit_ms)
    units_per_s = median([c["units"] / c["wall_s"] for c in plain])
    report = {
        "units_per_s": units_per_s,
        "unit_p50_ms": pbstats.nearest_rank(unit_ms, 50.0),
        f"unit_p{tail_p:g}_ms": tail_ms,
        "unit_samples": len(unit_ms),
        "sweeps": len(children),
        "units_per_sweep": children[0]["units"],
        "row_digest": sorted(digests),
        "cached_units": cached,
        "backend": children[0]["backend"],
    }
    result = {
        "correct": correct,
        "attempted": sum(c["units"] for c in children) + FIG6_UNITS * len(failures),
        "failed": FIG6_UNITS * len(failures),
        "report": report,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": setup,
            "peak_rss_mb": max(c["rss_mb"] for c in children),
            "ops_per_s": units_per_s,
            "p50_ms": report["unit_p50_ms"],
        }
        return result
    traced = [c for c in children if c["traced"]]
    layers = _fig6_layers(traced)
    traced_ms = [ms for c in traced for ms in c["unit_ms"]]
    layers["trace.overhead_ms"] = pbstats.nearest_rank(traced_ms, 50.0) - report["unit_p50_ms"]
    result["metrics"] = layers
    return result


# ---------------------------------------------------------------------------
# agreeable-offline
# ---------------------------------------------------------------------------


def run_agreeable(args) -> dict:
    import pbstats
    import spans
    from common import WORK, run_child, setup_s

    count = max(2, round(AGREEABLE_PER_30S * args.seconds / 30.0))
    spans_path = os.path.join(WORK, "agreeable.spans.json")
    setup = setup_s("agreeable_child.py", [str(args.seed), "0", "0", "0", ""])
    child = run_child(
        "agreeable_child.py",
        [str(args.seed), str(count), str(LARGE_N), "1" if args.trace else "0", spans_path],
        timeout=170,
    )
    exact_s = child["exact_s"]
    exact_ms = [s * 1000.0 for s in exact_s]
    tail = pbstats.tail(exact_ms) or (100.0, max(exact_ms))
    report = {
        "exact_solves_per_s": len(exact_s) / sum(exact_s),
        "exact_p50_ms": pbstats.nearest_rank(exact_ms, 50.0),
        f"exact_p{tail[0]:g}_ms": tail[1],
        "exact_solves": len(exact_s),
        "fptas_tasks_per_s": child["fptas_tasks"] / child["fptas_s"],
        "fptas_gap": max(child["gaps"]),
        "fptas_epsilon": child["epsilon"],
        "check_violations": child["violations"],
        "large_n": LARGE_N,
        "large_n_fptas_s": child["large_s"],
        "backend": child["backend"],
    }
    result = {
        "correct": not child["violations"],
        "attempted": len(exact_s),
        "failed": 0,
        "report": report,
    }
    if not args.trace:
        result["metrics"] = {
            "setup_s": setup,
            "peak_rss_mb": child["rss_mb"],
            "ops_per_s": report["exact_solves_per_s"],
            "p50_ms": report["exact_p50_ms"],
        }
        return result
    # The first half of the instances again, untraced, for the overhead.
    paired = max(1, count // 2)
    untraced = run_child(
        "agreeable_child.py", [str(args.seed), str(paired), "0", "0", ""], timeout=170
    )
    recorded, _keys, _notes = spans.load(spans_path)
    totals = pbstats.layer_totals(recorded)
    lookups = child["memo_hits"] + child["memo_misses"]
    exact_calls, exact_self = totals.get("core.agreeable.solve", (0, 0.0))
    block_calls, block_self = totals.get("core.blocks.solve_block", (0, 0.0))
    fptas_calls, fptas_self = totals.get("core.fptas.solve", (0, 0.0))
    result["metrics"] = {
        "core.agreeable.solve.self_s": exact_self / count,
        "core.agreeable.solve.calls": exact_calls / count,
        "core.blocks.solve_block.self_s": block_self / count,
        "core.blocks.solve_block.calls": block_calls / count,
        "core.blocks.memo_hit_ratio": child["memo_hits"] / lookups if lookups else 0.0,
        "core.solver_calls": child["solver_calls"] / count,
        "core.fptas.solve.self_s": fptas_self / fptas_calls,
        "core.fptas.solve.calls": fptas_calls / count,
        "core.fptas.blocks": child["fptas_blocks"] / child["fptas_calls"],
        "core.fptas.tasks_per_s": report["fptas_tasks_per_s"],
        "core.fptas.gap": report["fptas_gap"],
        "trace.overhead_ms": pbstats.mean(
            (traced - plain) * 1000.0 for traced, plain in zip(exact_s, untraced["exact_s"])
        ),
    }
    return result


# ---------------------------------------------------------------------------
# service-repeat
# ---------------------------------------------------------------------------


def _check_responses(phases) -> List[str]:
    """Sampled responses must be byte-identical to in-process execution."""
    from repro.service.client import expected_result
    from repro.service.protocol import canonical_result_bytes

    mismatched = []
    for phase in phases:
        for k, record in enumerate(phase.records):
            if record.response is None:
                continue
            served = canonical_result_bytes(record.response["result"])
            direct = canonical_result_bytes(expected_result(dict(phase.wires[k], id="check")))
            if served != direct:
                mismatched.append(record.response["id"])
    return mismatched


def _phase_summary(phase) -> Dict[str, object]:
    import pbstats

    latencies = phase.latencies()
    return {
        "rate_rps": phase.rate,
        "sent": len(phase.records),
        "ok": phase.count("ok"),
        "refused": phase.count("refused"),
        "failed": phase.count("failed"),
        "p50_ms": pbstats.nearest_rank(latencies, 50.0),
        # The pass rule reads p99 at any sample size; reports use ``tail``.
        "p99_ms": pbstats.nearest_rank(latencies, 99.0),
        "tail": pbstats.tail(latencies),
        "lag_p99_ms": phase.lag_p99(),
        "backlog_growth_ms": phase.backlog_growth_ms(),
        "cache_hit_ratio": sum(1 for r in phase.records if r.cache == "hit") / len(phase.records),
        "batch_size_mean": sum(r.batch_size for r in phase.records) / len(phase.records),
    }


def _passes(summary: Dict[str, object]) -> bool:
    """One rate-search probe: P99 within the limit (refused and failed count
    as misses), nothing refused or failed, no growing backlog, and a
    generator that kept up (lateness p99 within a fifth of the limit)."""
    return (
        summary["p99_ms"] <= P99_LIMIT_MS
        and summary["refused"] == 0
        and summary["failed"] == 0
        and summary["backlog_growth_ms"] <= P99_LIMIT_MS / 2.0
        and summary["lag_p99_ms"] <= P99_LIMIT_MS / 5.0
    )


async def _drive(args, traced: bool, search: bool, cache_name: str, deadline: float) -> dict:
    import loadgen

    # A traced run drives two servers, so each gets half a light phase.
    light_n = max(100, round(LIGHT_PER_S * args.seconds / (2 if args.trace else 1)))
    loaded_rps = LOADED_RPS
    source = loadgen.RequestSource(args.seed)
    spans_path = os.path.join(loadgen.WORK, f"{cache_name}.spans.json")
    server = loadgen.Server(loadgen.work_dir(cache_name), traced=traced, spans_path=spans_path)
    out = {"spans": spans_path}
    clients = []
    try:
        clients = await loadgen.connect(server, loadgen.connections())
        await loadgen.run_phase(clients, source.take(WARMUP_REQUESTS), loaded_rps, args.seed, "warm")
        light = await loadgen.run_phase(
            clients, source.take(light_n), LIGHT_RPS, args.seed + 1, "light", CHECK_EVERY
        )
        # Peak RSS at the light rate: at higher rates it would depend on how
        # deep the queue happened to grow.
        out["rss_mb"] = server.peak_rss_mb()
        loaded = await loadgen.run_phase(
            clients, source.take(MIN_REQUESTS), loaded_rps, args.seed + 2, "loaded", CHECK_EVERY
        )
        out["light"], out["loaded"] = light, loaded
        if search:
            out["capacity_rps"] = [
                await loadgen.run_saturated(
                    clients, source.take(SATURATION_REQUESTS), SATURATION_WINDOW, f"saturated{b}"
                )
                for b in range(SATURATION_BURSTS)
            ]
            # The loaded phase is the search's first probe.
            done = {loaded_rps: _phase_summary(loaded)}
            # The light phase, when it passes, is a known floor.
            floor = LIGHT_RPS if _passes(_phase_summary(light)) else 0.0
            out["search"] = await _search(
                clients, source, loaded_rps, floor, done, args.seed,
                PROBE_S * args.seconds / 30.0, deadline,
            )
    finally:
        for client in clients:
            await client.close()
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited {code} after draining")
    return out


async def _search(clients, source, start_rps, floor, done, seed, probe_s, deadline) -> dict:
    """``pbstats.search_rate`` over live probes at the open-loop rates.

    ``done`` holds phases already measured.  Past ``deadline`` an
    unmeasured rate counts as failed, so a slow host ends the search early
    (``truncated``) instead of overrunning the run.
    """
    import loadgen
    import pbstats

    truncated = False

    async def probe(rate: float) -> bool:
        nonlocal truncated
        if rate not in done:
            requests = max(MIN_REQUESTS, round(rate * probe_s))
            if time.perf_counter() + requests / rate >= deadline:
                truncated = True
                return False
            phase = await loadgen.run_phase(
                clients, source.take(requests), rate, seed + 3 + len(done), f"probe{len(done)}"
            )
            done[rate] = _phase_summary(phase)
        return _passes(done[rate])

    outcome = await pbstats.search_rate(
        probe, start=start_rps, factor=RAMP_FACTOR, cap=RAMP_CAP_RPS, steps=BISECT_STEPS, floor=floor
    )
    outcome["truncated"] = truncated
    outcome["probes"] = [
        {"rate_rps": round(rate, 1), "passed": passed,
         **{key: done[rate][key] for key in ("sent", "ok", "refused", "failed", "p99_ms",
                                             "lag_p99_ms", "backlog_growth_ms")}}
        for rate, passed in outcome["probes"]
        if rate in done
    ]
    return outcome


def _server_setup_s() -> float:
    """Median time from process start to the first answered ping, over
    ``SETUP_STARTS`` server starts.

    The server prints its listening line just before it installs its
    SIGTERM handler; the ping also makes sure the handler is in place
    before the server is stopped.
    """
    import loadgen
    from common import SETUP_STARTS

    async def start_once(index: int) -> float:
        start = time.perf_counter()
        server = loadgen.Server(loadgen.work_dir(f"setup-{index}"))
        try:
            clients = await loadgen.connect(server, 1)
            ready = time.perf_counter() - start
            await clients[0].close()
        finally:
            code = server.stop()
        if code != 0:
            raise RuntimeError(f"server exited {code} after set-up")
        return ready

    return median([asyncio.run(start_once(index)) for index in range(SETUP_STARTS)])


def _service_layers(run: dict, reference: dict) -> Dict[str, float]:
    """Per-layer split of the traced server's light and loaded phases."""
    import pbstats
    import spans

    recorded, keys, _notes = spans.load(run["spans"])
    own = pbstats.self_times(recorded)
    totals: Dict[str, List[float]] = {}
    per_request: Dict[str, float] = {}
    for span, self_s in zip(recorded, own):
        index, parent, name, start, end = span
        acc = totals.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += self_s
        # Stage time each request waited on: protocol spans are its own; a
        # batch span (cache and core calls are its children) is waited on,
        # whole, by every request in it.
        if parent < 0:
            for request_id in keys.get(index, []):
                per_request[request_id] = per_request.get(request_id, 0.0) + (end - start) * 1000.0
    light, loaded = run["light"], run["loaded"]
    stage_sums, residues = [], []
    for k, record in enumerate(light.records):
        if record.status != "ok":
            continue
        stages = per_request.get(f"light.{k}", 0.0) + record.queue_ms
        stage_sums.append(stages)
        residues.append(record.latency_ms - stages)
    untraced_p50 = pbstats.nearest_rank(reference["light"].latencies(), 50.0)
    traced_p50 = pbstats.nearest_rank(light.latencies(), 50.0)
    totals_ms = [s + r for s, r in zip(stage_sums, residues)]
    # Per-call self time, and calls per request the traced server answered.
    requests = totals.get("service.protocol.encode", [1, 0.0])[0]
    out: Dict[str, float] = {}
    for name in (
        "service.protocol.decode",
        "service.protocol.validate",
        "service.protocol.encode",
        "service.batcher.execute",
        "core.execute",
        "experiments.cache.get",
        "experiments.cache.put",
    ):
        calls, seconds = totals.get(name, [0, 0.0])
        out[f"{name}.self_us"] = seconds / calls * 1e6 if calls else 0.0
        out[f"{name}.calls"] = calls / requests
    records = light.records + loaded.records
    out["cache.hit_ratio"] = sum(1 for r in records if r.cache == "hit") / len(records)
    out["service.batcher.batch_size"] = pbstats.mean(r.batch_size for r in records if r.status == "ok")
    out["service.queue.wait_ms.p50"] = pbstats.nearest_rank([r.queue_ms for r in light.records], 50.0)
    out["service.queue.wait_ms.p99"] = pbstats.nearest_rank([r.queue_ms for r in loaded.records], 99.0)
    out["service.stage_sum_ms"] = pbstats.mean(stage_sums)
    out["service.residue_ms"] = pbstats.mean(residues)
    # Stages plus residue is the traced latency by construction, so the
    # ratio measures tracing overhead only.  Wrong attribution (a stage
    # counted twice, say) shows as negative residue instead.
    out["service.residue_ms.min"] = min(residues)
    out["service.residue_negative_share"] = sum(1 for r in residues if r < 0.0) / len(residues)
    out["service.stage_sum_ratio"] = pbstats.nearest_rank(totals_ms, 50.0) / untraced_p50
    out["client.lag_ms.p99"] = light.lag_p99()
    out["trace.overhead_ms"] = traced_p50 - untraced_p50
    return out


def run_service(args) -> dict:
    setup = _server_setup_s()
    # No rate-search probe starts unless its sending ends 3 s before this.
    deadline = time.perf_counter() + args.seconds - 3.0
    main_run = asyncio.run(
        _drive(args, traced=False, search=not args.trace, cache_name="cache-a", deadline=deadline)
    )
    light, loaded = main_run["light"], main_run["loaded"]
    light_sum, loaded_sum = _phase_summary(light), _phase_summary(loaded)
    phases = [light, loaded]
    traced_run = None
    if args.trace:
        traced_run = asyncio.run(
            _drive(args, traced=True, search=False, cache_name="cache-b", deadline=deadline)
        )
        phases += [traced_run["light"], traced_run["loaded"]]
    mismatched = _check_responses(phases)
    checked = sum(1 for phase in phases for r in phase.records if r.response is not None)
    attempted = len(light.records) + len(loaded.records)
    failed = sum(s["refused"] + s["failed"] for s in (light_sum, loaded_sum))
    light_tail_p, light_tail = light_sum["tail"]
    report = {
        "p50_ms.light": light_sum["p50_ms"],
        f"p{light_tail_p:g}_ms.light": light_tail,
        "p50_ms.loaded": loaded_sum["p50_ms"],
        "p99_ms.loaded": loaded_sum["p99_ms"],
        "fail_ratio": failed / attempted,
        "light": light_sum,
        "loaded": loaded_sum,
        "backend": next((r.response["provenance"]["backend"] for r in light.records if r.response), None),
        "responses_checked": checked,
        "responses_mismatched": mismatched[:10],
        "p99_limit_ms": P99_LIMIT_MS,
    }
    # A generator that ran late by more than the light-rate median measured
    # itself, not the server: the phase is marked invalid.
    light_sum["valid"] = light_sum["lag_p99_ms"] <= light_sum["p50_ms"]
    result = {
        "correct": not mismatched and checked > 0,
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }
    if not args.trace:
        search = main_run["search"]
        report["max_rate_rps"] = search["rate"]
        report["capacity_rps_bursts"] = main_run["capacity_rps"]
        report["max_rate_censored"] = search["censored"]
        report["max_rate_truncated"] = search["truncated"]
        report["probes"] = search["probes"]
        result["metrics"] = {
            "setup_s": setup,
            "peak_rss_mb": main_run["rss_mb"],
            "ops_per_s": median(main_run["capacity_rps"]),
            "p50_ms": light_sum["p50_ms"],
        }
        return result
    result["metrics"] = _service_layers(traced_run, main_run)
    ratio = result["metrics"]["service.stage_sum_ratio"]
    report["stage_sum_within_10pct_of_untraced_p50"] = abs(ratio - 1.0) <= 0.10
    report["stages_exceed_latency"] = result["metrics"]["service.residue_negative_share"] > 0.0
    if report["stages_exceed_latency"]:
        print("perfbench: attributed stages exceed the client latency on some requests",
              file=sys.stderr)
    return result


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "fig6-sweep": run_fig6,
    "agreeable-offline": run_agreeable,
    "service-repeat": run_service,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail(f"no program to measure: {os.path.join(SRC, 'repro')} is missing")
    sys.path.insert(0, SRC)
    from common import WORK, stamp

    spec = load_spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        run_stamp = stamp()
        result = WORKLOADS[args.workload](args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    metrics = result["metrics"]
    missing = sorted({m["name"] for m in wanted} ^ set(metrics))
    if args.trace:
        # Layers a workload does not exercise read zero.
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
        missing = sorted(set(metrics) - {m["name"] for m in wanted})
    if missing:
        fail(f"metric set does not match BENCHMARK.json: {missing}")
    run_stamp["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **run_stamp}))
    print(json.dumps(result["report"], default=str))
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": {
                    m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
