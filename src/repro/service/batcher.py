"""Micro-batching dispatcher: coalesce compatible solves, reuse the cache.

Requests popped from the admission queue are grouped into *micro-batches*
of compatible requests -- same platform fingerprint, same solver tier --
in arrival order.  One batch is one dispatch to the batcher's thread
pool, where it:

1. prices every request against the experiment engine's on-disk
   :class:`~repro.experiments.cache.ResultCache` (keys from
   :func:`repro.experiments.cache.service_request_key`, so entries are
   shared with any other server pointed at the same directory);
2. warms the vectorized numeric core for all cache-missing task sets in one
   :func:`repro.core.vectorized.prefetch_block_arrays` pass;
3. solves the misses via :func:`repro.service.protocol.execute_request`
   and writes their results back to the cache.

Oversized compatibility groups are split with the experiment engine's
:func:`repro.experiments.parallel.chunk_evenly`, the same granularity rule
the experiment engine's process pool uses.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import vectorized
from repro.experiments.cache import (
    ResultCache,
    platform_fingerprint,
    service_request_key,
)
from repro.experiments.parallel import chunk_evenly
from repro.service import protocol
from repro.service.metrics import (
    MetricsRegistry,
    scheme_energy_counter,
    service_metrics,
)
from repro.service.queue import QueueEntry

__all__ = [
    "Batcher",
    "batch_key",
    "execute_batch_requests",
    "finalize_outcomes",
    "form_batches",
]


def batch_key(request: protocol.SolveRequest) -> str:
    """Compatibility key: requests sharing it may coalesce into one batch.

    The solver tier (and its ε) is part of the key so batches stay
    tier-homogeneous: a batch's provenance and cache traffic then describe
    one tier, and exact requests never wait behind slow fptas grids.
    """
    payload = {
        "platform": platform_fingerprint(request.platform),
        "solver": request.solver,
    }
    if request.solver == "fptas":
        payload["epsilon"] = request.epsilon
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def form_batches(
    entries: Sequence[QueueEntry], max_batch: int
) -> List[List[QueueEntry]]:
    """Group entries into compatible micro-batches, preserving arrival order.

    Groups larger than ``max_batch`` are split into evenly sized chunks
    (two batches of 25 beat 32 + 18 for tail latency).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    groups: Dict[str, List[QueueEntry]] = {}
    order: List[str] = []
    for entry in entries:
        key = batch_key(entry.request)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(entry)
    batches: List[List[QueueEntry]] = []
    for key in order:
        group = groups[key]
        if len(group) <= max_batch:
            batches.append(group)
        else:
            splits = -(-len(group) // max_batch)  # ceil
            batches.extend(chunk_evenly(group, splits, chunks_per_worker=1))
    return batches


# ---------------------------------------------------------------------------
# Batch execution core
# ---------------------------------------------------------------------------


def execute_batch_requests(
    requests: Sequence[protocol.SolveRequest],
    cache: Optional[ResultCache],
) -> List[Dict[str, object]]:
    """Price, prefetch and solve one compatible batch.

    The deterministic core :meth:`Batcher.run_batch` calls (through this
    module attribute, so tracing can wrap it).  Cache keys are scoped to
    this process's engine (:func:`repro.core.vectorized.get_backend`).

    Returns one outcome dict per request, in order: either
    ``{"ok": True, "result", "scheme", "cache", "solve_ms", "backend"}`` or
    ``{"ok": False, "code", "message"}``; :func:`finalize_outcomes` turns
    them into wire responses and metrics.
    """
    backend = vectorized.get_backend()
    # Resolve schemes and price the cache for the whole batch first...
    plans: List[object] = []
    misses: List[protocol.SolveRequest] = []
    for request in requests:
        try:
            scheme = protocol.resolve_scheme(request)
        except protocol.ProtocolError as exc:
            plans.append(exc)
            continue
        key = (
            service_request_key(
                request.platform,
                request.tasks_config(),
                scheme,
                backend,
                solver=request.solver,
                epsilon=request.epsilon,
            )
            if cache is not None
            else None
        )
        stored = cache.get(key) if key is not None else None
        plans.append((scheme, key, stored))
        if stored is None:
            misses.append(request)
    # ... then warm the vectorized core for every miss in one pass.
    vectorized.prefetch_block_arrays([r.tasks for r in misses])

    out: List[Dict[str, object]] = []
    # Identical requests inside one batch solve once: the first
    # occurrence computes (and writes the cache), the rest are served
    # from this per-batch memo as hits.
    fresh: Dict[str, Dict[str, object]] = {}
    for request, plan in zip(requests, plans):
        if isinstance(plan, protocol.ProtocolError):
            out.append({"ok": False, "code": plan.code, "message": plan.message})
            continue
        scheme, key, stored = plan
        if stored is None and key is not None:
            stored = fresh.get(key)
        start = time.perf_counter()
        try:
            if stored is not None:
                result, cache_state = stored, "hit"
            else:
                result = protocol.execute_request(request)
                cache_state = "miss" if key is not None else "off"
                if key is not None:
                    cache.put(key, result)
                    fresh[key] = result
        except protocol.ProtocolError as exc:
            out.append({"ok": False, "code": exc.code, "message": exc.message})
            continue
        except Exception as exc:  # one bad solve must not kill the batch
            out.append(
                {
                    "ok": False,
                    "code": protocol.E_INTERNAL,
                    "message": f"{type(exc).__name__}: {exc}",
                }
            )
            continue
        solve_ms = (time.perf_counter() - start) * 1000.0
        out.append(
            {
                "ok": True,
                "result": result,
                "scheme": scheme,
                "cache": cache_state,
                "solve_ms": solve_ms,
                "backend": backend,
            }
        )
    return out


def finalize_outcomes(
    entries: Sequence[QueueEntry],
    outcomes: Sequence[Dict[str, object]],
    waits_ms: Sequence[float],
    metrics: MetricsRegistry,
) -> List[Tuple[QueueEntry, Dict[str, object]]]:
    """Turn outcome dicts into wire responses, recording per-request metrics."""
    out: List[Tuple[QueueEntry, Dict[str, object]]] = []
    for entry, outcome, wait_ms in zip(entries, outcomes, waits_ms):
        request = entry.request
        metrics.histogram("repro_queue_wait_ms").observe(wait_ms)
        if not outcome["ok"]:
            metrics.counter("repro_errors_total").inc()
            out.append(
                (
                    entry,
                    protocol.error_response(
                        request.id, str(outcome["code"]), str(outcome["message"])
                    ),
                )
            )
            continue
        cache_state = str(outcome["cache"])
        if cache_state == "hit":
            metrics.counter("repro_cache_hits_total").inc()
        elif cache_state == "miss":
            metrics.counter("repro_cache_misses_total").inc()
        solve_ms = float(outcome["solve_ms"])
        metrics.histogram("repro_solve_latency_ms").observe(solve_ms)
        metrics.counter("repro_responses_total").inc()
        result = outcome["result"]
        scheme_energy_counter(metrics, str(outcome["scheme"])).inc(
            result["energy"]["total"]
        )
        provenance: Dict[str, object] = {
            "backend": outcome["backend"],
            "cache": cache_state,
            "batch_size": len(entries),
        }
        out.append(
            (
                entry,
                protocol.ok_response(
                    request.id,
                    result,
                    timing={"queue_ms": wait_ms, "solve_ms": solve_ms},
                    provenance=provenance,
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# The dispatcher
# ---------------------------------------------------------------------------


class Batcher:
    """Executes micro-batches on a persistent thread pool.

    ``cache=None`` disables result caching (provenance reports ``"off"``).
    The pool is created once and survives for the service's lifetime;
    :meth:`shutdown` drains it.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        *,
        workers: int = 1,
        max_batch: int = 32,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.cache = cache
        self.metrics = metrics if metrics is not None else service_metrics()
        self.max_batch = max_batch
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-solve"
        )
        self.dispatches = 0

    # -- pool plumbing -------------------------------------------------------

    def submit_batch(self, entries: List[QueueEntry]) -> "Future":
        """Dispatch one formed batch; resolves to ``[(entry, response), ...]``."""
        self.dispatches += 1
        return self._pool.submit(self.run_batch, entries)

    def shutdown(self, wait: bool = True) -> None:
        self._pool.shutdown(wait=wait)

    # -- batch execution (runs on a pool thread) -----------------------------

    def run_batch(
        self, entries: List[QueueEntry]
    ) -> List[Tuple[QueueEntry, Dict[str, object]]]:
        if not entries:
            return []
        metrics = self.metrics
        metrics.counter("repro_batches_total").inc()
        metrics.histogram("repro_batch_size").observe(len(entries))
        if len(entries) > 1:
            metrics.counter("repro_batched_requests_total").inc(len(entries))
        inflight = metrics.gauge("repro_inflight")
        inflight.inc(len(entries))
        try:
            dispatched = time.monotonic()
            waits_ms = [
                max(0.0, (dispatched - entry.enqueued_at) * 1000.0)
                for entry in entries
            ]
            outcomes = execute_batch_requests(
                [entry.request for entry in entries], self.cache
            )
            return finalize_outcomes(entries, outcomes, waits_ms, metrics)
        finally:
            inflight.dec(len(entries))
