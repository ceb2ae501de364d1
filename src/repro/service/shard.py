"""The worker-pool execution tier: shard-affine long-lived solver processes.

One shard = one long-lived :class:`~repro.experiments.parallel.WorkerProcess`
plus the per-shard admission lane the server keeps for it.  The
consistent-hash ring (:mod:`repro.service.ring`) routes every solve by its
*platform fingerprint* -- the same identity the result cache and the
micro-batcher key on -- so one platform's traffic always lands on the
same worker, whose module-level ``BlockArrays``/block-energy memos stay
persistently warm across micro-batches.  The solves themselves are
stateless; affinity exists purely for cache heat.

Cross-shard state discipline (pinned by lint rule ``CON005``): shards
run in separate *processes*, so module-level mutable state in this tier
would silently diverge per shard.  The only sanctioned shared channels
are the content-addressed on-disk
:class:`~repro.experiments.cache.ResultCache` (atomic tmp+rename writes,
safe under concurrent shard workers) and the parent-side per-shard
labelled metrics.  Worker-*local* memos are fine -- each worker owns its
process -- but must carry an explicit pragma.

Byte-identity contract: a worker executes batches through the same
:func:`~repro.service.batcher.execute_batch_requests` core the inline
batcher uses, so canonical result bytes are identical for 1 shard and N shards,
cold and warm cache (asserted by ``tests/test_service_shard.py`` and the
``service-shard-smoke`` CI job).
"""

from __future__ import annotations

import json
import os
from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence

from repro.core import vectorized
from repro.experiments.cache import ResultCache, platform_fingerprint
from repro.experiments.parallel import WorkerProcess
from repro.service import protocol
from repro.service.batcher import execute_batch_requests
from repro.service.ring import DEFAULT_VNODES, HashRing

__all__ = [
    "ShardPool",
    "shard_execute",
    "shard_memo_stats",
    "shard_route_key",
]


def shard_route_key(request: protocol.SolveRequest) -> str:
    """The ring key of a request: canonical JSON of its platform fingerprint.

    Matches the identity inside :func:`repro.service.batcher.batch_key`
    and the cache's request keys, so every request that could share a
    batch or a cache entry also shares a shard.
    """
    return json.dumps(
        platform_fingerprint(request.platform), sort_keys=True, separators=(",", ":")
    )


# Worker-process-local cache-handle memo: each shard worker opens the
# shared on-disk ResultCache once and reuses the handle across batches;
# the cache it hands out *is* the sanctioned shared path.
# repro-lint: allow[CON005] worker-process-local by construction (one shard per process)
_WORKER_CACHES: Dict[str, ResultCache] = {}


def _worker_cache(root: Optional[str]) -> Optional[ResultCache]:
    if root is None:
        return None
    cache = _WORKER_CACHES.get(root)
    if cache is None:
        cache = ResultCache(root)
        _WORKER_CACHES[root] = cache
    return cache


def shard_execute(
    requests: Sequence[protocol.SolveRequest],
    cache_root: Optional[str],
) -> List[Dict[str, object]]:
    """Worker-side entry point: execute one compatible micro-batch.

    Runs inside the shard's worker process, through the exact execution
    core the inline batcher uses.  Returns the plain JSON-able outcome
    dicts of :func:`execute_batch_requests`; the parent turns them into
    wire responses and metrics.
    """
    return execute_batch_requests(list(requests), _worker_cache(cache_root))


def shard_memo_stats() -> Dict[str, float]:
    """Worker-side memo telemetry, flushed into labelled gauges at drain.

    Everything here is numeric so the parent can publish each key as a
    ``repro_shard_<key>{shard="i"}`` gauge without translation.
    """
    return {
        "block_arrays_cached": float(vectorized.block_arrays_cache_size()),
        "worker_pid": float(os.getpid()),
    }


class ShardPool:
    """The ring plus one long-lived worker process per shard.

    Workers are warmed (forked and solver-pinned) at
    construction, before the caller starts an event loop around the pool.
    ``cache`` is the shared on-disk result cache; workers re-open it by
    root path on their side of the process boundary.
    """

    def __init__(
        self,
        shards: int,
        *,
        cache: Optional[ResultCache] = None,
        vnodes: int = DEFAULT_VNODES,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.ring = HashRing(shards, vnodes=vnodes)
        self.cache = cache
        self.workers: List[WorkerProcess] = [
            WorkerProcess() for _ in range(shards)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def route(self, request: protocol.SolveRequest) -> int:
        """The shard index owning ``request``'s platform fingerprint."""
        return self.ring.shard_for(shard_route_key(request))

    def submit(
        self,
        shard: int,
        requests: Sequence[protocol.SolveRequest],
    ) -> "Future":
        """Dispatch one formed batch to ``shard``'s worker; resolves to
        the worker's outcome dicts."""
        root = self.cache.root if self.cache is not None else None
        return self.workers[shard].submit(
            shard_execute, list(requests), root
        )

    def memo_stats(self, shard: int) -> Dict[str, float]:
        """Blocking round-trip for one worker's memo telemetry."""
        stats = self.workers[shard].call(shard_memo_stats)
        return dict(stats)

    def shutdown(self, wait: bool = True) -> None:
        for worker in self.workers:
            worker.shutdown(wait=wait)
