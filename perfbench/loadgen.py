"""Open-loop Poisson load against ``repro serve`` over TCP.

Requests are sent on a seeded Poisson schedule whether or not earlier ones
have been answered, over at most ``nproc`` connections from this one
process.  Each request's latency runs from the time it was *due*, so a
stall also charges the requests queued behind it; how late the generator
itself ran is recorded per request.
"""

from __future__ import annotations

import asyncio
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import pbstats
from common import HERE, WORK, child_env, peak_rss_mb

from repro.service import protocol
from repro.service.client import RequestTimedOut, ServiceClient

#: Eight memory-power points so requests spread over distinct platforms.
PLATFORMS = [{"alpha_m": 1200.0 + 200.0 * index} for index in range(8)]
#: Share of common-release sets; the rest are sporadic sets under SDEM-ON.
COMMON_RELEASE_SHARE = 0.7
MAX_TASKS = 32
#: Distinct requests in the pool every request is drawn from.
REPEAT_POOL = 64
REFUSED = (protocol.E_SHEDDING, protocol.E_QUEUE_FULL, protocol.E_DRAINING)
#: A request unanswered after this long counts as failed.
REQUEST_TIMEOUT_MS = 20_000.0


# ---------------------------------------------------------------------------
# Request generation
# ---------------------------------------------------------------------------


def _common_release(rng: random.Random, n: int) -> List[Dict[str, object]]:
    tasks, deadline = [], 0.0
    for i in range(n):
        deadline += rng.uniform(5.0, 40.0)
        tasks.append(
            {"name": f"t{i}", "release": 0.0, "deadline": deadline,
             "workload": rng.uniform(2000.0, 5000.0)}
        )
    return tasks


def _sporadic(rng: random.Random, n: int) -> List[Dict[str, object]]:
    tasks, release = [], 0.0
    for i in range(n):
        if i:
            release += rng.uniform(0.0, 120.0)
        tasks.append(
            {"name": f"t{i}", "release": release,
             "deadline": release + rng.uniform(10.0, 120.0),
             "workload": rng.uniform(2000.0, 5000.0)}
        )
    return tasks


def make_request(rng: random.Random, index: int) -> Dict[str, object]:
    """One solve request; ``index`` picks the platform in rotation."""
    n = rng.randint(1, MAX_TASKS)
    if rng.random() < COMMON_RELEASE_SHARE:
        scheme, tasks = "auto", _common_release(rng, n)
    else:
        scheme, tasks = "sdem-on", _sporadic(rng, n)
    return {
        "kind": "solve",
        "scheme": scheme,
        "platform": PLATFORMS[index % len(PLATFORMS)],
        "tasks": tasks,
    }


class RequestSource:
    """Seeded draws from a fixed pool of ``REPEAT_POOL`` requests."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._pool = [make_request(self._rng, i) for i in range(REPEAT_POOL)]

    def take(self, n: int) -> List[Dict[str, object]]:
        return [self._pool[self._rng.randrange(len(self._pool))] for _ in range(n)]


# ---------------------------------------------------------------------------
# One phase at one rate
# ---------------------------------------------------------------------------


@dataclass
class Record:
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: str = "failed"
    queue_ms: float = 0.0
    batch_size: int = 0
    cache: str = ""
    response: Optional[Dict[str, object]] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0 if self.status == "ok" else float("inf")

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1000.0


@dataclass
class Phase:
    rate: float
    records: List[Record]
    wires: List[Dict[str, object]]

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    def latencies(self) -> List[float]:
        """Every attempted request; refused and failed ones as infinity."""
        return [r.latency_ms for r in self.records]

    def lag_p99(self) -> float:
        return pbstats.nearest_rank([r.lag_ms for r in self.records], 99.0)

    def backlog_growth_ms(self) -> float:
        """Median latency of the last quarter minus that of the first."""
        quarter = max(1, len(self.records) // 4)
        ordered = sorted(self.records, key=lambda r: r.due)
        first = pbstats.nearest_rank([r.latency_ms for r in ordered[:quarter]], 50.0)
        last = pbstats.nearest_rank([r.latency_ms for r in ordered[-quarter:]], 50.0)
        return last - first


async def _fire(client: ServiceClient, wire, record: Record, keep: bool) -> None:
    loop = asyncio.get_running_loop()
    try:
        response = await client.request(wire, timeout_ms=REQUEST_TIMEOUT_MS)
    except (RequestTimedOut, ConnectionError, OSError):
        record.done = loop.time()
        record.status = "failed"
        return
    record.done = loop.time()
    if response.get("ok"):
        record.status = "ok"
        record.queue_ms = float(response["timing"]["queue_ms"])
        record.batch_size = int(response["provenance"]["batch_size"])
        record.cache = str(response["provenance"]["cache"])
        if keep:
            record.response = response
    else:
        code = response.get("error", {}).get("code")
        record.status = "refused" if code in REFUSED else "failed"


async def run_phase(
    clients: Sequence[ServiceClient],
    wires: List[Dict[str, object]],
    rate: float,
    seed: int,
    tag: str,
    keep_every: int = 0,
) -> Phase:
    """Send ``wires`` on a seeded Poisson schedule at ``rate`` per second."""
    rng = random.Random(seed)
    offsets, t = [], 0.0
    for _ in wires:
        t += rng.expovariate(rate)
        offsets.append(t)
    loop = asyncio.get_running_loop()
    start = loop.time() + 0.02
    records, tasks = [], []
    for k, wire in enumerate(wires):
        due = start + offsets[k]
        delay = due - loop.time()
        if delay > 0.0:
            await asyncio.sleep(delay)
        record = Record(due=due, sent=loop.time())
        records.append(record)
        wire = dict(wire, id=f"{tag}.{k}")
        keep = keep_every > 0 and k % keep_every == 0
        tasks.append(asyncio.create_task(_fire(clients[k % len(clients)], wire, record, keep)))
    await asyncio.gather(*tasks)
    return Phase(rate=rate, records=records, wires=wires)


async def run_saturated(
    clients: Sequence[ServiceClient], wires: List[Dict[str, object]], window: int, tag: str
) -> float:
    """Closed loop: keep ``window`` requests in flight; answered per second."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(window)
    answered = []

    async def one(k: int, wire) -> None:
        async with slots:
            try:
                response = await clients[k % len(clients)].request(
                    dict(wire, id=f"{tag}.{k}"), timeout_ms=REQUEST_TIMEOUT_MS
                )
            except (RequestTimedOut, ConnectionError, OSError):
                return
        if response.get("ok"):
            answered.append(loop.time())

    start = loop.time()
    await asyncio.gather(*(one(k, wire) for k, wire in enumerate(wires)))
    return len(answered) / (max(answered) - start) if answered else 0.0


# ---------------------------------------------------------------------------
# The server process under test
# ---------------------------------------------------------------------------


class Server:
    """``repro serve`` (or the traced launcher) as a child process."""

    def __init__(self, cache_dir: str, traced: bool = False, spans_path: str = ""):
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path]
        else:
            argv = [sys.executable, "-m", "repro"]
        argv += ["serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", cache_dir]
        # stderr goes to a file: an unread pipe could fill and stall the server.
        self.log_path = cache_dir.rstrip(os.sep) + ".log"
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                argv,
                stdout=subprocess.PIPE,
                stderr=log,
                env=child_env(),
                cwd=os.path.dirname(HERE),
                text=True,
            )
        line = self.proc.stdout.readline()
        if "listening on" not in line:
            self.stop()
            with open(self.log_path, "r", encoding="utf-8") as log:
                raise RuntimeError(f"server did not start: {line!r} {log.read()[-2000:]}")
        self.host, port = line.strip().rsplit(" ", 1)[-1].rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM (the server drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


async def connect(server: Server, count: int) -> List[ServiceClient]:
    clients = [ServiceClient(server.host, server.port) for _ in range(count)]
    for client in clients:
        await client.connect()
        await client.ping()
    return clients


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def work_dir(name: str) -> str:
    path = os.path.join(WORK, name)
    os.makedirs(path, exist_ok=True)
    return path
