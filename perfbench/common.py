"""Process plumbing shared by run.py and the child processes it starts."""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches, span dumps and child output; removed after a run.
WORK = os.path.join(HERE, "_work")
READY = "perfbench-ready"
#: Set in a child's environment to make it exit right after it is ready.
SETUP_ONLY = "PERFBENCH_SETUP_ONLY"
#: ``setup_s`` is the median of this many set-up-only starts.
SETUP_STARTS = 7


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    # Keep the program's default cache location inside the checkout too.
    env["REPRO_CACHE_DIR"] = os.path.join(WORK, "default-cache")
    return env


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of ``pid`` or of this process, in MB."""
    with open(f"/proc/{pid or 'self'}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid or 'self'}")


def announce_ready() -> None:
    """Child side: tell the parent that imports and set-up are done.

    In a set-up-only start (see :func:`setup_s`) the child exits here.
    """
    print(READY, flush=True)
    if os.environ.get(SETUP_ONLY) == "1":
        sys.exit(0)


def emit(result: Dict[str, object]) -> None:
    """Child side: the one JSON result line the parent reads."""
    print(json.dumps(result), flush=True)


def run_child(script: str, args: List[str], timeout: float) -> Dict[str, object]:
    """Start ``python script args`` and return its JSON result line.

    A child that exits non-zero, times out or prints no result raises
    ``RuntimeError``.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        if line.strip() != READY:
            proc.kill()
            out, err = proc.communicate()
            raise RuntimeError(f"{script} did not start: {line}{out}{err}")
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{script} timed out after {timeout:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{script} printed no result")
    return json.loads(lines[-1])


def setup_s(script: str, args: List[str]) -> float:
    """Median start-until-ready time of :data:`SETUP_STARTS` set-up-only starts."""
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env() | {SETUP_ONLY: "1"},
            cwd=ROOT,
            text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        try:
            _out, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{script} did not exit after set-up") from None
        if line.strip() != READY or proc.returncode != 0:
            raise RuntimeError(f"{script} set-up failed: {line}{err.strip()[-2000:]}")
    return statistics.median(times)


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout need not be a git repository)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py") or name.endswith(".c"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "none"
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def stamp() -> Dict[str, object]:
    """Host and code identity stamped into every run."""
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": commit(),
        "src_sha256": source_digest(),
    }
