"""Optimal SDEM schemes for common-release-time tasks (paper Section 4).

Both regimes share one geometric picture: all tasks are released at a common
instant (normalized to 0 below, shifted back on output), each runs on its own
core, and the memory sleeps for a single period of length ``Delta`` at the
*right end* of the maximal interval ``I``.  Choosing ``Delta`` trades core
energy (larger ``Delta`` squeezes the aligned tasks to higher speed) against
memory leakage (larger ``Delta`` means less memory-awake time).  The paper
partitions the ``Delta`` axis into ``n`` cases at the breakpoints
``delta_i`` and minimizes the per-case convex energy in closed form.

``alpha = 0`` (Section 4.1)
    Breakpoints ``delta_i = d_n - d_i``.  In Case ``i`` tasks ``1..i-1``
    run at their filled speed and tasks ``i..n`` are *aligned*: stretched
    over ``[0, |I| - Delta]``.  The per-case optimum is Eq. (4); the global
    optimum can be located by a linear scan (Theorem 2) or a binary search
    over cases (Lemma 1, giving O(n log n) total).

``alpha != 0`` (Section 4.2)
    Every task has a *critical speed* ``s_0 = min(max(s_m, s_f), s_up)``;
    run alone it would finish at ``c_i = w_i / s_0``.  Breakpoints are
    ``delta_i = |I| - c_i`` with ``|I| = c_n = max c``.  In Case ``i``
    tasks with ``c_j < |I| - Delta`` keep their critical speed (their core
    then sleeps); the rest are aligned.  The per-case optimum is Eq. (8);
    Theorem 3 scans all ``n`` cases (O(n^2) naively, O(n) here thanks to
    prefix/suffix sums after the O(n log n) sort).

The returned solution carries both the paper's *predicted* energy (the
closed-form value) and a concrete :class:`~repro.schedule.timeline.Schedule`
that the generic accountant prices to the same number -- the test suite
asserts that equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Literal, Optional, Tuple

from repro.core import vectorized
from repro.models.platform import Platform
from repro.models.task import Task, TaskSet
from repro.schedule.timeline import ExecutionInterval, Schedule
from repro.utils.solvers import record_solver_call

__all__ = [
    "CommonReleaseSolution",
    "solve_common_release",
    "solve_common_release_alpha_zero",
    "solve_common_release_alpha_nonzero",
]

_INF = float("inf")


@dataclass(frozen=True)
class CommonReleaseSolution:
    """Result of a Section 4 scheme.

    Attributes
    ----------
    tasks:
        The (deadline- or completion-sorted) input task set.
    release:
        The common release instant (original time axis).
    interval_end:
        End of the maximal interval ``I`` on the original axis:
        ``release + d_n`` in the ``alpha = 0`` regime,
        ``release + c_n`` when ``alpha != 0``.
    delta:
        Optimal memory sleep length at the right of ``I`` (ms).
    case_index:
        1-based paper case the optimum fell in (``i`` such that
        ``delta_i <= Delta < delta_{i-1}``).
    finish_times:
        Task name -> completion instant on the original time axis.
    speeds:
        Task name -> constant execution speed (MHz).
    predicted_energy:
        System energy in uJ per the paper's closed forms (memory active
        exactly while some core runs; cores/memory sleep for free).
    alpha_zero:
        Which regime produced this solution.
    """

    tasks: TaskSet
    release: float
    interval_end: float
    delta: float
    case_index: int
    finish_times: Dict[str, float]
    speeds: Dict[str, float]
    predicted_energy: float
    alpha_zero: bool

    @property
    def memory_busy_length(self) -> float:
        """``|I| - Delta``: how long the memory must stay awake."""
        return (self.interval_end - self.release) - self.delta

    def schedule(self) -> Schedule:
        """Materialize the solution: one task per core, started at release."""
        placements = []
        for task in self.tasks:
            end = self.finish_times[task.name]
            speed = self.speeds[task.name]
            placements.append(
                ExecutionInterval(task.name, self.release, end, speed)
            )
        return Schedule.one_task_per_core(placements)


def _prepare_common_release(tasks: TaskSet) -> float:
    """Validate the common-release precondition and return the release."""
    if not tasks.has_common_release():
        raise ValueError(
            "Section 4 schemes require a common release time; got releases "
            f"{sorted(set(tasks.releases()))}"
        )
    return tasks[0].release


# ---------------------------------------------------------------------------
# Section 4.1: alpha = 0
# ---------------------------------------------------------------------------


def solve_common_release_alpha_zero(
    tasks: TaskSet,
    platform: Platform,
    *,
    method: Literal["scan", "binary"] = "scan",
) -> CommonReleaseSolution:
    """Optimal scheme for common-release tasks with negligible core static
    power (paper Section 4.1, Theorem 2 / Lemma 1).

    ``method='scan'`` walks all ``n`` cases (linear after sorting);
    ``method='binary'`` binary-searches them using the paper's
    valid / just-fit / invalid classification.  Both return the same
    solution; the scan is the test suite's reference for the search.
    """
    record_solver_call("common_release")
    core = platform.core
    alpha_m = platform.memory.alpha_m
    release = _prepare_common_release(tasks)
    if not tasks.is_feasible_at(core.s_up):
        raise ValueError("task set infeasible even at s_up")

    n = len(tasks)
    # Relative deadlines on the normalized axis (release = 0).
    deadlines = [t.deadline - release for t in tasks]
    workloads = [t.workload for t in tasks]
    horizon = deadlines[-1]  # |I| = d_n

    if method == "scan":
        delta_opt, energy_opt, case_idx = _scan_alpha_zero_numpy(
            deadlines, workloads, horizon, core, alpha_m
        )
        return _build_alpha_zero_solution(
            tasks, platform, release, horizon, delta_opt, energy_opt, case_idx
        )
    if method != "binary":
        raise ValueError(f"unknown method {method!r}")

    # delta_i = d_n - d_i for i in 1..n (1-based); delta_0 = +inf.
    delta_bp = [_INF] + [horizon - d for d in deadlines]
    lam = core.lam
    beta = core.beta

    # Prefix energy of filled-speed tasks: prefix[i] = sum_{j<=i} w^lam d_j^(1-lam)
    prefix = [0.0] * (n + 1)
    for j in range(1, n + 1):
        prefix[j] = prefix[j - 1] + workloads[j - 1] ** lam * deadlines[j - 1] ** (
            1.0 - lam
        )
    # Suffix power sum: suffix[i] = sum_{j>=i} w_j^lam (1-based i).
    suffix = [0.0] * (n + 2)
    for j in range(n, 0, -1):
        suffix[j] = suffix[j + 1] + workloads[j - 1] ** lam
    # Suffix max workload for the speed cap on aligned tasks.
    suffix_max_w = [0.0] * (n + 2)
    for j in range(n, 0, -1):
        suffix_max_w[j] = max(suffix_max_w[j + 1], workloads[j - 1])

    def case_energy(i: int, delta: float) -> float:
        """Total energy of Case i at sleep length ``delta``."""
        busy = horizon - delta
        return (
            alpha_m * busy
            + beta * prefix[i - 1]
            + beta * suffix[i] * busy ** (1.0 - lam)
        )

    def case_extreme(i: int) -> float:
        """Unconstrained minimizer Delta_mi of Case i (paper Eq. (4)).

        With ``alpha_m = 0`` sleeping is worthless and the energy is
        decreasing in the busy length, so the stationary point degenerates
        to ``-inf`` (every case clamps to its lower boundary).
        """
        if alpha_m == 0.0:
            return -_INF
        return horizon - (beta * (lam - 1.0) * suffix[i] / alpha_m) ** (1.0 / lam)

    def case_bounds(i: int) -> Tuple[float, float]:
        """Feasible Delta range of Case i, tightened by the speed cap."""
        lo = delta_bp[i]
        hi = delta_bp[i - 1]
        cap = horizon - suffix_max_w[i] / core.s_up
        return lo, min(hi, cap)

    delta_opt, energy_opt, case_idx = _binary_search_cases(
        n, case_extreme, case_bounds, case_energy, delta_bp
    )
    return _build_alpha_zero_solution(
        tasks, platform, release, horizon, delta_opt, energy_opt, case_idx
    )


def _scan_alpha_zero_numpy(
    deadlines: List[float],
    workloads: List[float],
    horizon: float,
    core,
    alpha_m: float,
) -> Tuple[float, float, int]:
    """Theorem 2's case scan with every per-case quantity batched.

    Array transcription of the per-case formulas the binary search walks:
    the prefix/suffix accumulation order matches (``cumsum`` is
    sequential), each case's energy/extreme expression is written in the
    same operation order, and the selection rule is a first-strict-win
    walk -- so both methods return the same case away from
    1e-12-degenerate ties.
    """
    np = vectorized.np
    lam, beta = core.lam, core.beta
    n = len(workloads)
    d = np.asarray(deadlines, dtype=np.float64)
    w = np.asarray(workloads, dtype=np.float64)
    wlam = w ** lam
    # prefix[i] at index i (0..n); suffix/suffix_max at index i-1 (i = 1..n).
    prefix = np.concatenate(([0.0], np.cumsum(wlam * d ** (1.0 - lam))))
    suffix = np.cumsum(wlam[::-1])[::-1]
    suffix_max_w = np.maximum.accumulate(w[::-1])[::-1]
    delta_bp = horizon - d
    lo = delta_bp
    hi = np.minimum(
        np.concatenate(([_INF], delta_bp[:-1])),
        horizon - suffix_max_w / core.s_up,
    )
    if alpha_m == 0.0:
        extreme = np.full(n, -_INF)
    else:
        extreme = horizon - (beta * (lam - 1.0) * suffix / alpha_m) ** (1.0 / lam)
    delta = np.minimum(np.maximum(extreme, lo), hi)
    busy = horizon - delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        energy = (
            alpha_m * busy + beta * prefix[:-1] + beta * suffix * busy ** (1.0 - lam)
        )
    best: Optional[Tuple[float, float, int]] = None
    rows = zip((hi >= lo).tolist(), delta.tolist(), energy.tolist())
    for index, (feasible, delta_i, energy_i) in enumerate(rows):
        if not feasible:
            continue
        if best is None or energy_i < best[1] - 1e-12:
            best = (delta_i, energy_i, index + 1)
    if best is None:  # pragma: no cover - guarded by feasibility check
        raise RuntimeError("no feasible case found")
    return best


def _binary_search_cases(
    n: int,
    case_extreme,
    case_bounds,
    case_energy,
    delta_bp: List[float],
) -> Tuple[float, float, int]:
    """Lemma 1's binary search over cases.

    Classification of Case ``i`` against its Delta domain
    ``[delta_i, delta_{i-1})`` (speed-capped):

    * *valid* -- the (capped) extreme value lies inside: answer found;
    * *just-fit* -- it lies below ``delta_i``: the optimum wants a smaller
      ``Delta``, so search the higher-index half (Cases i..n);
    * *invalid* -- it lies at/above ``delta_{i-1}``: search Cases 1..i.

    Every probed boundary candidate is recorded, so if the search exits
    without a valid case the best boundary (the just-fit solution the lemma
    names) is returned.
    """
    lo_case, hi_case = 1, n
    best: Optional[Tuple[float, float, int]] = None

    def consider(delta: float, energy: float, i: int) -> None:
        nonlocal best
        if best is None or energy < best[1] - 1e-12:
            best = (delta, energy, i)

    while lo_case <= hi_case:
        i = (lo_case + hi_case) // 2
        lo, hi = case_bounds(i)
        if hi < lo:
            # Speed-infeasible: Delta must shrink -> higher case indices.
            lo_case = i + 1
            continue
        extreme = case_extreme(i)
        capped = min(max(extreme, lo), hi)
        consider(capped, case_energy(i, capped), i)
        if extreme < delta_bp[i]:
            # just-fit: optimum wants smaller Delta.
            lo_case = i + 1
        elif extreme >= delta_bp[i - 1]:
            # invalid: optimum wants larger Delta.
            hi_case = i - 1
        else:
            # valid (possibly speed-capped): unique global optimum.
            return capped, case_energy(i, capped), i
    if best is None:
        raise RuntimeError("no feasible case found")
    return best


def _build_alpha_zero_solution(
    tasks: TaskSet,
    platform: Platform,
    release: float,
    horizon: float,
    delta: float,
    energy: float,
    case_idx: int,
) -> CommonReleaseSolution:
    busy_end_rel = horizon - delta
    finish: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for task in tasks:
        d_rel = task.deadline - release
        end_rel = min(d_rel, busy_end_rel)
        finish[task.name] = release + end_rel
        speeds[task.name] = task.workload / end_rel
    return CommonReleaseSolution(
        tasks=tasks,
        release=release,
        interval_end=release + horizon,
        delta=delta,
        case_index=case_idx,
        finish_times=finish,
        speeds=speeds,
        predicted_energy=energy,
        alpha_zero=True,
    )


# ---------------------------------------------------------------------------
# Section 4.2: alpha != 0
# ---------------------------------------------------------------------------


def solve_common_release_alpha_nonzero(
    tasks: TaskSet,
    platform: Platform,
) -> CommonReleaseSolution:
    """Optimal scheme for common-release tasks with non-negligible core
    static power (paper Section 4.2, Theorem 3).

    Tasks are first priced at their critical speed ``s_0``; the case scan
    over the completion-time breakpoints then finds the sleep length
    ``Delta`` balancing the aligned cores + memory against the
    critical-speed cores.  The reported ``predicted_energy`` is the *total*
    system energy: the paper's Eq. (7) omits the (case-dependent) constant
    contributed by the critical-speed tasks, which must be added back when
    comparing across cases.
    """
    record_solver_call("common_release")
    core = platform.core
    if core.alpha <= 0.0:
        raise ValueError("alpha must be positive; use the alpha=0 scheme")
    release = _prepare_common_release(tasks)
    if not tasks.is_feasible_at(core.s_up):
        raise ValueError("task set infeasible even at s_up")
    return _solve_alpha_nonzero_numpy(tasks, platform, release)


def _solve_alpha_nonzero_scalar(
    tasks: TaskSet, platform: Platform, release: float
) -> CommonReleaseSolution:
    """Theorem 3's case scan as a per-case loop: the scalar reference the
    tests pin :func:`_solve_alpha_nonzero_numpy` against."""
    core = platform.core
    alpha, alpha_m = core.alpha, platform.memory.alpha_m
    lam, beta = core.lam, core.beta
    # Sort by completion time at critical speed (paper's indexing).
    order = sorted(tasks, key=lambda t: t.workload / core.s0(t))
    n = len(order)
    s0 = [core.s0(t) for t in order]
    completion = [t.workload / s for t, s in zip(order, s0)]
    workloads = [t.workload for t in order]
    horizon = completion[-1]  # |I|^(alpha) = c_n

    delta_bp = [_INF] + [horizon - c for c in completion]

    # prefix_fixed[i] = sum_{j <= i} (beta s0_j^lam + alpha) * c_j
    prefix_fixed = [0.0] * (n + 1)
    for j in range(1, n + 1):
        prefix_fixed[j] = prefix_fixed[j - 1] + (
            beta * s0[j - 1] ** lam + alpha
        ) * completion[j - 1]
    suffix_wlam = [0.0] * (n + 2)
    suffix_max_w = [0.0] * (n + 2)
    for j in range(n, 0, -1):
        suffix_wlam[j] = suffix_wlam[j + 1] + workloads[j - 1] ** lam
        suffix_max_w[j] = max(suffix_max_w[j + 1], workloads[j - 1])

    def case_energy(i: int, delta: float) -> float:
        busy = horizon - delta
        aligned = n - i + 1
        return (
            (aligned * alpha + alpha_m) * busy
            + beta * suffix_wlam[i] * busy ** (1.0 - lam)
            + prefix_fixed[i - 1]
        )

    def case_extreme(i: int) -> float:
        aligned = n - i + 1
        return horizon - (
            beta * (lam - 1.0) * suffix_wlam[i] / (aligned * alpha + alpha_m)
        ) ** (1.0 / lam)

    best: Optional[Tuple[float, float, int]] = None
    for i in range(1, n + 1):
        lo = delta_bp[i]
        cap = horizon - suffix_max_w[i] / core.s_up
        hi = min(delta_bp[i - 1], cap)
        if hi < lo:
            # Some aligned task would exceed s_up everywhere in this case
            # (Theorem 3: "skip and go to the next case").
            continue
        delta = min(max(case_extreme(i), lo), hi)
        energy = case_energy(i, delta)
        if best is None or energy < best[1] - 1e-12:
            best = (delta, energy, i)
    if best is None:  # pragma: no cover - guarded by feasibility check
        raise RuntimeError("no feasible case found")
    delta_opt, energy_opt, case_idx = best

    busy_end_rel = horizon - delta_opt
    finish: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for task, c, s in zip(order, completion, s0):
        if c <= busy_end_rel + 1e-12:
            finish[task.name] = release + c
            speeds[task.name] = s
        else:
            finish[task.name] = release + busy_end_rel
            speeds[task.name] = task.workload / busy_end_rel
    return CommonReleaseSolution(
        tasks=tasks,
        release=release,
        interval_end=release + horizon,
        delta=delta_opt,
        case_index=case_idx,
        finish_times=finish,
        speeds=speeds,
        predicted_energy=energy_opt,
        alpha_zero=False,
    )


def _solve_alpha_nonzero_numpy(
    tasks: TaskSet, platform: Platform, release: float
) -> CommonReleaseSolution:
    """Theorem 3's case scan, batched over all ``n`` cases at once.

    Same transcription discipline as :func:`_scan_alpha_zero_numpy`: the
    critical speeds, completion order (stable argsort matches the stable
    sort of :func:`_solve_alpha_nonzero_scalar`), prefix/suffix accumulations and per-case expressions all
    reproduce the scalar operation order.
    """
    np = vectorized.np
    core = platform.core
    alpha, alpha_m = core.alpha, platform.memory.alpha_m
    lam, beta = core.lam, core.beta
    arr = vectorized.block_arrays(tasks)
    s0_all = vectorized.critical_speeds(arr, platform)
    completion_all = arr.workloads / s0_all
    perm = np.argsort(completion_all, kind="stable")
    completion = completion_all[perm]
    s0 = s0_all[perm]
    w = arr.workloads[perm]
    n = int(w.shape[0])
    horizon = float(completion[-1])  # |I|^(alpha) = c_n

    delta_bp = horizon - completion
    prefix_fixed = np.concatenate(
        ([0.0], np.cumsum((beta * s0 ** lam + alpha) * completion))
    )
    suffix_wlam = np.cumsum((w ** lam)[::-1])[::-1]
    suffix_max_w = np.maximum.accumulate(w[::-1])[::-1]
    aligned = np.arange(n, 0, -1, dtype=np.float64)  # n - i + 1 for i = 1..n

    lo = delta_bp
    hi = np.minimum(
        np.concatenate(([_INF], delta_bp[:-1])),
        horizon - suffix_max_w / core.s_up,
    )
    static = aligned * alpha + alpha_m
    extreme = horizon - (beta * (lam - 1.0) * suffix_wlam / static) ** (1.0 / lam)
    delta = np.minimum(np.maximum(extreme, lo), hi)
    busy = horizon - delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        energy = (
            static * busy
            + beta * suffix_wlam * busy ** (1.0 - lam)
            + prefix_fixed[:-1]
        )
    best: Optional[Tuple[float, float, int]] = None
    rows = zip((hi >= lo).tolist(), delta.tolist(), energy.tolist())
    for index, (feasible, delta_i, energy_i) in enumerate(rows):
        if not feasible:
            continue
        if best is None or energy_i < best[1] - 1e-12:
            best = (delta_i, energy_i, index + 1)
    if best is None:  # pragma: no cover - guarded by feasibility check
        raise RuntimeError("no feasible case found")
    delta_opt, energy_opt, case_idx = best

    busy_end_rel = horizon - delta_opt
    order = [tasks[int(k)] for k in perm.tolist()]
    finish: Dict[str, float] = {}
    speeds: Dict[str, float] = {}
    for task, c, s in zip(order, completion.tolist(), s0.tolist()):
        if c <= busy_end_rel + 1e-12:
            finish[task.name] = release + c
            speeds[task.name] = s
        else:
            finish[task.name] = release + busy_end_rel
            speeds[task.name] = task.workload / busy_end_rel
    return CommonReleaseSolution(
        tasks=tasks,
        release=release,
        interval_end=release + horizon,
        delta=delta_opt,
        case_index=case_idx,
        finish_times=finish,
        speeds=speeds,
        predicted_energy=energy_opt,
        alpha_zero=False,
    )


def solve_common_release(
    tasks: TaskSet,
    platform: Platform,
    *,
    method: Literal["scan", "binary"] = "scan",
) -> CommonReleaseSolution:
    """Dispatch to the ``alpha = 0`` or ``alpha != 0`` scheme."""
    if platform.core.alpha == 0.0:
        return solve_common_release_alpha_zero(tasks, platform, method=method)
    return solve_common_release_alpha_nonzero(tasks, platform)
