"""Self-tuning execution planner: let measured hardware pick the plan.

The sharded trace engine is bit-identical to serial for any worker
count, so *how* to execute is purely a performance decision — and one
that configuration used to make badly (``jobs=4`` on a 1-CPU bench
machine was ~1.3x slower than serial).  This module moves the decision
into the engine:

* :func:`probe_cpu_count` — how many cores this *process* may actually
  use: CPU affinity mask first, then the cgroup CPU quota (containers
  routinely advertise 64 ``os.cpu_count`` cores while capping the
  cgroup at 1), then ``os.cpu_count``.
* :func:`estimate_shard_costs` — per-IDC work estimate from shard row
  counts (servers dominate base-process sampling; injected events add
  linearly).
* :func:`calibrate_seconds_per_unit` — a cheap, cached timing probe
  that anchors abstract cost units to this machine's actual speed.
* :func:`plan_execution` — the decision: serial or a pool, how many
  workers, and in what order shards are dispatched (descending
  estimated cost ≈ longest-processing-time scheduling against the
  pool's shared task queue).

``jobs="auto"`` falls back to serial whenever parallelism cannot pay
for itself — one usable core, a single shard, or a workload whose
estimated serial time is smaller than the pool's own startup cost — so
the auto plan is never slower than serial, including on 1-CPU CI.  The
chosen plan and its reason are recorded in the run's
:class:`~repro.engine.telemetry.PlanDecision`, not printed to stderr.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.telemetry import PlanDecision

if TYPE_CHECKING:
    from repro.simulation.trace import ShardTask

#: Modes a plan can choose.
MODE_SERIAL = "serial"
MODE_PARALLEL = "parallel"

#: Estimated serial runs shorter than this never fork: the pool's own
#: startup would eat the saving.
MIN_PARALLEL_SECONDS = 2.0

#: Parallel must beat serial by this margin in the estimate before the
#: planner commits to it (estimates are rough; prefer the safe plan).
PARALLEL_ADVANTAGE = 0.85

#: Pool cost model, in seconds: one-time startup, per-worker fork cost,
#: per-shard dispatch/result-shipping cost.
POOL_STARTUP_SECONDS = 0.35
PER_WORKER_SECONDS = 0.05
PER_SHARD_SECONDS = 0.03

#: Injected events are cheap relative to base-process sampling over a
#: shard's servers; weight them accordingly in the cost proxy.
INJECTED_EVENT_WEIGHT = 0.1

#: Cost-units one probe-kernel-second corresponds to.  Anchored on the
#: 290k-ticket bench machine: the probe kernel took ~20 ms where serial
#: generation of the ~230k-server fleet took ~20.5 s, i.e. one probe
#: second ≈ 230_000 * 0.02 / 20.5 ≈ 225 server-units of simulation.
UNITS_PER_PROBE_SECOND = 225.0

#: Cgroup CPU-quota files, v2 then v1.
_CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"


@dataclass(frozen=True)
class CpuProbe:
    """Usable-core count plus where the number came from."""

    count: int
    source: str


def _cgroup_quota_cpus() -> Optional[float]:
    """The cgroup CPU quota in fractional CPUs, or ``None`` when
    uncapped/unreadable."""
    try:  # cgroup v2: "<quota> <period>" or "max <period>"
        quota_text, period_text = (
            Path(_CGROUP_V2_CPU_MAX).read_text(encoding="ascii").split()
        )
        if quota_text != "max":
            return float(quota_text) / float(period_text)
        return None
    except (OSError, ValueError):
        pass
    try:  # cgroup v1: quota in us over period in us; -1 means uncapped
        quota = int(Path(_CGROUP_V1_QUOTA).read_text(encoding="ascii"))
        period = int(Path(_CGROUP_V1_PERIOD).read_text(encoding="ascii"))
        if quota > 0 and period > 0:
            return quota / period
    except (OSError, ValueError):
        pass
    return None


def probe_cpu_count() -> CpuProbe:
    """Cores this process may actually use, cgroup- and affinity-aware.

    Mirrors the py3.13 ``os.process_cpu_count`` behaviour on older
    runtimes (affinity mask), then applies the container CPU quota on
    top — a pod pinned to one core must plan like a 1-CPU machine no
    matter what the node's ``os.cpu_count`` says.
    """
    process_count = getattr(os, "process_cpu_count", None)
    if process_count is not None:  # pragma: no cover - py3.13+ only
        count = int(process_count() or 1)
        source = "process_cpu_count"
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
        source = "sched_getaffinity"
    else:  # pragma: no cover - platforms without affinity syscalls
        count = int(os.cpu_count() or 1)
        source = "cpu_count"
    quota = _cgroup_quota_cpus()
    if quota is not None and int(quota) < count:
        count = int(quota)
        source = "cgroup_quota"
    return CpuProbe(count=max(1, count), source=source)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------
def estimate_shard_costs(tasks: Sequence["ShardTask"]) -> Tuple[float, ...]:
    """Per-shard work estimate in abstract *server units*.

    Base-process sampling and the FMS pipeline both scale with the
    shard's server count; injected events (storms, pairs, flaps) add a
    small linear term.  The estimate only needs to rank shards and to
    land the total within an order of magnitude — the plan falls back
    to serial long before a bad estimate could make parallel a loss.
    """
    return tuple(
        float(len(task.rows)) + INJECTED_EVENT_WEIGHT * float(task.injected.times.size)
        for task in tasks
    )


_CALIBRATED_SECONDS_PER_UNIT: Optional[float] = None


def _probe_kernel() -> float:
    """One timed pass of a small, allocation-light numpy workload."""
    rng = np.random.default_rng(0)
    values = rng.standard_normal(1 << 16)
    start = time.perf_counter()
    order = np.argsort(values, kind="stable")
    checksum = float(np.sort(values[order]).sum())
    elapsed = time.perf_counter() - start
    # Consume the result so the work cannot be elided.
    return elapsed if np.isfinite(checksum) else elapsed


def calibrate_seconds_per_unit(*, refresh: bool = False) -> float:
    """Seconds one abstract cost unit costs on *this* machine.

    Runs the probe kernel (best of three, ~tens of milliseconds total)
    once per process and caches the answer; ``refresh=True`` re-probes.
    """
    global _CALIBRATED_SECONDS_PER_UNIT
    if _CALIBRATED_SECONDS_PER_UNIT is None or refresh:
        best = min(_probe_kernel() for _ in range(3))
        _CALIBRATED_SECONDS_PER_UNIT = max(best, 1e-6) / UNITS_PER_PROBE_SECOND
    return _CALIBRATED_SECONDS_PER_UNIT


def _lpt_makespan(costs: Sequence[float], jobs: int) -> float:
    """Longest-processing-time makespan of ``costs`` over ``jobs`` bins."""
    bins = [0.0] * max(1, jobs)
    for cost in sorted(costs, reverse=True):
        bins[bins.index(min(bins))] += cost
    return max(bins)


# ----------------------------------------------------------------------
# the plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionPlan:
    """A committed execution decision for one set of shard tasks.

    ``dispatch_order`` lists task indices in the order they should be
    handed to the pool; under the ``cost`` strategy that is descending
    estimated cost, which approximates LPT scheduling against the
    pool's shared queue.  Results are index-sorted afterwards, so the
    dispatch order never affects output (bit-identity holds by
    construction).
    """

    mode: str
    jobs: int
    dispatch_order: Tuple[int, ...]
    costs: Tuple[float, ...]
    decision: PlanDecision

    @property
    def parallel(self) -> bool:
        return self.mode == MODE_PARALLEL

    def queue_depth_at(self, dispatch_position: int) -> int:
        """Shards still waiting behind the one dispatched at
        ``dispatch_position`` once it starts."""
        return max(0, len(self.dispatch_order) - dispatch_position - self.jobs)


def _requested_label(requested: Union[int, str]) -> str:
    return requested if isinstance(requested, str) else str(int(requested))


def plan_execution(
    tasks: Sequence["ShardTask"],
    *,
    requested: Union[int, str] = "auto",
    shard_strategy: str = "cost",
    probe: Optional[CpuProbe] = None,
    seconds_per_unit: Optional[float] = None,
) -> ExecutionPlan:
    """Decide how to execute ``tasks``: serial, or a pool of N workers.

    ``requested`` is the policy's job request: ``"serial"`` forces
    serial, an ``int`` is an operator override (still degraded to
    serial on a 1-core machine, where a pool can only lose), and
    ``"auto"`` lets the cost model choose.  The returned plan's
    :class:`~repro.engine.telemetry.PlanDecision` records the choice
    and the reason.
    """
    cpu = probe if probe is not None else probe_cpu_count()
    costs = estimate_shard_costs(tasks)
    n_tasks = len(tasks)

    if shard_strategy == "cost":
        order = tuple(
            int(i)
            for i in sorted(range(n_tasks), key=lambda i: (-costs[i], i))
        )
    elif shard_strategy == "count":
        order = tuple(range(n_tasks))
    else:
        raise ValueError(
            f"unknown shard_strategy {shard_strategy!r}; expected 'cost' or 'count'"
        )

    unit = (
        seconds_per_unit
        if seconds_per_unit is not None
        else calibrate_seconds_per_unit()
    )
    est_serial = sum(costs) * unit

    def decide(mode: str, jobs: int, reason: str) -> ExecutionPlan:
        est_parallel = est_serial
        if jobs > 1:
            est_parallel = (
                POOL_STARTUP_SECONDS
                + PER_WORKER_SECONDS * jobs
                + PER_SHARD_SECONDS * n_tasks
                + _lpt_makespan(costs, jobs) * unit
            )
        return ExecutionPlan(
            mode=mode,
            jobs=jobs,
            dispatch_order=order,
            costs=costs,
            decision=PlanDecision(
                requested_jobs=_requested_label(requested),
                mode=mode,
                jobs=jobs,
                reason=reason,
                probed_cpus=cpu.count,
                cpu_source=cpu.source,
                shard_strategy=shard_strategy,
                n_shards=n_tasks,
                estimated_serial_seconds=est_serial,
                estimated_parallel_seconds=est_parallel,
            ),
        )

    if requested == "serial":
        return decide(MODE_SERIAL, 1, "policy requested serial execution")
    if isinstance(requested, int):
        if requested <= 1:
            return decide(MODE_SERIAL, 1, f"policy requested jobs={requested}")
        if n_tasks <= 1:
            return decide(
                MODE_SERIAL, 1,
                f"requested jobs={requested} but the plan has "
                f"{n_tasks} shard(s); nothing to parallelize",
            )
        if cpu.count <= 1:
            return decide(
                MODE_SERIAL, 1,
                f"requested jobs={requested} but only 1 usable CPU "
                f"({cpu.source}); a pool would only add overhead",
            )
        jobs = min(requested, n_tasks)
        return decide(
            MODE_PARALLEL, jobs, f"policy requested jobs={requested}"
        )
    if requested != "auto":
        raise ValueError(
            f"unknown jobs request {requested!r}; expected 'auto', 'serial' "
            "or an int"
        )

    # --- auto -----------------------------------------------------------
    if n_tasks <= 1:
        return decide(MODE_SERIAL, 1, "single shard; nothing to parallelize")
    if cpu.count <= 1:
        return decide(
            MODE_SERIAL, 1,
            f"1 usable CPU ({cpu.source}); a pool would only add overhead",
        )
    if est_serial < MIN_PARALLEL_SECONDS:
        return decide(
            MODE_SERIAL, 1,
            f"estimated serial run {est_serial:.2f}s is below the "
            f"{MIN_PARALLEL_SECONDS:.0f}s parallel payoff threshold",
        )
    jobs = min(cpu.count, n_tasks)
    candidate = decide(
        MODE_PARALLEL, jobs,
        f"estimated parallel win on {cpu.count} CPUs ({cpu.source})",
    )
    if (
        candidate.decision.estimated_parallel_seconds
        > est_serial * PARALLEL_ADVANTAGE
    ):
        return decide(
            MODE_SERIAL, 1,
            f"estimated pool overhead eats the win "
            f"({candidate.decision.estimated_parallel_seconds:.2f}s parallel "
            f"vs {est_serial:.2f}s serial)",
        )
    return candidate


__all__ = [
    "MODE_SERIAL",
    "MODE_PARALLEL",
    "MIN_PARALLEL_SECONDS",
    "CpuProbe",
    "ExecutionPlan",
    "probe_cpu_count",
    "estimate_shard_costs",
    "calibrate_seconds_per_unit",
    "plan_execution",
]
