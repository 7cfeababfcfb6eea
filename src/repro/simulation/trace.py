"""Top-level trace generation, sharded by data center.

:func:`generate_trace` wires the whole substrate together in three
phases that together form the execution engine's unit of work:

1. **plan** (:func:`plan_trace`) — build the fleet, the operator model
   and every fleet-wide random input (frailty, lemons, budget scales,
   daily common shocks, injected storms/pairs/flaps/sync groups,
   monitoring rollout), then split the fleet into one
   :class:`ShardTask` per data center.  Every shard gets its own child
   seed from a :class:`numpy.random.SeedSequence` spawn tree rooted at
   the scenario seed.
2. **execute** (:func:`run_shard`) — sample the shard's base failures,
   merge in its injected events, and run its FMS pipeline; each shard
   returns raw :class:`~repro.core.columns.ColumnStore` arrays.
3. **assemble** (:func:`finish_trace`) — concatenate the shard stores
   once, time-sort, renumber ticket ids, and bundle the result.

Because a shard is *always* one data center — ``jobs`` only decides how
many worker processes execute them — the sharded output is bit-identical
to the serial output for the same scenario seed.  Fleet-wide couplings
survive sharding by construction: the per-class budget scale and the
daily lognormal shocks are computed once in the plan and shared by all
shards (Poisson superposition keeps every aggregate's distribution
intact), and the operator model's per-line behaviour tables are drawn
once and cloned per shard with :meth:`OperatorModel.with_rng`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.config import ScenarioConfig, paper_scenario
from repro.core.columns import COLUMN_NAMES, COMPONENT_CODE, TABLE_NAMES, ColumnBuilder, ColumnStore
from repro.core.dataset import FOTDataset
from repro.core.timeutil import YEAR
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.fleet.fleet import Fleet
from repro.fleet.inventory import Inventory
from repro.fms.detectors import DetectionModel
from repro.fms.operators import OperatorModel
from repro.fms.pipeline import FMSPipeline
from repro.fms.repair import RepairModel
from repro.simulation import calibration
from repro.simulation.base_process import (
    class_budget_scales,
    day_effect_series,
    draw_frailty,
    permute_frailty,
    sample_shard_failures,
)
from repro.simulation.batch_events import StormRecord, inject_batch_events
from repro.simulation.correlated import (
    InjectionRecord,
    inject_correlated_pairs,
    inject_flapping_server,
    inject_synchronous_groups,
)
from repro.simulation.events import EventColumns

if TYPE_CHECKING:
    from repro.engine.policy import ExecutionPolicy
    from repro.engine.telemetry import RunTelemetry

#: FMS-grown repeat chains of shard *i* are numbered from
#: ``i * CHAIN_ID_STRIDE`` so chain ids stay globally unique.
CHAIN_ID_STRIDE = 1_000_000_000


@dataclass
class SyntheticTrace:
    """A generated trace plus everything needed to analyze it.

    Attributes:
        dataset: The FOTs, time-ordered.  Built columnar by the FMS
            pipeline (``ColumnBuilder``) — no ``FOT`` objects are
            allocated unless the trace is iterated ticket-by-ticket.
        fleet: The fleet's server table.
        inventory: Per-server metadata table (analysis denominators).
        config: The scenario that produced the trace.
        storms: Ground truth of injected batch events.
        injections: Ground truth of correlated/repeat injections.
        fms_stats: Pipeline counters (events in, repeats scheduled, ...),
            summed over shards.
        telemetry: The run's structured execution telemetry (plan
            decision, per-stage and per-shard timings); ``None`` for
            traces assembled outside :func:`generate_trace`.
            Observational only — never part of the dataset content.
    """

    dataset: FOTDataset
    fleet: Fleet
    inventory: Inventory
    config: ScenarioConfig
    storms: List[StormRecord] = field(default_factory=list)
    injections: List[InjectionRecord] = field(default_factory=list)
    fms_stats: Dict[str, int] = field(default_factory=dict)
    telemetry: Optional["RunTelemetry"] = None

    @property
    def horizon_seconds(self) -> float:
        return self.config.horizon_seconds


def _class_budgets(config: ScenarioConfig) -> Dict[ComponentClass, float]:
    """Expected base-process failures per class: the Table II mix times
    the target volume, minus the share reserved for injectors and
    FMS-grown repeats."""
    target = config.scaled_target_failures
    return {
        cls: target * share * calibration.BASE_BUDGET_FACTOR[cls]
        for cls, share in calibration.COMPONENT_MIX.items()
    }


def _monitored_since(
    n_servers: int, config: ScenarioConfig, rng: np.random.Generator
) -> Optional[np.ndarray]:
    """Per-server monitored-since times, or ``None`` without a rollout.

    Models the paper's Section VII-C limitation: agent coverage ramps
    from ``monitoring_initial_coverage`` to 1.0 linearly over
    ``monitoring_rollout_years``, and each server gets a monitored-since
    time consistent with that ramp.  :func:`run_shard` drops automatic
    detections before it (nobody saw them); manual miscellaneous reports
    survive (humans do not need agents).
    """
    if config.monitoring_rollout_years <= 0:
        return None
    c0 = config.monitoring_initial_coverage
    ramp_seconds = config.monitoring_rollout_years * YEAR
    u = rng.random(n_servers)
    return np.where(
        u < c0,
        0.0,
        ramp_seconds * (u - c0) / max(1.0 - c0, 1e-12),
    )


# ----------------------------------------------------------------------
# plan
# ----------------------------------------------------------------------
@dataclass
class ShardShared:
    """Fleet-wide inputs every shard reads (one object, shared)."""

    horizon_seconds: float
    warranty_seconds: float
    scales: Dict[ComponentClass, float]
    day_effects: Dict[ComponentClass, np.ndarray]
    detection: DetectionModel
    operators: OperatorModel


@dataclass
class ShardTask:
    """Everything one data-center shard needs, self-contained so a
    worker process can execute it without the whole fleet."""

    index: int
    idc: str
    rows: np.ndarray  # global server rows of this DC, ascending
    fleet: Fleet  # this DC's servers: the fleet's columns at ``rows``
    frailty_by_class: Dict[ComponentClass, np.ndarray]
    lemon_local: Tuple[int, ...]
    monitored_since: Optional[np.ndarray]
    injected: EventColumns  # rows already shard-local
    seed: np.random.SeedSequence


@dataclass
class ShardResult:
    """One executed shard: raw columns plus pipeline counters.

    ``wall_seconds``/``cpu_seconds`` time the shard's own execution
    (measured inside :func:`run_shard`, so they are per-worker under a
    pool).  Telemetry only — the trace content never depends on them.
    """

    index: int
    n: int
    arrays: Dict[str, np.ndarray]
    tables: Dict[str, Tuple[str, ...]]
    stats: Dict[str, int]
    wall_seconds: float = 0.0
    cpu_seconds: float = 0.0


@dataclass
class TracePlan:
    """The planned run: fleet-wide state plus one task per data center."""

    config: ScenarioConfig
    fleet: Fleet
    shared: ShardShared
    tasks: List[ShardTask]
    storms: List[StormRecord]
    injections: List[InjectionRecord]


def plan_trace(config: ScenarioConfig) -> TracePlan:
    """Phase 1: build the fleet and all fleet-wide random state, then
    split the run into one :class:`ShardTask` per data center.

    The seed tree is spawned from ``SeedSequence(config.seed)``:
    children 0-2 seed the fleet builder, the operator model and the
    global stream (frailty, lemons, day effects, injections, rollout);
    children 3.. seed one shard each.  Identical for any ``jobs``.
    """
    root = np.random.SeedSequence(config.seed)
    fleet_seed, model_seed, global_seed = root.spawn(3)

    fleet = build_fleet(config.scaled_fleet(), np.random.default_rng(fleet_seed))
    detection = DetectionModel()
    operators = OperatorModel(fleet, np.random.default_rng(model_seed))

    grng = np.random.default_rng(global_seed)
    frailty = draw_frailty(len(fleet), grng)
    n_lemons = max(1, int(round(calibration.LEMON_FRACTION * len(fleet))))
    lemon_rows = np.sort(grng.choice(len(fleet), size=n_lemons, replace=False))

    budgets = _class_budgets(config)
    frailty_by_class = permute_frailty(frailty, budgets, grng)
    day_effects = day_effect_series(budgets, config.horizon_seconds, grng)

    storm_events, storms = inject_batch_events(
        fleet, config.horizon_seconds, config.scale, grng
    )
    pair_events, injections = inject_correlated_pairs(
        fleet, config.horizon_seconds, config.scale, grng
    )
    flap_events, flap_record = inject_flapping_server(
        fleet, config.horizon_seconds, config.scale, grng
    )
    if flap_record is not None:
        injections.append(flap_record)
    sync_events, sync_records = inject_synchronous_groups(
        fleet, config.horizon_seconds, config.scale, grng
    )
    injections.extend(sync_records)
    injected = EventColumns.concatenate([storm_events, pair_events, flap_events, sync_events])

    monitored_since = _monitored_since(len(fleet), config, grng)

    counts_by_class = {cls: fleet.counts_for(cls) for cls in budgets}
    scales = class_budget_scales(
        fleet.deployed_ats,
        fleet.slot_risk,
        counts_by_class,
        frailty_by_class,
        config.horizon_seconds,
        budgets,
    )

    shared = ShardShared(
        horizon_seconds=config.horizon_seconds,
        warranty_seconds=config.fleet.warranty_years * YEAR,
        scales=scales,
        day_effects=day_effects,
        detection=detection,
        operators=operators,
    )

    # ------------------------------------------------------------------
    # split by data center
    # ------------------------------------------------------------------
    idc_codes = fleet.idc_codes
    n_dcs = len(fleet.datacenters)
    local_pos = np.empty(len(fleet), dtype=np.int64)
    rows_by_dc: List[np.ndarray] = []
    for i in range(n_dcs):
        rows = np.flatnonzero(idc_codes == i)
        local_pos[rows] = np.arange(rows.size)
        rows_by_dc.append(rows)

    # Each shard's injected events keep plan order (storms, then pairs,
    # flap and sync groups): the FMS breaks time ties by it.
    injected_dcs = idc_codes[injected.rows]
    injected = injected._replace(rows=local_pos[injected.rows])

    lemon_dcs = idc_codes[lemon_rows]
    shard_seeds = root.spawn(n_dcs)
    tasks: List[ShardTask] = []
    for i, dc in enumerate(fleet.datacenters):
        rows = rows_by_dc[i]
        tasks.append(
            ShardTask(
                index=i,
                idc=dc.name,
                rows=rows,
                fleet=fleet.take(rows),
                frailty_by_class={
                    cls: values[rows] for cls, values in frailty_by_class.items()
                },
                lemon_local=tuple(local_pos[lemon_rows[lemon_dcs == i]].tolist()),
                monitored_since=(
                    None if monitored_since is None else monitored_since[rows]
                ),
                injected=injected.take(injected_dcs == i),
                seed=shard_seeds[i],
            )
        )

    return TracePlan(
        config=config,
        fleet=fleet,
        shared=shared,
        tasks=tasks,
        storms=storms,
        injections=injections,
    )


# ----------------------------------------------------------------------
# execute
# ----------------------------------------------------------------------
def run_shard(task: ShardTask, shared: ShardShared) -> ShardResult:
    """Phase 2: execute one data-center shard.

    Deterministic given (task, shared): the shard rng comes from the
    task's spawned seed, so results do not depend on which process (or
    in which order) shards run.
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rng = np.random.default_rng(task.seed)
    fleet = task.fleet
    events = sample_shard_failures(
        deployed=fleet.deployed_ats,
        slot_risk=fleet.slot_risk,
        counts_by_class={cls: fleet.counts_for(cls) for cls in shared.scales},
        frailty_by_class=task.frailty_by_class,
        horizon_seconds=shared.horizon_seconds,
        scales=shared.scales,
        day_effects=shared.day_effects,
        detection=shared.detection,
        rng=rng,
    )
    events = EventColumns.concatenate([events, task.injected])
    if task.monitored_since is not None:
        events = events.take(
            (events.components == COMPONENT_CODE[ComponentClass.MISC])
            | (events.times >= task.monitored_since[events.rows])
        )

    pipeline = FMSPipeline(
        fleet,
        shared.horizon_seconds,
        rng,
        lemon_rows=set(task.lemon_local),
        detection=shared.detection,
        operators=shared.operators.with_rng(rng),
        repair=RepairModel(rng),
        chain_id_base=task.index * CHAIN_ID_STRIDE,
    )
    store = pipeline.run_store(events, shared.warranty_seconds)
    return ShardResult(
        index=task.index,
        n=store.n,
        arrays={name: store.column(name) for name in COLUMN_NAMES},
        tables={name: store.table(name) for name in TABLE_NAMES},
        stats=dict(pipeline.stats),
        wall_seconds=time.perf_counter() - wall0,
        cpu_seconds=time.process_time() - cpu0,
    )


# ----------------------------------------------------------------------
# assemble
# ----------------------------------------------------------------------
def assemble_store(results: Sequence[ShardResult]) -> ColumnStore:
    """Phase 3a: merge shard columns into one time-ordered store.

    Shards are concatenated in index order (so the sort is reproducible
    regardless of completion order), stable-sorted by error time, and
    ticket ids renumbered 0..n-1 over the merged trace.
    """
    ordered = sorted(results, key=lambda r: r.index)
    parts = []
    for r in ordered:
        if r.n == 0:
            continue
        store = ColumnStore.from_columns(r.n, dict(r.arrays), dict(r.tables))
        parts.append((store, np.arange(r.n, dtype=np.int64)))
    if not parts:
        return ColumnBuilder().build()
    merged = ColumnStore.concatenate(parts)
    order = np.argsort(merged.column("error_times"), kind="stable")
    arrays: Dict[str, np.ndarray] = {}
    for name in COLUMN_NAMES:
        if name == "fot_ids":
            arrays[name] = np.arange(merged.n, dtype=np.int64)
        else:
            arrays[name] = merged.column(name)[order]
    tables = {name: merged.table(name) for name in TABLE_NAMES}
    return ColumnStore.from_columns(merged.n, arrays, tables)


def finish_trace(plan: TracePlan, results: Sequence[ShardResult]) -> SyntheticTrace:
    """Phase 3b: bundle assembled shard results into a trace."""
    stats: Dict[str, int] = {}
    for r in results:
        for key, value in r.stats.items():
            stats[key] = stats.get(key, 0) + value
    store = assemble_store(results)
    return SyntheticTrace(
        dataset=FOTDataset.from_store(store),
        fleet=plan.fleet,
        inventory=plan.fleet.to_inventory(),
        config=plan.config,
        storms=plan.storms,
        injections=plan.injections,
        fms_stats=stats,
    )


def generate_trace(
    config: ScenarioConfig,
    jobs: Optional[Union[int, str]] = None,
    *,
    policy: Optional["ExecutionPolicy"] = None,
) -> SyntheticTrace:
    """Generate one synthetic four-year trace from a scenario config.

    Execution is planned by :func:`repro.engine.adaptive.plan_execution`
    from the policy's ``jobs`` request (default ``"auto"``): the
    planner probes usable cores, estimates per-shard cost, and runs the
    per-DC shards either in-process or on a sized process pool.  Every
    plan produces bit-identical output for the same scenario seed, so
    the choice is purely about speed — and ``"auto"`` falls back to
    serial whenever a pool could not pay for itself (one usable core, a
    single shard, or a workload below the payoff threshold).  The
    chosen plan, the reason, and per-stage/per-shard timings are
    recorded on ``trace.telemetry`` (and the policy's telemetry sink).

    ``jobs`` is the positional shorthand for
    ``policy=ExecutionPolicy(jobs=...)``; pass one or the other.
    """
    from repro.engine.adaptive import plan_execution
    from repro.engine.policy import ExecutionPolicy, coerce_jobs
    from repro.engine.telemetry import (
        KIND_TRACE,
        RunTelemetry,
        ShardTelemetry,
        StageTiming,
    )

    if policy is None:
        policy = ExecutionPolicy(
            jobs="auto" if jobs is None else coerce_jobs(jobs)
        )
    elif jobs is not None:
        raise ValueError("pass either jobs= or policy=, not both")

    wall0, cpu0 = time.perf_counter(), time.process_time()
    plan = plan_trace(config)
    xplan = plan_execution(
        plan.tasks,
        requested=policy.jobs,
        shard_strategy=policy.shard_strategy,
    )
    plan_wall = time.perf_counter() - wall0
    plan_cpu = time.process_time() - cpu0

    wall1, cpu1 = time.perf_counter(), time.process_time()
    if xplan.parallel:
        from repro.engine.parallel import run_shards

        results = run_shards(
            plan.tasks, plan.shared, jobs=xplan.jobs,
            order=xplan.dispatch_order,
        )
    else:
        results = [run_shard(task, plan.shared) for task in plan.tasks]
    execute_wall = time.perf_counter() - wall1
    execute_cpu = time.process_time() - cpu1

    wall2, cpu2 = time.perf_counter(), time.process_time()
    trace = finish_trace(plan, results)
    assemble_wall = time.perf_counter() - wall2
    assemble_cpu = time.process_time() - cpu2

    position_of = {
        index: pos for pos, index in enumerate(xplan.dispatch_order)
    }
    trace.telemetry = RunTelemetry(
        kind=KIND_TRACE,
        plan=xplan.decision,
        stages=(
            StageTiming("plan", plan_wall, plan_cpu),
            StageTiming("execute", execute_wall, execute_cpu),
            StageTiming("assemble", assemble_wall, assemble_cpu),
            StageTiming(
                "total",
                plan_wall + execute_wall + assemble_wall,
                plan_cpu + execute_cpu + assemble_cpu,
            ),
        ),
        shards=tuple(
            ShardTelemetry(
                index=result.index,
                idc=plan.tasks[result.index].idc,
                n_servers=len(plan.tasks[result.index].rows),
                n_tickets=result.n,
                estimated_cost=xplan.costs[result.index],
                dispatch_order=position_of[result.index],
                queue_depth=xplan.queue_depth_at(position_of[result.index]),
                wall_seconds=result.wall_seconds,
                cpu_seconds=result.cpu_seconds,
            )
            for result in sorted(results, key=lambda r: r.index)
        ),
    )
    policy.record(trace.telemetry)
    return trace


def generate_paper_trace(
    scale: float = 1.0,
    seed: int = 20170626,
    jobs: Optional[Union[int, str]] = None,
    *,
    policy: Optional["ExecutionPolicy"] = None,
) -> SyntheticTrace:
    """Generate the calibrated paper scenario (optionally scaled down).

    ``scale=1.0`` yields ~290k FOTs over ~230k servers in 24 data
    centers; ``scale=0.05`` is a comfortable laptop-sized trace with the
    same per-server statistics.
    """
    return generate_trace(
        paper_scenario(scale=scale, seed=seed), jobs, policy=policy
    )


__all__ = [
    "SyntheticTrace",
    "TracePlan",
    "ShardTask",
    "ShardShared",
    "ShardResult",
    "CHAIN_ID_STRIDE",
    "plan_trace",
    "run_shard",
    "assemble_store",
    "finish_trace",
    "generate_trace",
    "generate_paper_trace",
]
