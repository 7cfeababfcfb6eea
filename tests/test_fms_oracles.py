"""Oracles for the column-wise FMS event loop.

``simulate`` samples a shard's failures as columns and walks them
through one FMS loop that merges the repeats it grows.  This module
keeps the per-event code that loop replaced, verbatim, as references:
the discrete-event queue, the ``RawFailure``-returning sampler (with the
month terms and lifecycle lookup it called), the monitoring filter, the
queue-driven ``FMSPipeline`` and ``run_shard``.  ``RawFailure`` itself
lives in ``tests/event_util.py``.
The tests check that the column path returns the same bytes in every
column, the same string tables and counters, and leaves the random
stream in the same state — the same draws, in the same order.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import re
import time
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.config import FleetConfig, paper_scenario
from repro.core.columns import COLUMN_NAMES, TABLE_NAMES, ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY, YEAR, day_of_week
from repro.core.types import ComponentClass, FOTCategory, OperatorAction
from repro.fleet.builder import build_fleet
from repro.fleet.fleet import Fleet
from repro.fms import pipeline as new_pipeline
from repro.fms.detectors import DetectionModel
from repro.fms.operators import OperatorModel
from repro.fms.pipeline import device_detail
from repro.fms.repair import RepairModel
from repro.simulation import base_process, calibration, trace
from repro.core.timeutil import MONTH
from repro.simulation.base_process import _DAYS_PER_MONTH, horizon_months
from repro.simulation.events import EventColumns
from repro.simulation.hazards import MAX_MONTH, build_shapes
from repro.simulation.trace import CHAIN_ID_STRIDE, ShardResult, ShardShared, ShardTask
from tests.event_util import RawFailure, assert_same_columns, from_raw, records


# ----------------------------------------------------------------------
# references: the per-event code, verbatim
# ----------------------------------------------------------------------
class EventQueue:
    """Time-ordered event queue with stable tie-breaking.

    Payloads are opaque; only the scheduling timestamp matters.  Popping
    in the past is impossible by construction; scheduling in the past
    (relative to the last pop) raises, which catches causality bugs in
    event producers early.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._now = float("-inf")

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def now(self) -> float:
        """Timestamp of the most recently popped event."""
        return self._now

    def schedule(self, time: float, payload: Any) -> None:
        """Add an event at ``time``.

        ``time`` may equal the current time (same-timestamp cascades are
        fine) but not precede it.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at {time} — the clock is already at {self._now}"
            )
        heapq.heappush(self._heap, (float(time), next(self._counter), payload))

    def schedule_all(self, events: Iterable[Tuple[float, Any]]) -> None:
        for time, payload in events:
            self.schedule(time, payload)

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the earliest (time, payload)."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, _, payload = heapq.heappop(self._heap)
        self._now = time
        return time, payload

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next event, or ``None`` when empty."""
        return self._heap[0][0] if self._heap else None

    def drain(self) -> Iterator[Tuple[float, Any]]:
        """Iterate (time, payload) in time order until the queue empties.

        New events scheduled *during* iteration are delivered in their
        proper order — this is the property the repeat-failure chains
        rely on.
        """
        while self._heap:
            yield self.pop()


def _month_terms(
    m: int, deployed: np.ndarray
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """What every class shares in month ``m``, per server: whether it is
    not yet deployed at mid-month, its lifecycle-table index (service
    age in whole months, see :meth:`LifecycleShape.at`) and the
    in-service fraction of the month.  The deploy month is prorated,
    otherwise mid-month deployments concentrate a full month of hazard
    into half a month of exposure and fake an infant-mortality spike."""
    month_mid = (m + 0.5) * MONTH
    age_months = np.floor((month_mid - deployed) / MONTH)
    in_service = np.clip(((m + 1) * MONTH - deployed) / MONTH, 0.0, 1.0)
    idx = np.clip(age_months, 0, MAX_MONTH).astype(int)
    return age_months < 0, idx, in_service


def _shape_at(shape, unborn: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``LifecycleShape.at``: hazard at table index ``idx`` (service
    months clipped to ``0..max_month``), zero where ``unborn`` (negative
    months).  Callers that evaluate many shapes at the same months clip
    once."""
    return np.where(unborn, 0.0, shape.table[idx])


def sample_shard_failures(
    *,
    deployed: np.ndarray,
    slot_risk: np.ndarray,
    counts_by_class: Mapping[ComponentClass, np.ndarray],
    frailty_by_class: Mapping[ComponentClass, np.ndarray],
    horizon_seconds: float,
    scales: Mapping[ComponentClass, float],
    day_effects: Mapping[ComponentClass, np.ndarray],
    detection: DetectionModel,
    rng: np.random.Generator,
) -> List[RawFailure]:
    """Sample the smooth (non-injected) failures of one server subset.

    ``server_row`` in the returned events indexes the *local* arrays
    (``deployed`` etc.); the whole-fleet wrapper passes full-length
    arrays so local == global there.

    Args:
        deployed / slot_risk / counts_by_class / frailty_by_class:
            per-server columns of the subset.
        horizon_seconds: Trace length.
        scales: Global per-class budget scales
            (:func:`class_budget_scales`).
        day_effects: Fleet-wide daily shock series
            (:func:`day_effect_series`).
        detection: Supplies the temporal detection profiles.
        rng: The shard's random stream.

    Returns:
        Unordered list of raw failures (callers sort or heapify).
    """
    n_servers = int(deployed.size)
    n_days = int(horizon_seconds // DAY)
    n_months = horizon_months(horizon_seconds)
    events: List[RawFailure] = []
    if n_servers == 0:
        return events
    shapes = build_shapes()

    day_indices = np.arange(n_days)
    dows = day_of_week(day_indices * DAY).astype(int)
    months = [_month_terms(m, deployed) for m in range(n_months)]

    for cls, scale in scales.items():
        shape = shapes[cls]
        counts = counts_by_class[cls].astype(float)
        static_weight = counts * frailty_by_class[cls] * slot_risk
        if float(static_weight.sum()) == 0.0:
            continue

        # Month-resolved per-server intensities (unnormalized).
        lam_by_month = []
        month_totals = np.zeros(n_months)
        for m, (unborn, idx, in_service) in enumerate(months):
            lam = static_weight * _shape_at(shape, unborn, idx) * in_service
            lam_by_month.append(lam)
            month_totals[m] = lam.sum()
        if month_totals.sum() == 0.0:
            continue

        dow_w = detection.dow_weights(cls) * 7.0  # mean 1 over the week
        effect_series = day_effects[cls]

        for m in range(n_months):
            if month_totals[m] == 0.0:
                continue
            d_lo = m * _DAYS_PER_MONTH
            d_hi = min(n_days, d_lo + _DAYS_PER_MONTH)
            days = day_indices[d_lo:d_hi]
            rates = (
                month_totals[m]
                * scale
                / _DAYS_PER_MONTH
                * dow_w[dows[d_lo:d_hi]]
                * effect_series[d_lo:d_hi]
            )
            n_per_day = rng.poisson(rates)
            n_month = int(n_per_day.sum())
            if n_month == 0:
                continue

            lam = lam_by_month[m]
            cum = np.cumsum(lam)
            rows = np.searchsorted(
                cum, rng.random(n_month) * cum[-1], side="right"
            )
            rows = np.minimum(rows, n_servers - 1)

            day_for_event = np.repeat(days, n_per_day)
            tod = detection.sample_time_of_day(cls, n_month, rng)
            times = day_for_event * DAY + tod
            # Month-level age rounding can land an event a few days
            # before its server was racked; respread those uniformly
            # over the server's actual in-service part of the month
            # (clamping them all onto day one would fake an infant-
            # mortality spike).
            month_end = (d_hi) * DAY
            too_early = times < deployed[rows]
            if too_early.any():
                dep = deployed[rows[too_early]]
                times[too_early] = dep + rng.random(
                    int(too_early.sum())
                ) * np.maximum(month_end - dep, 1.0)
            times = np.minimum(times, horizon_seconds - 1.0)

            max_slots = counts[rows].astype(int)
            slots = (rng.random(n_month) * max_slots).astype(int)

            events.extend(
                RawFailure(time=t, server_row=r, component=cls, slot=s)
                for t, r, s in zip(times.tolist(), rows.tolist(), slots.tolist())
            )
    return events


def _filter_monitored(
    events: List[RawFailure], monitored_since: np.ndarray
) -> List[RawFailure]:
    return [
        e
        for e in events
        if e.component is ComponentClass.MISC
        or e.time >= monitored_since[e.server_row]
    ]


class FMSPipeline:
    """Event-driven ticket processing for one scenario."""

    def __init__(
        self,
        fleet: Fleet,
        horizon_seconds: float,
        rng: np.random.Generator,
        lemon_rows: Optional[set] = None,
        detection: Optional[DetectionModel] = None,
        operators: Optional[OperatorModel] = None,
        repair: Optional[RepairModel] = None,
        chain_id_base: int = 0,
    ):
        """``fleet`` holds the servers that ``RawFailure.server_row``
        indexes: the whole fleet, or one data center's
        :meth:`~repro.fleet.fleet.Fleet.take` in the sharded engine.
        ``chain_id_base`` offsets FMS-grown repeat-chain ids so shards of
        one run never collide."""
        self.fleet = fleet
        self.chain_id_base = int(chain_id_base)
        self.horizon = float(horizon_seconds)
        self._rng = rng
        self.lemon_rows = lemon_rows or set()
        self.detection = detection or DetectionModel()
        self.operators = operators or OperatorModel(fleet, rng)
        self.repair = repair or RepairModel(rng)

        # Pre-computed per-class type samplers (cumulative probabilities).
        self._type_names: Dict[ComponentClass, List[str]] = {}
        self._type_cum: Dict[ComponentClass, np.ndarray] = {}
        for cls, mix in calibration.TYPE_MIX.items():
            names = sorted(mix)
            probs = np.asarray([mix[n] for n in names], dtype=float)
            self._type_names[cls] = names
            self._type_cum[cls] = np.cumsum(probs / probs.sum())
        # Fatal types per class, for warning -> fatal escalation.
        from repro.core.failure_types import REGISTRY

        self._fatal_types: Dict[ComponentClass, List[str]] = {}
        for cls, mix in calibration.TYPE_MIX.items():
            self._fatal_types[cls] = [
                name for name in mix if REGISTRY[name].fatal
            ]

        self.stats: Dict[str, int] = {
            "events_in": 0,
            "dropped_beyond_horizon": 0,
            "false_alarms": 0,
            "out_of_warranty": 0,
            "repairs": 0,
            "repeats_scheduled": 0,
            "escalations": 0,
        }

    # ------------------------------------------------------------------
    def _sample_type(self, component: ComponentClass) -> str:
        cum = self._type_cum[component]
        idx = int(np.searchsorted(cum, self._rng.random(), side="right"))
        idx = min(idx, len(self._type_names[component]) - 1)
        return self._type_names[component][idx]

    # ------------------------------------------------------------------
    def run(
        self,
        raw_events: Sequence[RawFailure],
        warranty_seconds: float,
    ) -> FOTDataset:
        """Process every raw failure (plus the repeats they spawn) into
        a time-ordered FOT dataset."""
        return FOTDataset.from_store(self.run_store(raw_events, warranty_seconds))

    def run_store(
        self,
        raw_events: Sequence[RawFailure],
        warranty_seconds: float,
    ):
        """Like :meth:`run` but return the raw
        :class:`~repro.core.columns.ColumnStore` — the sharded engine
        ships these arrays between processes and concatenates once."""
        queue = EventQueue()
        for raw in raw_events:
            queue.schedule(raw.time, raw)

        builder = ColumnBuilder()
        fot_id = 0
        next_chain = self.chain_id_base
        chain_lengths: Dict[int, int] = {}
        fleet = self.fleet
        host_ids = fleet.host_ids.tolist()
        hostnames = fleet.hostnames()
        idcs = fleet.idcs()
        positions = fleet.positions.tolist()
        lines = fleet.lines()
        deployed_ats = fleet.deployed_ats.tolist()

        for time, raw in queue.drain():
            self.stats["events_in"] += 1
            if time >= self.horizon:
                self.stats["dropped_beyond_horizon"] += 1
                continue
            row = raw.server_row
            line = lines[row]
            component = raw.component
            error_type = raw.forced_type or self._sample_type(component)
            source = self.detection.source_for(component)
            is_lemon = row in self.lemon_rows
            detail: Dict[str, object] = {"tag": raw.tag}
            if raw.chain_id is not None:
                detail["chain_id"] = raw.chain_id

            is_false_alarm = (
                not raw.suppress_repeat
                and self._rng.random() < calibration.FALSE_ALARM_RATE
            )
            # Service age, clamped at zero; the warranty covers its
            # last second.
            age = max(0.0, time - deployed_ats[row])
            in_warranty = age <= warranty_seconds

            action: Optional[OperatorAction] = None
            operator_id: Optional[str] = None
            op_time: Optional[float] = None

            if is_false_alarm:
                category = FOTCategory.FALSE_ALARM
                action = OperatorAction.MARK_FALSE_ALARM
                op_time, operator_id = self.operators.close_false_alarm(line, time)
                self.stats["false_alarms"] += 1
            elif not in_warranty:
                # Out-of-warranty: not repaired, set to decommission; the
                # ticket carries no operator-response fields (Table I).
                category = FOTCategory.ERROR
                self.stats["out_of_warranty"] += 1
            else:
                category = FOTCategory.FIXING
                action = OperatorAction.REPAIR_ORDER
                op_time, operator_id = self.operators.close_fixing(
                    component, line, time, age, is_lemon
                )
                self.stats["repairs"] += 1

            builder.append(
                fot_id=fot_id,
                host_id=host_ids[row],
                hostname=hostnames[row],
                host_idc=idcs[row],
                error_device=component,
                error_type=error_type,
                error_time=time,
                error_position=positions[row],
                error_detail=device_detail(component, raw.slot),
                category=category,
                source=source,
                product_line=line,
                deployed_at=deployed_ats[row],
                device_slot=raw.slot,
                action=action,
                operator_id=operator_id,
                op_time=op_time,
                detail=detail,
            )
            fot_id += 1

            # Ineffective repair -> the same failure comes back.
            if (
                category is FOTCategory.FIXING
                and op_time is not None
                and not raw.suppress_repeat
            ):
                if raw.chain_id is not None and raw.chain_id in chain_lengths:
                    chain_id = raw.chain_id
                else:
                    chain_id = next_chain
                    next_chain += 1
                    chain_lengths[chain_id] = 0
                delay = self.repair.repeat_delay(is_lemon, chain_lengths[chain_id])
                if delay is not None:
                    repeat_time = op_time + delay
                    if repeat_time < self.horizon:
                        chain_lengths[chain_id] += 1
                        self.stats["repeats_scheduled"] += 1
                        # A recurring warning often escalates: the SMART
                        # alert that came back becomes a dead drive
                        # (Section III-A: warnings precede fatal
                        # failures — the basis of the team's predictor).
                        repeat_type = error_type
                        fatal_options = self._fatal_types.get(component, [])
                        is_warning = repeat_type not in fatal_options
                        if (
                            is_warning
                            and fatal_options
                            and self._rng.random()
                            < calibration.ESCALATION_PROB
                        ):
                            repeat_type = fatal_options[
                                int(self._rng.integers(len(fatal_options)))
                            ]
                            self.stats["escalations"] += 1
                        queue.schedule(
                            max(repeat_time, time),
                            RawFailure(
                                time=max(repeat_time, time),
                                server_row=row,
                                component=component,
                                slot=raw.slot,
                                forced_type=repeat_type,
                                tag="repeat",
                                chain_id=chain_id,
                            ),
                        )

        return builder.build()


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
    events.extend(records(task.injected))
    if task.monitored_since is not None:
        events = _filter_monitored(events, task.monitored_since)

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
# comparison helpers
# ----------------------------------------------------------------------
def assert_same_result(new: ShardResult, ref: ShardResult) -> None:
    assert (new.index, new.n) == (ref.index, ref.n)
    assert_same_columns(new.arrays, ref.arrays)
    assert new.tables == ref.tables
    assert new.stats == ref.stats


def store_columns(store) -> Dict[str, np.ndarray]:
    return {name: store.column(name) for name in COLUMN_NAMES}


def run_both(fleet, events, *, seed=1, horizon=1000 * DAY, warranty=3.6 * YEAR, **kwargs):
    """Run the column loop on the columns of a ``RawFailure`` list and
    the reference on the list, each with its own generator from ``seed``
    and its own models from the ``kwargs`` factories; assert equal
    columns, tables, counters and final generator state, and return the
    new tickets and counters."""
    stores, stats, states = [], [], []
    for cls, given in ((new_pipeline.FMSPipeline, from_raw(events)), (FMSPipeline, list(events))):
        rng = np.random.default_rng(seed)
        made = {name: make(rng) for name, make in kwargs.items()}
        pipeline = cls(fleet, horizon, rng, **made)
        stores.append(pipeline.run_store(given, warranty))
        stats.append(pipeline.stats)
        states.append(rng.bit_generator.state)
    new, ref = stores
    assert_same_columns(store_columns(new), store_columns(ref))
    assert {n: new.table(n) for n in TABLE_NAMES} == {n: ref.table(n) for n in TABLE_NAMES}
    assert stats[0] == stats[1]
    assert states[0] == states[1]
    return FOTDataset.from_store(new), stats[0]


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(
        FleetConfig(n_datacenters=2, servers_per_dc=60, n_product_lines=6),
        np.random.default_rng(5),
    )


def _young_rows(fleet) -> List[int]:
    """Servers racked before the epoch, in warranty for early failures."""
    return np.flatnonzero((fleet.deployed_ats < 0) & (fleet.deployed_ats > -YEAR)).tolist()


class _CloseAt:
    """Operator stand-in closing every ticket at ``error_time + delta``."""

    def __init__(self, delta: float = 0.0):
        self.delta = delta

    def close_fixing(self, component, line, time, age, is_lemon):
        return time + self.delta, "op"

    def close_false_alarm(self, line, time):
        return time + self.delta, "op"


class _RepeatOnce:
    """Repair stand-in: the first repair of a chain fails again after
    ``delay`` seconds, the second sticks."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay

    def repeat_delay(self, is_lemon, chain_length):
        return self.delay if chain_length == 0 else None


# ----------------------------------------------------------------------
# whole shards, Hypothesis over scenarios
# ----------------------------------------------------------------------
class TestShards:
    @given(
        scale=st.floats(min_value=0.003, max_value=0.02),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rollout_years=st.sampled_from([0.0, 1.5]),
    )
    # Whole-scenario examples: a failing run stops at the first failing
    # scale/seed instead of shrinking scenarios for minutes.
    @settings(max_examples=10, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.too_slow])
    def test_run_shard_matches_reference(self, scale, seed, rollout_years):
        config = dataclasses.replace(
            paper_scenario(scale=scale, seed=seed),
            monitoring_rollout_years=rollout_years,
            monitoring_initial_coverage=0.4,
        )
        plan = trace.plan_trace(config)
        assert (plan.tasks[0].monitored_since is None) == (rollout_years == 0.0)
        for task in plan.tasks:
            # default_rng hands a Generator back unchanged, so each side
            # runs on a generator the test can read afterwards.
            new_rng, ref_rng = (np.random.default_rng(task.seed) for _ in range(2))
            new = trace.run_shard(dataclasses.replace(task, seed=new_rng), plan.shared)
            ref = run_shard(dataclasses.replace(task, seed=ref_rng), plan.shared)
            assert_same_result(new, ref)
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=4, deadline=None)
    def test_sampler_matches_reference(self, seed):
        plan = trace.plan_trace(paper_scenario(scale=0.01, seed=seed))
        shared, task = plan.shared, plan.tasks[seed % len(plan.tasks)]
        fleet = task.fleet
        kwargs = dict(
            deployed=fleet.deployed_ats,
            slot_risk=fleet.slot_risk,
            counts_by_class={cls: fleet.counts_for(cls) for cls in shared.scales},
            frailty_by_class=task.frailty_by_class,
            horizon_seconds=shared.horizon_seconds,
            scales=shared.scales,
            day_effects=shared.day_effects,
            detection=shared.detection,
        )
        new_rng, ref_rng = (np.random.default_rng(task.seed) for _ in range(2))
        new = base_process.sample_shard_failures(rng=new_rng, **kwargs)
        ref = from_raw(sample_shard_failures(rng=ref_rng, **kwargs))
        assert_same_columns(new._asdict(), ref._asdict())
        assert new_rng.bit_generator.state == ref_rng.bit_generator.state


# ----------------------------------------------------------------------
# hand-built event orders
# ----------------------------------------------------------------------
class TestOrder:
    def test_initial_ties_keep_arrival_order(self, fleet):
        rows = _young_rows(fleet)[:30]
        classes = [ComponentClass.HDD, ComponentClass.MEMORY, ComponentClass.POWER]
        events = [
            RawFailure(time=(10 + i % 4) * DAY, server_row=row,
                       component=classes[i % 3], slot=i % 2)
            for i, row in enumerate(rows)
        ]
        ds, _ = run_both(fleet, events, repair=lambda rng: _RepeatOnce(1e12))
        expected = [e.server_row for e in sorted(events, key=lambda e: e.time)]
        assert [t.host_id for t in ds] == fleet.host_ids[expected].tolist()

    def test_repeat_on_pending_initial_events_goes_after_them(self, fleet):
        first, *others = _young_rows(fleet)[:4]
        t = 20 * DAY
        events = [RawFailure(time=t, server_row=first, component=ComponentClass.HDD)]
        events += [
            RawFailure(time=t, server_row=row, component=ComponentClass.FAN,
                       suppress_repeat=True)
            for row in others
        ]
        ds, stats = run_both(
            fleet, events, seed=3, operators=lambda rng: _CloseAt(0.0),
            repair=lambda rng: _RepeatOnce(0.0),
        )
        assert stats["repeats_scheduled"] == 1
        assert [x.error_time for x in ds] == [t] * 5
        assert [x.detail["tag"] for x in ds] == ["base"] * 4 + ["repeat"]
        assert [x.host_id for x in ds] == fleet.host_ids[[first, *others, first]].tolist()

    def test_repeats_at_one_time_keep_scheduling_order(self, fleet):
        rows = _young_rows(fleet)[:3]
        # Closed at 30 days and failing again 5 days later, all three
        # repeats land on 35 days; the initial event at 36 days waits.
        events = [
            RawFailure(time=(10 + i) * DAY, server_row=row, component=ComponentClass.HDD)
            for i, row in enumerate(rows)
        ]
        events.append(RawFailure(time=36 * DAY, server_row=rows[0],
                                 component=ComponentClass.FAN, suppress_repeat=True))

        class CloseAt30(_CloseAt):
            def close_fixing(self, component, line, time, age, is_lemon):
                return max(time, 30 * DAY), "op"

        ds, stats = run_both(
            fleet, events, seed=4, operators=lambda rng: CloseAt30(),
            repair=lambda rng: _RepeatOnce(5 * DAY),
        )
        assert stats["repeats_scheduled"] == 3
        assert [x.error_time / DAY for x in ds] == [10, 11, 12, 35, 35, 35, 36]
        assert [x.host_id for x in ds][3:6] == fleet.host_ids[rows].tolist()
        assert [x.detail.get("chain_id") for x in ds] == [None] * 3 + [0, 1, 2, None]

    def test_no_false_alarm_draw_for_suppressed_events(self, fleet):
        row = _young_rows(fleet)[0]
        events = [
            RawFailure(time=(5 + i) * DAY, server_row=row, component=ComponentClass.HDD,
                       forced_type="SMARTFail", suppress_repeat=True)
            for i in range(50)
        ]
        rng = np.random.default_rng(9)
        pipeline = new_pipeline.FMSPipeline(
            fleet, 1000 * DAY, rng, operators=_CloseAt(60.0), repair=_RepeatOnce(0.0)
        )
        before = rng.bit_generator.state
        ds = pipeline.run(from_raw(events), warranty_seconds=3.6 * YEAR)
        # Forced type and suppressed repeats: no draw at all.
        assert rng.bit_generator.state == before
        assert {x.category for x in ds} == {FOTCategory.FIXING}
        run_both(fleet, events, operators=lambda rng: _CloseAt(60.0))


class TestEventKinds:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mixed_events_match_reference(self, fleet, seed):
        """Horizon drops, forced types, suppressed repeats, injected
        chain ids (some colliding with FMS-grown ones), lemons and
        out-of-warranty servers, with the real operator and repair
        models."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        classes = list(ComponentClass)
        events = [
            RawFailure(
                time=float(rng.choice([rng.uniform(0, 400 * DAY), rng.integers(0, 40) * DAY])),
                server_row=int(rng.integers(len(fleet))),
                component=classes[int(rng.integers(len(classes)))],
                slot=int(rng.integers(0, 30)),
                forced_type=None if rng.random() < 0.7 else "SMARTFail",
                tag=str(rng.choice(["base", "storm", "pair"])),
                chain_id=None if rng.random() < 0.7 else int(rng.integers(0, 6)),
                suppress_repeat=bool(rng.random() < 0.3),
            )
            for _ in range(n)
        ]
        lemons = set(rng.choice(len(fleet), size=10, replace=False).tolist())
        _, stats = run_both(
            fleet, events, seed=seed, horizon=300 * DAY, warranty=2 * YEAR,
            lemon_rows=lambda rng: lemons,
        )
        assert stats["events_in"] >= n

    def test_horizon_drop_draws_nothing(self, fleet):
        events = [RawFailure(time=(500 + i) * DAY, server_row=i, component=ComponentClass.HDD)
                  for i in range(5)]
        rng = np.random.default_rng(2)
        pipeline = new_pipeline.FMSPipeline(fleet, 400 * DAY, rng, operators=_CloseAt())
        before = rng.bit_generator.state
        assert pipeline.run_store(from_raw(events), 3.6 * YEAR).n == 0
        assert pipeline.stats["dropped_beyond_horizon"] == pipeline.stats["events_in"] == 5
        assert rng.bit_generator.state == before

    def test_columns_and_raw_lists_give_the_same_store(self, fleet):
        rows = _young_rows(fleet)[:20]
        events = [RawFailure(time=(3 + i) * DAY, server_row=row, component=ComponentClass.CPU,
                             tag="pair", chain_id=i if i % 3 else None)
                  for i, row in enumerate(rows)]
        stores = []
        for pipeline_cls, given_events in (
            (FMSPipeline, events), (new_pipeline.FMSPipeline, from_raw(events))
        ):
            rng = np.random.default_rng(6)
            stores.append(pipeline_cls(fleet, 500 * DAY, rng).run_store(given_events, 3.6 * YEAR))
        assert_same_columns(store_columns(stores[0]), store_columns(stores[1]))


class TestChecks:
    @pytest.mark.parametrize(
        "times,rows",
        [([1.0, -2.5, 3.0], [0, 1, 2]), ([1.0, 2.0], [0, -4]), ([-1.0, 2.0], [3, -4]),
         ([0.0, 2.0], [-1, -4])],
    )
    def test_bad_column_raises_the_raw_failure_message(self, times, rows):
        expected = None
        for t, r in zip(times, rows):
            try:
                RawFailure(time=t, server_row=r, component=ComponentClass.HDD)
            except ValueError as exc:
                expected = str(exc)
                break
        assert expected is not None
        n = len(times)
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            EventColumns.of(
                np.asarray(times), np.asarray(rows, dtype=np.int64),
                np.zeros(n, dtype=np.int8), np.zeros(n, dtype=np.int64),
            )

    def test_sampled_defaults(self):
        events = EventColumns.of(
            np.array([2.0, 1.0]), np.array([0, 1]), np.array([0, 4], dtype=np.int8),
            np.array([3, 0]),
        )
        assert events.forced_types.tolist() == [None, None]
        assert events.tags.tolist() == ["base", "base"]
        assert events.chain_ids.tolist() == [None, None]
        assert events.suppress.tolist() == [False, False]

    def test_scalars_stand_for_every_event(self):
        events = EventColumns.of([2.0, 1.0], 7, 4, [3, 0], "SMARTFail", "sync_group:2", 2, True)
        expected = [RawFailure(t, 7, ComponentClass.MEMORY, s, "SMARTFail", "sync_group:2", 2, True)
                    for t, s in ((2.0, 3), (1.0, 0))]
        assert_same_columns(events._asdict(), from_raw(expected)._asdict())
