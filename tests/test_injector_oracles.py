"""Oracles for the column-wise injectors and the planner's split.

Every injector returns :class:`EventColumns` and ``plan_trace`` splits
the injected events by data center with one mask per shard.  This
module keeps the per-event code they replaced, verbatim, as references:
the four injectors that built one ``RawFailure`` per event (with the
cohort sampler they share) and the split that rewrote each event with
``dataclasses.replace``.  ``RawFailure`` and its conversion
``from_raw`` live in ``tests/event_util.py``.  The tests check that
each shard gets the same events, column by column and in the same
order, that the ground-truth records and the planner's cost estimates
are unchanged, and that the injectors leave the plan's random stream in
the same state — the same draws, in the same order.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import List, Optional, Tuple
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.config import paper_scenario
from repro.core.timeutil import DAY, HOUR, MINUTE, YEAR
from repro.core.types import ComponentClass
from repro.engine.adaptive import INJECTED_EVENT_WEIGHT, estimate_shard_costs
from repro.fleet.fleet import Fleet
from repro.simulation import calibration, trace
from repro.simulation.batch_events import StormRecord, storm_prone_cohorts
from repro.simulation.correlated import InjectionRecord
from tests.event_util import RawFailure, assert_same_columns, from_raw, records


# ----------------------------------------------------------------------
# references: the per-event code, verbatim
# ----------------------------------------------------------------------
def _sample_cohort_failures(
    fleet: Fleet,
    rows: np.ndarray,
    component: ComponentClass,
    n: int,
    start: float,
    window: float,
    forced_type: str,
    tag: str,
    rng: np.random.Generator,
) -> List[RawFailure]:
    """Draw ``n`` failures from a cohort inside [start, start+window),
    component-count weighted, at most one failure per (server, slot).
    Servers not yet deployed at the window start cannot fail."""
    rows = rows[fleet.deployed_ats[rows] <= start]
    if rows.size == 0:
        return []
    counts = fleet.counts_for(component)[rows].astype(float)
    total_slots = int(counts.sum())
    if total_slots == 0:
        return []
    n = min(n, total_slots)
    # Enumerate (row, slot) pairs implicitly and sample without
    # replacement so a slot fails at most once per storm.
    chosen = rng.choice(total_slots, size=n, replace=False)
    cum = np.cumsum(counts)
    row_idx = np.searchsorted(cum, chosen, side="right")
    slot_idx = chosen - np.concatenate(([0], cum[:-1]))[row_idx]
    times = start + rng.uniform(0.0, window, size=n)
    return [
        RawFailure(
            time=float(t),
            server_row=int(rows[r]),
            component=component,
            slot=int(s),
            forced_type=forced_type,
            tag=tag,
            suppress_repeat=True,
        )
        for t, r, s in zip(times, row_idx, slot_idx)
    ]


def inject_batch_events(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], List[StormRecord]]:
    """Generate every storm for one trace.

    Storm *counts* stay fixed (they are rare operational events), storm
    *sizes* scale with the scenario so small test fleets are not wiped
    out by paper-sized storms.
    """
    years = horizon_seconds / YEAR
    events: List[RawFailure] = []
    records: List[StormRecord] = []
    cohorts = storm_prone_cohorts(fleet)
    if not cohorts:
        return events, records
    storm_id = 0

    def record(kind, component, start, window, batch, description):
        nonlocal storm_id
        tag = f"{kind}:{storm_id}"
        storm_id += 1
        events.extend(batch)
        records.append(
            StormRecord(
                tag=tag,
                kind=kind,
                component=component,
                start=start,
                end=start + window,
                n_events=len(batch),
                description=description,
            )
        )
        return tag

    # --- SMART storms (Case 1 style) ---------------------------------
    n_storms = int(rng.poisson(calibration.SMART_STORMS_PER_YEAR * years))
    for _ in range(n_storms):
        rows = cohorts[int(rng.integers(len(cohorts)))]
        size = max(
            3,
            int(
                scale
                * rng.lognormal(
                    np.log(calibration.SMART_STORM_SIZE_MEDIAN),
                    calibration.SMART_STORM_SIZE_SIGMA,
                )
            ),
        )
        window = calibration.SMART_STORM_WINDOW_HOURS * HOUR
        start = float(rng.uniform(0.0, horizon_seconds - window))
        tag = f"smart_storm:{storm_id}"
        batch = _sample_cohort_failures(
            fleet, rows, ComponentClass.HDD, size, start, window,
            "SMARTFail", tag, rng,
        )
        record("smart_storm", ComponentClass.HDD, start, window, batch,
               "homogeneous drive cohort SMART threshold storm")

    # --- the one giant Case 1 storm (21:00 -> 03:00) -----------------
    rows = max(cohorts, key=lambda r: r.size)
    day = int(horizon_seconds / DAY * 0.72)
    start = day * DAY + 21 * HOUR
    window = 6 * HOUR
    size = max(5, int(calibration.CASE1_STORM_SIZE * scale))
    tag = f"smart_storm_case1:{storm_id}"
    batch = _sample_cohort_failures(
        fleet, rows, ComponentClass.HDD, size, start, window,
        "SMARTFail", tag, rng,
    )
    record("smart_storm_case1", ComponentClass.HDD, start, window, batch,
           "Case 1: thousands of drives of one product line, 21:00-03:00")

    # --- correlated flash wear-out (Section III-C) --------------------
    flash_counts = fleet.counts_for(ComponentClass.FLASH_CARD)
    flash_rows_all = np.flatnonzero(flash_counts > 0)
    n_flash_storms = int(rng.poisson(calibration.FLASH_WEAROUT_PER_YEAR * years))
    # Old cohorts wear out together: prefer servers deployed earliest.
    if flash_rows_all.size:
        order = np.argsort(fleet.deployed_ats[flash_rows_all])
        old_flash = flash_rows_all[order[: max(10, flash_rows_all.size // 3)]]
        for _ in range(n_flash_storms):
            size = max(
                3,
                int(scale * rng.lognormal(
                    np.log(calibration.FLASH_WEAROUT_SIZE_MEDIAN), 0.6
                )),
            )
            window = calibration.FLASH_WEAROUT_WINDOW_HOURS * HOUR
            # Wear-out needs age: strike the second half of the horizon.
            start = float(rng.uniform(0.45 * horizon_seconds,
                                      horizon_seconds - window))
            tag = f"flash_wearout:{storm_id}"
            batch = _sample_cohort_failures(
                fleet, old_flash, ComponentClass.FLASH_CARD, size, start,
                window, "HighMaxBbRate", tag, rng,
            )
            record("flash_wearout", ComponentClass.FLASH_CARD, start, window,
                   batch, "same-batch flash cards hitting wear limits together")

    # --- SAS batches (Case 2): two one-hour windows ------------------
    n_sas = max(1, int(round(calibration.SAS_BATCHES_PER_YEAR * years)))
    for _ in range(n_sas):
        rows = cohorts[int(rng.integers(len(cohorts)))]
        size = max(2, int(calibration.SAS_BATCH_SIZE * scale))
        day_start = float(rng.integers(0, max(1, int(horizon_seconds / DAY) - 1))) * DAY
        tag = f"sas_batch:{storm_id}"
        half = size // 2
        batch = _sample_cohort_failures(
            fleet, rows, ComponentClass.MOTHERBOARD, half,
            day_start + 5 * HOUR, HOUR, "SASCardErr", tag, rng,
        )
        batch += _sample_cohort_failures(
            fleet, rows, ComponentClass.MOTHERBOARD, size - half,
            day_start + 16 * HOUR, HOUR, "SASCardErr", tag, rng,
        )
        record("sas_batch", ComponentClass.MOTHERBOARD, day_start + 5 * HOUR,
               12 * HOUR, batch, "Case 2: faulty SAS cards, two 1-hour windows")

    # --- PDU outages (Case 3) -----------------------------------------
    pdu_ids = fleet.pdu_ids
    unique_pdus = np.flatnonzero(np.bincount(pdu_ids))
    n_outages = max(1, int(rng.poisson(calibration.PDU_OUTAGES_PER_YEAR * years)))
    for _ in range(n_outages):
        pdu = int(rng.choice(unique_pdus))
        rows = np.flatnonzero(pdu_ids == pdu)
        if rows.size == 0:
            continue
        # Scale the victim count with the scenario so small test fleets
        # keep the Table II mix (a full-size PDU outage would dominate a
        # tiny trace's power share).
        n_victims = max(3, int(round(rows.size * min(1.0, scale))))
        n_victims = min(n_victims, rows.size)
        rows = rng.choice(rows, size=n_victims, replace=False)
        window = calibration.PDU_OUTAGE_WINDOW_HOURS * HOUR
        day_start = float(rng.integers(0, max(1, int((horizon_seconds - window) / DAY)))) * DAY
        start = day_start + HOUR  # 01:00, per Case 3 (1:00-13:00)
        rows = rows[fleet.deployed_ats[rows] <= start]
        if rows.size == 0:
            continue
        tag = f"pdu_outage:{storm_id}"
        times = start + rng.uniform(0.0, window, size=rows.size)
        batch = [
            RawFailure(
                time=float(t),
                server_row=int(r),
                component=ComponentClass.POWER,
                slot=0,
                forced_type="PSUInputLost",
                tag=tag,
                suppress_repeat=True,
            )
            for t, r in zip(times, rows)
        ]
        record("pdu_outage", ComponentClass.POWER, start, window, batch,
               f"Case 3: single power distribution unit {pdu} outage")

    # --- operator/provider misoperation --------------------------------
    for _ in range(calibration.MISOPERATION_EVENTS):
        size = max(3, int(calibration.MISOPERATION_SIZE * scale))
        dc_idx = int(rng.integers(len(fleet.datacenters)))
        idc_rows = np.flatnonzero(fleet.idc_codes == dc_idx)
        if idc_rows.size == 0:
            continue
        start = float(rng.uniform(0.2, 0.95)) * horizon_seconds
        window = 2 * HOUR
        start = min(start, horizon_seconds - window)
        idc_rows = idc_rows[fleet.deployed_ats[idc_rows] <= start]
        if idc_rows.size == 0:
            continue
        size = min(size, idc_rows.size)
        chosen = rng.choice(idc_rows, size=size, replace=False)
        tag = f"misoperation:{storm_id}"
        times = start + rng.uniform(0.0, window, size=size)
        batch = [
            RawFailure(
                time=float(t),
                server_row=int(r),
                component=ComponentClass.POWER,
                slot=0,
                forced_type="PSUInputLost",
                tag=tag,
                suppress_repeat=True,
            )
            for t, r in zip(times, chosen)
        ]
        record("misoperation", ComponentClass.POWER, start, window, batch,
               "electricity-provider misoperation on a PDU")

    return events, records


def inject_correlated_pairs(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], List[InjectionRecord]]:
    """Materialize the Table VI pair matrix (scaled)."""
    events: List[RawFailure] = []
    records: List[InjectionRecord] = []
    pair_id = 0
    for (cause, effect), paper_count in calibration.CORRELATED_PAIR_COUNTS.items():
        n = int(round(paper_count * scale))
        if paper_count > 0 and scale >= 0.005:
            n = max(1, n)
        if n == 0:
            continue
        eligible = np.flatnonzero(
            (fleet.counts_for(cause) > 0) & (fleet.counts_for(effect) > 0)
        )
        if eligible.size == 0:
            continue
        rows = rng.choice(eligible, size=n, replace=eligible.size < n)
        for row in rows:
            tag = f"corr_pair:{pair_id}"
            pair_id += 1
            earliest = max(0.0, float(fleet.deployed_ats[row]))
            if earliest >= horizon_seconds - DAY:
                continue
            t0 = float(rng.uniform(earliest, horizon_seconds - DAY))
            if cause is ComponentClass.MISC:
                # Operator files the manual ticket after the hardware
                # failure is detected.
                first_cls, second_cls = effect, cause
                gap = float(rng.uniform(10 * MINUTE, 6 * HOUR))
            else:
                first_cls, second_cls = cause, effect
                gap = float(rng.uniform(30.0, 30 * MINUTE))
            for cls, t in ((first_cls, t0), (second_cls, t0 + gap)):
                max_slot = max(1, int(fleet.counts_for(cls)[row]))
                events.append(
                    RawFailure(
                        time=t,
                        server_row=int(row),
                        component=cls,
                        slot=int(rng.integers(max_slot)),
                        tag=tag,
                        suppress_repeat=True,
                    )
                )
            records.append(
                InjectionRecord(
                    tag=tag,
                    kind="correlated_pair",
                    server_rows=(int(row),),
                    n_events=2,
                    description=f"{cause.value} -> {effect.value} on one server",
                )
            )
    return events, records


def inject_flapping_server(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], Optional[InjectionRecord]]:
    """The BBU up-and-down server: >400 RAID/HDD failures in ~a year.

    The chain length scales down with the scenario so tiny test fleets
    are not dominated by a single server, but never below a handful —
    the repeating-failure analyses need at least one clear extreme case.
    """
    # The flap needs a long in-service window, so only servers deployed
    # in the first part of the horizon qualify.
    eligible = np.flatnonzero(
        (fleet.counts_for(ComponentClass.RAID_CARD) > 0)
        & (fleet.deployed_ats < horizon_seconds * 0.35)
    )
    if eligible.size == 0:
        return [], None
    # Prefer an online (web service) line, matching the anecdote.
    online = np.array(
        [fleet.product_lines[name].workload == "online" for name in fleet.line_names]
    )
    online_rows = eligible[online[fleet.line_codes[eligible]]]
    row = int(rng.choice(online_rows if online_rows.size else eligible))

    chain = max(30, int(calibration.BBU_SERVER_CHAIN * scale))
    # Keep the anecdote's cadence (~420 failures over a year, i.e. one
    # flap every ~0.87 days) at every scale: a shorter chain spans a
    # proportionally shorter window.
    span = min(horizon_seconds * 0.5, chain * (YEAR / calibration.BBU_SERVER_CHAIN))
    earliest = max(0.0, float(fleet.deployed_ats[row]))
    start = float(rng.uniform(earliest, max(earliest + 1.0, horizon_seconds - span)))
    start = min(start, horizon_seconds - span)
    # Flap intervals: hours to a couple of days, renormalized to span a
    # year like the anecdote.
    gaps = rng.lognormal(np.log(0.8 * DAY), 0.7, size=chain)
    times = start + np.cumsum(gaps) * (span / gaps.sum())
    hdd_slots = max(1, int(fleet.counts_for(ComponentClass.HDD)[row]))

    tag = "bbu_flap"
    events: List[RawFailure] = []
    for i, t in enumerate(times):
        # Alternate in blocks (not per event) so the RAID and HDD tickets
        # of the flap rarely share a calendar day — the paper reports the
        # server under *repeating* failures, not correlated-component ones.
        if (i // 6) % 3 == 0:
            cls, ftype, slot = ComponentClass.RAID_CARD, "BBUFail", 0
        else:
            # The same two drives behind the flapping controller go up
            # and down, over and over.
            cls, ftype, slot = (
                ComponentClass.HDD,
                "NotReady" if i % 2 else "Missing",
                int(i % min(2, hdd_slots)),
            )
        events.append(
            RawFailure(
                time=float(t),
                server_row=row,
                component=cls,
                slot=slot,
                forced_type=ftype,
                tag=tag,
                chain_id=-1,
                suppress_repeat=True,
            )
        )
    record = InjectionRecord(
        tag=tag,
        kind="bbu_flapping",
        server_rows=(row,),
        n_events=len(events),
        description="BBU root cause; RAID card up-and-down for ~a year",
    )
    return events, record


def inject_synchronous_groups(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[List[RawFailure], List[InjectionRecord]]:
    """Groups of near-identical servers repeating failures in lockstep
    (Table VIII: same product line, same model, same deployment time,
    adjacent racks, same distributed storage system)."""
    n_groups = max(1, int(round(calibration.SYNC_GROUPS * max(scale, 0.1))))
    # Candidate groups: same (idc, product line, generation) cohorts.
    cohorts = [
        rows for rows in fleet.cohorts().values()
        if rows.size >= calibration.SYNC_GROUP_SIZE
    ]
    if not cohorts:
        return [], []
    events: List[RawFailure] = []
    records: List[InjectionRecord] = []
    # The Table VIII sequence: two SMART warnings, four rounds of a
    # repeatedly "fixed" system drive, one late PendingLBA.
    type_sequence = ["SMARTFail", "SMARTFail", *["SixthFixing"] * 4, "PendingLBA"]
    n_steps = min(len(type_sequence), max(3, calibration.SYNC_CHAIN_LENGTH + 1))

    for g in range(n_groups):
        rows = cohorts[int(rng.integers(len(cohorts)))]
        members = rng.choice(rows, size=calibration.SYNC_GROUP_SIZE, replace=False)
        deployed = float(fleet.deployed_ats[members].max())
        lo = max(0.0, deployed)
        hi = max(lo + DAY, horizon_seconds * 0.6)
        start = float(rng.uniform(lo, hi))
        # Step times: days apart at first, then a long gap to the last.
        gaps = np.concatenate(
            [rng.uniform(1 * DAY, 8 * DAY, size=n_steps - 2), [60 * DAY]]
        )
        step_times = start + np.concatenate(([0.0], np.cumsum(gaps)))
        tag = f"sync_group:{g}"
        for step in range(n_steps):
            if step_times[step] >= horizon_seconds:
                break
            ftype = type_sequence[step]
            slot = 0 if ftype == "SixthFixing" else int(rng.integers(1, 9))
            for member in members:
                jitter = float(rng.uniform(0.0, calibration.SYNC_JITTER_SECONDS))
                events.append(
                    RawFailure(
                        time=float(step_times[step]) + jitter,
                        server_row=int(member),
                        component=ComponentClass.HDD,
                        slot=slot,
                        forced_type=ftype,
                        tag=tag,
                        chain_id=g,
                        suppress_repeat=True,
                    )
                )
        records.append(
            InjectionRecord(
                tag=tag,
                kind="synchronous_group",
                server_rows=tuple(int(m) for m in members),
                n_events=n_steps * len(members),
                description="near-identical servers repeating in lockstep",
            )
        )
    return events, records


def split_by_dc(fleet: Fleet, injected: List[RawFailure]) -> List[List[RawFailure]]:
    """``plan_trace``'s split of the injected events by data center."""
    idc_codes = fleet.idc_codes
    n_dcs = len(fleet.datacenters)
    local_pos = np.empty(len(fleet), dtype=np.int64)
    rows_by_dc: List[np.ndarray] = []
    for i in range(n_dcs):
        rows = np.flatnonzero(idc_codes == i)
        local_pos[rows] = np.arange(rows.size)
        rows_by_dc.append(rows)

    injected_by_dc: List[List[RawFailure]] = [[] for _ in range(n_dcs)]
    for event in injected:
        dc = int(idc_codes[event.server_row])
        injected_by_dc[dc].append(
            dataclasses.replace(event, server_row=int(local_pos[event.server_row]))
        )
    return injected_by_dc


def reference_injections(config, fleet: Fleet, rng: np.random.Generator):
    """``plan_trace``'s four injector calls on the references: every
    injected event in plan order, the storm records and the injection
    records."""
    injected: List[RawFailure] = []
    storm_events, storms = inject_batch_events(
        fleet, config.horizon_seconds, config.scale, rng
    )
    injected.extend(storm_events)

    injections: List[InjectionRecord] = []
    pair_events, pair_records = inject_correlated_pairs(
        fleet, config.horizon_seconds, config.scale, rng
    )
    injected.extend(pair_events)
    injections.extend(pair_records)

    flap_events, flap_record = inject_flapping_server(
        fleet, config.horizon_seconds, config.scale, rng
    )
    injected.extend(flap_events)
    if flap_record is not None:
        injections.append(flap_record)

    sync_events, sync_records = inject_synchronous_groups(
        fleet, config.horizon_seconds, config.scale, rng
    )
    injected.extend(sync_events)
    injections.extend(sync_records)
    return injected, storms, injections


# ----------------------------------------------------------------------
# the plan, Hypothesis over scenarios
# ----------------------------------------------------------------------
def plan_with_states(config):
    """``plan_trace(config)`` plus the plan generator's state just
    before the first injector and just after the last one."""
    states = {}
    real_inject, real_monitored = trace.inject_batch_events, trace._monitored_since

    def spy_inject(fleet, horizon_seconds, scale, rng):
        states["before"] = copy.deepcopy(rng.bit_generator.state)
        return real_inject(fleet, horizon_seconds, scale, rng)

    def spy_monitored(n_servers, config, rng):
        states["after"] = copy.deepcopy(rng.bit_generator.state)
        return real_monitored(n_servers, config, rng)

    with mock.patch.object(trace, "inject_batch_events", spy_inject), \
            mock.patch.object(trace, "_monitored_since", spy_monitored):
        plan = trace.plan_trace(config)
    return plan, states["before"], states["after"]


class TestPlan:
    @given(
        scale=st.floats(min_value=0.003, max_value=0.05),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Whole-scenario examples: a failing run stops at the first failing
    # scale/seed instead of shrinking scenarios for minutes.
    @settings(max_examples=20, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate),
              suppress_health_check=[HealthCheck.too_slow])
    def test_shards_get_the_reference_events(self, scale, seed):
        config = paper_scenario(scale=scale, seed=seed)
        plan, before, after = plan_with_states(config)
        rng = np.random.default_rng()
        rng.bit_generator.state = before
        injected, storms, injections = reference_injections(config, plan.fleet, rng)
        assert rng.bit_generator.state == after
        assert plan.storms == storms
        assert plan.injections == injections

        by_dc = split_by_dc(plan.fleet, injected)
        assert len(by_dc) == len(plan.tasks)
        for task, expected in zip(plan.tasks, by_dc):
            assert_same_columns(task.injected._asdict(), from_raw(expected)._asdict())
            assert [vars(e) for e in records(task.injected)] == [vars(e) for e in expected]
        assert estimate_shard_costs(plan.tasks) == tuple(
            float(len(task.rows)) + INJECTED_EVENT_WEIGHT * float(len(expected))
            for task, expected in zip(plan.tasks, by_dc)
        )
