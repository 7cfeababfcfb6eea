"""Batch-failure (storm) injectors — Section V-A of the paper.

Four mechanisms, one per observed cause:

* **SMART storms** (Case 1): a homogeneous drive cohort (same model,
  same cluster, same product line) reports a burst of ``SMARTFail``
  tickets within a few hours — shared firmware/design flaw triggered by
  a common condition.  One giant instance reproduces the 21:00-03:00
  storm that hit 32 % of a product line's servers.
* **SAS batches** (Case 2): ~50 motherboards fail in two one-hour
  windows, all traced to faulty SAS cards.
* **PDU outages** (Case 3): a hidden single point of failure — every
  server fed by one power distribution unit reports a power failure
  within half a day.
* **Misoperation**: an electricity-provider mistake takes out hundreds
  of servers at once (the August 2016 anecdote).

Every injected failure carries a ``tag`` naming its storm, so validation
tests and the case-study benchmark can recover ground truth.  Each
injector returns its failures as one :class:`EventColumns`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.columns import COMPONENT_CODE
from repro.core.timeutil import DAY, HOUR, YEAR
from repro.core.types import ComponentClass
from repro.fleet.component import generation
from repro.fleet.fleet import Fleet
from repro.simulation import calibration
from repro.simulation.events import NO_EVENTS, EventColumns

_POWER = COMPONENT_CODE[ComponentClass.POWER]


@dataclass(frozen=True)
class StormRecord:
    """Ground truth for one injected batch event."""

    tag: str
    kind: str
    component: ComponentClass
    start: float
    end: float
    n_events: int
    description: str


def storm_prone_cohorts(fleet: Fleet) -> List[np.ndarray]:
    """The homogeneous cohorts storms strike.

    Preference order: storage-heavy generations owned by batch product
    lines (the Hadoop clusters of Section V-A), largest first; falls
    back to the largest cohorts outright when the fleet is too small to
    have storage-heavy batch cohorts.
    """
    cohorts = fleet.cohorts()
    scored: List[Tuple[int, Tuple[str, str, str], np.ndarray]] = []
    for key, rows in cohorts.items():
        _, line_name, gen_name = key
        line = fleet.product_line(line_name)
        gen_heavy = generation(gen_name).storage_heavy
        bonus = 2 if (line.is_batch and gen_heavy) else 0
        scored.append((bonus * 10_000_000 + rows.size, key, rows))
    scored.sort(key=lambda item: item[0], reverse=True)
    top = scored[: calibration.STORM_PRONE_COHORTS]
    return [rows for _, _, rows in top]


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
) -> EventColumns:
    """Draw ``n`` failures from a cohort inside [start, start+window),
    component-count weighted, at most one failure per (server, slot).
    Servers not yet deployed at the window start cannot fail."""
    rows = rows[fleet.deployed_ats[rows] <= start]
    if rows.size == 0:
        return NO_EVENTS
    counts = fleet.counts_for(component)[rows].astype(float)
    total_slots = int(counts.sum())
    if total_slots == 0:
        return NO_EVENTS
    n = min(n, total_slots)
    # Enumerate (row, slot) pairs implicitly and sample without
    # replacement so a slot fails at most once per storm.
    chosen = rng.choice(total_slots, size=n, replace=False)
    cum = np.cumsum(counts)
    row_idx = np.searchsorted(cum, chosen, side="right")
    slot_idx = chosen - np.concatenate(([0], cum[:-1]))[row_idx]
    times = start + rng.uniform(0.0, window, size=n)
    return EventColumns.of(
        times, rows[row_idx], COMPONENT_CODE[component], slot_idx, forced_type, tag,
        suppress=True,
    )


def inject_batch_events(
    fleet: Fleet,
    horizon_seconds: float,
    scale: float,
    rng: np.random.Generator,
) -> Tuple[EventColumns, List[StormRecord]]:
    """Generate every storm for one trace.

    Storm *counts* stay fixed (they are rare operational events), storm
    *sizes* scale with the scenario so small test fleets are not wiped
    out by paper-sized storms.
    """
    years = horizon_seconds / YEAR
    batches: List[EventColumns] = [NO_EVENTS]
    records: List[StormRecord] = []
    cohorts = storm_prone_cohorts(fleet)
    if not cohorts:
        return NO_EVENTS, records
    storm_id = 0

    def record(kind, component, start, window, batch, description):
        nonlocal storm_id
        tag = f"{kind}:{storm_id}"
        storm_id += 1
        batches.append(batch)
        records.append(
            StormRecord(
                tag=tag,
                kind=kind,
                component=component,
                start=start,
                end=start + window,
                n_events=batch.times.size,
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
        batch = EventColumns.concatenate([
            _sample_cohort_failures(
                fleet, rows, ComponentClass.MOTHERBOARD, n, day_start + hour * HOUR, HOUR,
                "SASCardErr", tag, rng,
            )
            for n, hour in ((half, 5), (size - half, 16))
        ])
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
        batch = EventColumns.of(
            start + rng.uniform(0.0, window, size=rows.size), rows, _POWER, 0, "PSUInputLost",
            tag, suppress=True,
        )
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
        batch = EventColumns.of(
            start + rng.uniform(0.0, window, size=size), chosen, _POWER, 0, "PSUInputLost",
            tag, suppress=True,
        )
        record("misoperation", ComponentClass.POWER, start, window, batch,
               "electricity-provider misoperation on a PDU")

    return EventColumns.concatenate(batches), records


__all__ = ["StormRecord", "inject_batch_events", "storm_prone_cohorts"]
