"""The base failure process — the bulk of the trace.

Sampling is hierarchical, with each level implementing one observation
from the paper:

* **per server-month intensity** = component count × per-server frailty
  (Fig 7 concentration) × slot-risk multiplier (Fig 8 spatial effects)
  × lifecycle shape at the server's service age (Fig 6);
* **per day** the month's intensity is modulated by the day-of-week
  detection weight (Fig 3) and a lognormal day effect (mean 1) that
  makes daily counts overdispersed (Table V, and the reason no smooth
  distribution fits the TBF in Fig 5);
* **within the day** timestamps follow the class's detection hour
  profile (Fig 4).

Counts are Poisson given the intensity, and the per-class total is
budget-scaled so the realized mix matches Table II.

The sampler is **shard-aware**: :func:`sample_shard_failures` draws the
failures of any server subset (one data center, in the sharded engine)
given the *global* per-class budget scale from
:func:`class_budget_scales` and the *fleet-wide* daily shock series from
:func:`day_effect_series`.  Because daily counts are Poisson, sharding
the fleet and summing per-shard draws leaves the distribution of every
aggregate untouched (Poisson superposition), while the shared day
effects preserve the fleet-wide common shocks behind Table V.
:func:`sample_base_failures` keeps the original whole-fleet signature on
top of the shard-aware core.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.columns import COMPONENT_CODE
from repro.core.timeutil import DAY, MONTH, day_of_week
from repro.core.types import ComponentClass
from repro.fleet.fleet import Fleet
from repro.fms.detectors import DetectionModel
from repro.simulation import calibration
from repro.simulation.events import EventColumns
from repro.simulation.hazards import MAX_MONTH, LifecycleShape, build_shapes

#: Days per simulation month (see :data:`repro.core.timeutil.MONTH`).
_DAYS_PER_MONTH = int(MONTH // DAY)


def draw_frailty(n_servers: int, rng: np.random.Generator) -> np.ndarray:
    """Per-server lognormal frailty multipliers with mean 1.

    A handful of servers end up an order of magnitude more failure-prone
    than the median — the paper's "extremely non-uniform" distribution of
    failures over servers.
    """
    sigma = calibration.FRAILTY_SIGMA
    raw = rng.lognormal(mean=-0.5 * sigma**2, sigma=sigma, size=n_servers)
    return np.minimum(raw, calibration.FRAILTY_CLIP)


def permute_frailty(
    frailty: np.ndarray,
    budgets: Mapping[ComponentClass, float],
    rng: np.random.Generator,
) -> Dict[ComponentClass, np.ndarray]:
    """Per-class frailty vectors: the values of ``frailty`` permuted
    independently per class.

    Frailty is drawn per (class, server): a server with lemon drives
    does not also have lemon DIMMs.  Keeping the *values* and permuting
    per class preserves each class's concentration (Figure 7) while
    keeping cross-class same-day coincidences rare — the paper finds
    genuinely correlated component failures on only 0.49 % of failed
    servers (Table VI).  HDD keeps the base draw (it dominates the
    server-level concentration).
    """
    frailty_by_class = {cls: rng.permutation(frailty) for cls in budgets}
    frailty_by_class[ComponentClass.HDD] = frailty
    return frailty_by_class


def horizon_months(horizon_seconds: float) -> int:
    """Number of (possibly partial) simulation months in the horizon."""
    n_days = int(horizon_seconds // DAY)
    if n_days < _DAYS_PER_MONTH:
        raise ValueError("horizon shorter than one month")
    return (n_days + _DAYS_PER_MONTH - 1) // _DAYS_PER_MONTH  # reprolint: disable=RPL101 -- day count ceil-divided by days-per-month is months by construction


def day_effect_series(
    budgets: Mapping[ComponentClass, float],
    horizon_seconds: float,
    rng: np.random.Generator,
) -> Dict[ComponentClass, np.ndarray]:
    """Fleet-wide lognormal day effects (mean 1) per class and day.

    These are the *common shocks* that overdisperse daily counts
    (Table V); in a sharded run every shard must see the same series,
    so they are drawn once by the planner, not per shard.
    """
    n_days = int(horizon_seconds // DAY)
    out: Dict[ComponentClass, np.ndarray] = {}
    for cls in budgets:
        sigma = calibration.DAY_EFFECT_SIGMA[cls]
        out[cls] = rng.lognormal(-0.5 * sigma**2, sigma, size=n_days)
    return out


def _month_terms(m: int, deployed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """What every class shares in month ``m``, per server: its
    lifecycle-table index (service age in whole months at mid-month,
    clipped to ``0..MAX_MONTH``) and its exposure, the in-service
    fraction of the month — zero for a server not yet deployed at
    mid-month (negative service age).  The deploy month is prorated,
    otherwise mid-month deployments concentrate a full month of hazard
    into half a month of exposure and fake an infant-mortality spike."""
    month_mid = (m + 0.5) * MONTH
    age_months = np.floor((month_mid - deployed) / MONTH)
    in_service = np.clip(((m + 1) * MONTH - deployed) / MONTH, 0.0, 1.0)
    idx = np.clip(age_months, 0, MAX_MONTH).astype(int)
    return idx, np.where(age_months < 0, 0.0, in_service)


def _intensity(static_weight: np.ndarray, shape: LifecycleShape, terms) -> np.ndarray:
    """One class's unnormalized per-server intensity in one month:
    static weight × hazard × exposure (``terms`` from :func:`_month_terms`)."""
    idx, exposure = terms
    return static_weight * shape.table[idx] * exposure


def class_budget_scales(
    deployed: np.ndarray,
    slot_risk: np.ndarray,
    counts_by_class: Mapping[ComponentClass, np.ndarray],
    frailty_by_class: Mapping[ComponentClass, np.ndarray],
    horizon_seconds: float,
    budgets: Mapping[ComponentClass, float],
) -> Dict[ComponentClass, float]:
    """Global budget-to-intensity scale per class.

    ``scale[cls] * lam`` turns the unnormalized per-server intensity
    into an expected failure count whose fleet-wide total matches the
    class budget.  Shards must all use this *global* scale — a per-shard
    renormalization would force every shard to the same mix and erase
    the real cross-DC variation.
    """
    n_months = horizon_months(horizon_seconds)
    shapes = build_shapes()
    static: Dict[ComponentClass, np.ndarray] = {}
    for cls, budget in budgets.items():
        if budget <= 0:
            continue
        weight = (
            counts_by_class[cls].astype(float)
            * frailty_by_class[cls]
            * slot_risk
        )
        if float(weight.sum()) > 0.0:
            static[cls] = weight
    totals = {cls: 0.0 for cls in static}
    for m in range(n_months):
        terms = _month_terms(m, deployed)
        for cls, weight in static.items():
            totals[cls] += float(_intensity(weight, shapes[cls], terms).sum())
    return {
        cls: budgets[cls] / total
        for cls, total in totals.items()
        if total > 0.0
    }


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
) -> EventColumns:
    """Sample the smooth (non-injected) failures of one server subset.

    ``rows`` in the returned events index the *local* arrays
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
        The events in draw order (class by class, then month by month),
        not time-sorted.
    """
    n_servers = int(deployed.size)
    n_days = int(horizon_seconds // DAY)
    n_months = horizon_months(horizon_seconds)
    # (times, rows, class codes, slots) per sampled (class, month), in
    # draw order, after an empty chunk so there is always one.
    chunks: List[Tuple[np.ndarray, ...]] = [
        (np.empty(0), np.empty(0, np.int64), np.empty(0, np.int8), np.empty(0, np.int64))
    ]
    if n_servers == 0:
        return EventColumns.of(*chunks[0])
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
        lam_by_month = [_intensity(static_weight, shape, terms) for terms in months]
        month_totals = np.array([lam.sum() for lam in lam_by_month])
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

            codes = np.full(n_month, COMPONENT_CODE[cls], dtype=np.int8)
            chunks.append((times, rows, codes, slots))
    return EventColumns.of(*map(np.concatenate, zip(*chunks)))


def sample_base_failures(
    fleet: Fleet,
    horizon_seconds: float,
    budgets: Dict[ComponentClass, float],
    frailty: np.ndarray,
    detection: DetectionModel,
    rng: np.random.Generator,
    frailty_by_class: Optional[Dict[ComponentClass, np.ndarray]] = None,
) -> EventColumns:
    """Sample the smooth (non-injected) part of the failure trace for a
    whole fleet — the original single-process entry point, now a thin
    wrapper over the shard-aware core.

    Args:
        fleet: The fleet to fail.
        horizon_seconds: Trace length.
        budgets: Expected number of failures per component class.
        frailty: Per-server multipliers from :func:`draw_frailty`.
        detection: Supplies the temporal detection profiles.
        rng: Random source.
        frailty_by_class: Pre-permuted per-class frailty (optional; drawn
            from ``rng`` via :func:`permute_frailty` when omitted).

    Returns:
        The events in draw order, not time-sorted.
    """
    if frailty.shape != (len(fleet),):
        raise ValueError("frailty must have one entry per server")
    horizon_months(horizon_seconds)  # validates the horizon
    if frailty_by_class is None:
        frailty_by_class = permute_frailty(frailty, budgets, rng)
    counts_by_class = {cls: fleet.counts_for(cls) for cls in budgets}
    day_effects = day_effect_series(budgets, horizon_seconds, rng)
    scales = class_budget_scales(
        fleet.deployed_ats,
        fleet.slot_risk,
        counts_by_class,
        frailty_by_class,
        horizon_seconds,
        budgets,
    )
    return sample_shard_failures(
        deployed=fleet.deployed_ats,
        slot_risk=fleet.slot_risk,
        counts_by_class=counts_by_class,
        frailty_by_class=frailty_by_class,
        horizon_seconds=horizon_seconds,
        scales=scales,
        day_effects=day_effects,
        detection=detection,
        rng=rng,
    )


__all__ = [
    "sample_base_failures",
    "sample_shard_failures",
    "class_budget_scales",
    "day_effect_series",
    "permute_frailty",
    "horizon_months",
    "draw_frailty",
]
