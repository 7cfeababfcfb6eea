"""Failure prediction — the early-warning tool the paper describes.

Section VII-A: the hardware team "designed a tool to predict component
failures a couple of days early, hoping the operators to react before
the failure actually happens" — and then observes that operators ignore
it.  This module implements such a predictor over the FOT stream and an
evaluation harness, so the trade-off the paper discusses (high-precision
warnings vs. operator attention) can be studied quantitatively.

The predictor is intentionally classic: *warning-type* tickets
(SMARTFail, DIMMCE, HighMaxBbRate, ...) predict a *fatal* failure of the
same component class on the same server within a horizon.  Evaluation
walks the trace in time order, so there is no look-ahead leakage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.columns import COMPONENT_ORDER
from repro.core.dataset import FOTDataset
from repro.core.failure_types import REGISTRY
from repro.core.grouping import composite_key, group_slices
from repro.core.timeutil import DAY


@dataclass(frozen=True)
class Warning_:
    """One emitted prediction: host X will see a fatal ``component``
    failure within ``horizon_days`` of ``issued_at``."""

    host_id: int
    component: str
    issued_at: float
    trigger_fot_id: int


@dataclass(frozen=True)
class PredictionReport:
    """Evaluation of the warning stream against what actually happened."""

    n_warnings: int
    n_hits: int
    n_fatal_failures: int
    n_fatal_covered: int
    mean_lead_days: float

    @property
    def precision(self) -> float:
        """Warnings followed by a fatal failure in the horizon."""
        if self.n_warnings == 0:
            raise ValueError("no warnings were issued")
        return self.n_hits / self.n_warnings

    @property
    def recall(self) -> float:
        """Fatal failures that had a warning in time."""
        if self.n_fatal_failures == 0:
            raise ValueError("no fatal failures to predict")
        return self.n_fatal_covered / self.n_fatal_failures


def warning_types() -> Set[str]:
    """Failure types that are predictive alerts rather than hard stops."""
    return {name for name, entry in REGISTRY.items() if not entry.fatal}


def fatal_types() -> Set[str]:
    return {name for name, entry in REGISTRY.items() if entry.fatal}


def _of_types(view: FOTDataset, names: Set[str]) -> FOTDataset:
    """The rows of ``view`` whose failure type is in ``names``, in order."""
    codes = np.flatnonzero(
        np.array([name in names for name in view.error_type_table], dtype=bool)
    )
    return view.where(np.isin(view.error_type_codes, codes))


def issue_warnings(
    dataset: FOTDataset,
    *,
    min_warnings: int = 1,
    dedup_days: float = 14.0,
) -> List[Warning_]:
    """Emit predictions from warning-type tickets.

    A (host, component) emits a prediction once it has accumulated
    ``min_warnings`` warning tickets; re-warnings within ``dedup_days``
    are suppressed so operators are not spammed (the paper's FMS prides
    itself on low false-alarm noise).
    """
    if min_warnings < 1:
        raise ValueError("min_warnings must be >= 1")
    rows = _of_types(dataset.failures().sorted_by_time(), warning_types())
    counts: Dict[Tuple[int, int], int] = defaultdict(int)
    last_issued: Dict[Tuple[int, int], float] = {}
    out: List[Warning_] = []
    # Each emission depends on counts/last_issued updated by every
    # prior row, so the walk is inherently sequential.
    for host, code, at, fot_id in zip(
        rows.host_ids.tolist(), rows.component_codes.tolist(),
        rows.error_times.tolist(), rows.fot_ids.tolist(),
    ):
        key = (host, code)
        counts[key] += 1
        if counts[key] < min_warnings:
            continue
        prev = last_issued.get(key)
        if prev is not None and at - prev < dedup_days * DAY:
            continue
        last_issued[key] = at
        out.append(
            Warning_(
                host_id=host,
                component=COMPONENT_ORDER[code].value,
                issued_at=at,
                trigger_fot_id=fot_id,
            )
        )
    return out


def evaluate(
    dataset: FOTDataset,
    warnings: Sequence[Warning_],
    *,
    horizon_days: float = 30.0,
) -> PredictionReport:
    """Score a warning stream: did a fatal same-class failure follow?"""
    if horizon_days <= 0:
        raise ValueError("horizon must be positive")
    horizon = horizon_days * DAY
    sub = _of_types(dataset.failures(), fatal_types()).sorted_by_time()
    # Stable grouping over the time-sorted view keeps each group's
    # times ascending, so no per-group sort is needed.
    order, starts, stops = group_slices(
        composite_key(sub.host_ids, sub.component_codes)
    )
    fatal_events: Dict[Tuple[int, str], np.ndarray] = {}
    for start, stop in zip(starts, stops):
        rows = order[start:stop]
        key = (
            int(sub.host_ids[rows[0]]),
            COMPONENT_ORDER[int(sub.component_codes[rows[0]])].value,
        )
        fatal_events[key] = sub.error_times[rows]

    no_times = np.empty(0)
    n_hits = 0
    lead_times: List[float] = []
    covered: Set[Tuple[int, str, float]] = set()
    for warning in warnings:
        times = fatal_events.get(
            (warning.host_id, warning.component), no_times
        )
        idx = int(np.searchsorted(times, warning.issued_at, side="right"))
        hit: Optional[float] = None
        if idx < times.size and times[idx] <= warning.issued_at + horizon:
            hit = float(times[idx])
        if hit is not None:
            n_hits += 1
            lead_times.append(hit - warning.issued_at)
            covered.add((warning.host_id, warning.component, hit))

    n_fatal = int(len(sub))
    mean_lead = (
        sum(lead_times) / len(lead_times) / DAY if lead_times else 0.0
    )
    return PredictionReport(
        n_warnings=len(warnings),
        n_hits=n_hits,
        n_fatal_failures=n_fatal,
        n_fatal_covered=len(covered),
        mean_lead_days=mean_lead,
    )


def predict_and_evaluate(
    dataset: FOTDataset,
    *,
    min_warnings: int = 1,
    horizon_days: float = 30.0,
) -> PredictionReport:
    """Convenience wrapper: issue warnings, then score them."""
    return evaluate(
        dataset,
        issue_warnings(dataset, min_warnings=min_warnings),
        horizon_days=horizon_days,
    )


__all__ = [
    "Warning_",
    "PredictionReport",
    "warning_types",
    "fatal_types",
    "issue_warnings",
    "evaluate",
    "predict_and_evaluate",
]
