"""Batch failures — Table V and the Section V-A case studies.

The paper quantifies batch failures with the relative frequency

    r_N = (#days with >= N failures of a class) / D

over the D days of the trace, for N in {100, 200, 500}; batch HDD
failures turn out to be *common* (r_500 = 2.5 %: 35 of 1411 days saw
500+ drive failures).  This module computes r_N, daily count series, and
detects individual batch events (a burst of same-class failures within
a short window) the way an operator would, without access to the
simulator's ground-truth tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import FOTDataset
from repro.core.grouping import distinct
from repro.core.timeutil import HOUR, day_index
from repro.core.types import ComponentClass
from repro.robustness.quality import InsufficientDataError

#: The thresholds Table V reports.
TABLE_V_THRESHOLDS: Tuple[int, ...] = (100, 200, 500)


def daily_counts(
    dataset: FOTDataset,
    component: Optional[ComponentClass] = None,
    n_days: Optional[int] = None,
) -> np.ndarray:
    """Failures per trace day, optionally for one component class."""
    failures = dataset.failures()
    if component is not None:
        failures = failures.of_component(component)
    if n_days is None:
        if len(dataset) == 0:
            raise InsufficientDataError("empty dataset and no n_days given")
        n_days = int(day_index(dataset.error_times.max())) + 1
    if len(failures) == 0:
        return np.zeros(n_days)
    days = day_index(failures.error_times).astype(int)
    return np.bincount(days, minlength=n_days).astype(float)[:n_days]


def batch_frequency(counts: Sequence[float], threshold: int) -> float:
    """r_N for one daily-count series: fraction of days with >= N
    failures."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("empty daily-count series")
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return float((counts >= threshold).mean())


def batch_failure_frequency(
    dataset: FOTDataset,
    thresholds: Sequence[int] = TABLE_V_THRESHOLDS,
    n_days: Optional[int] = None,
) -> Dict[ComponentClass, Dict[int, float]]:
    """Table V: r_N per component class for each threshold."""
    if n_days is None:
        if len(dataset) == 0:
            raise InsufficientDataError("empty dataset")
        n_days = int(day_index(dataset.error_times.max())) + 1
    out: Dict[ComponentClass, Dict[int, float]] = {}
    for cls in ComponentClass:
        counts = daily_counts(dataset, cls, n_days)
        out[cls] = {
            int(n): batch_frequency(counts, int(n)) for n in thresholds
        }
    return out


@dataclass(frozen=True)
class BatchEvent:
    """One detected batch: many same-class failures in a short window."""

    component: ComponentClass
    start: float
    end: float
    n_failures: int
    n_servers: int
    #: Most common failure type in the batch and its share.
    dominant_type: str
    dominant_type_share: float
    #: Most affected product line and its share of the batch.
    dominant_line: str
    dominant_line_share: float

    @property
    def duration_hours(self) -> float:
        return (self.end - self.start) / HOUR


def detect_batches(
    dataset: FOTDataset,
    component: ComponentClass,
    *,
    spike_factor: float = 6.0,
    min_failures: int = 20,
) -> List[BatchEvent]:
    """Detect batch events as hourly spikes over the class baseline.

    Hours whose failure count exceeds ``spike_factor`` times the class's
    mean hourly rate (and at least ``min_failures / 24`` per hour) are
    flagged; adjacent flagged hours merge into one event, and events
    smaller than ``min_failures`` are dropped.  This mimics how the
    paper's operators characterize batches ("a number of servers above a
    threshold N failing during a short period of time t; both N and t
    are user-specific") without needing the simulator's ground truth.
    """
    if spike_factor <= 1:
        raise ValueError("spike_factor must exceed 1")
    failures = dataset.failures().of_component(component).sorted_by_time()
    if len(failures) == 0:
        return []
    times = failures.error_times
    hours = (times // HOUR).astype(int)
    n_hours = int(hours.max()) + 1
    counts = np.bincount(hours, minlength=n_hours).astype(float)
    baseline = counts.mean()
    hour_floor = max(1.0, min_failures / 24.0)
    flagged = counts >= max(spike_factor * baseline, hour_floor)

    events: List[BatchEvent] = []
    h = 0
    while h < n_hours:
        if not flagged[h]:
            h += 1
            continue
        start_h = h
        while h < n_hours and flagged[h]:
            h += 1
        lo, hi = start_h * HOUR, h * HOUR
        mask = (times >= lo) & (times < hi)
        size = int(mask.sum())
        if size < min_failures:
            continue
        window = failures.where(mask)
        type_codes, type_counts = np.unique(
            window.error_type_codes, return_counts=True
        )
        line_codes, line_counts = np.unique(
            window.product_line_codes, return_counts=True
        )
        top_type = window.error_type_table[
            int(type_codes[int(np.argmax(type_counts))])
        ]
        top_line = window.product_line_table[
            int(line_codes[int(np.argmax(line_counts))])
        ]
        events.append(
            BatchEvent(
                component=component,
                start=float(window.error_times.min()),
                end=float(window.error_times.max()),
                n_failures=size,
                n_servers=int(distinct(window.host_ids).size),
                dominant_type=top_type,
                dominant_type_share=int(type_counts.max()) / size,
                dominant_line=top_line,
                dominant_line_share=int(line_counts.max()) / size,
            )
        )
    events.sort(key=lambda e: e.n_failures, reverse=True)
    return events


__all__ = [
    "TABLE_V_THRESHOLDS",
    "daily_counts",
    "batch_frequency",
    "batch_failure_frequency",
    "BatchEvent",
    "detect_batches",
]
