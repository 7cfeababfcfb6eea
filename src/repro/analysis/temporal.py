"""Temporal profiles — Figures 3/4 and Hypotheses 1/2 (Section III-A).

The paper plots the *fraction* of failures per day-of-week and per
hour-of-day for the component classes with the most failures, then
rejects uniformity with chi-squared tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY_NAMES, day_of_week, hour_of_day
from repro.core.types import ComponentClass
from repro.robustness.quality import InsufficientDataError
from repro.stats.chisquare import ChiSquareResult
from repro.stats.empirical import fraction_profile
from repro.stats.hypotheses import (
    test_uniform_day_of_week,
    test_uniform_hour_of_day,
)


@dataclass(frozen=True)
class TemporalProfile:
    """Fraction of failures per facet plus the uniformity test."""

    component: ComponentClass
    fractions: np.ndarray
    test: ChiSquareResult
    n_failures: int

    @property
    def labels(self) -> List[str]:
        if self.fractions.size == 7:
            return list(DAY_NAMES)
        return [f"{h:02d}" for h in range(self.fractions.size)]


def _uniformity(
    test: Callable[[FOTDataset], ChiSquareResult], subset: FOTDataset
) -> ChiSquareResult:
    """``test(subset)``; too few failures to keep two chi-square bins
    after pooling is an :class:`InsufficientDataError`."""
    try:
        return test(subset)
    except ValueError as exc:
        raise InsufficientDataError(str(exc)) from exc


def day_of_week_profile(
    dataset: FOTDataset, component: ComponentClass
) -> TemporalProfile:
    """Figure 3 for one component class: fraction of failures per day of
    the week, with the Hypothesis 1 chi-squared test."""
    subset = dataset.failures().of_component(component)
    if len(subset) == 0:
        raise InsufficientDataError(f"no failures for component {component}")
    dows = day_of_week(subset.error_times).astype(int)
    return TemporalProfile(
        component=component,
        fractions=fraction_profile(dows, 7),
        test=_uniformity(test_uniform_day_of_week, subset),
        n_failures=len(subset),
    )


def hour_of_day_profile(
    dataset: FOTDataset, component: ComponentClass
) -> TemporalProfile:
    """Figure 4 for one component class: fraction of failures per hour
    of the day, with the Hypothesis 2 chi-squared test."""
    subset = dataset.failures().of_component(component)
    if len(subset) == 0:
        raise InsufficientDataError(f"no failures for component {component}")
    hours = hour_of_day(subset.error_times).astype(int)
    return TemporalProfile(
        component=component,
        fractions=fraction_profile(hours, 24),
        test=_uniformity(test_uniform_hour_of_day, subset),
        n_failures=len(subset),
    )


def top_components(dataset: FOTDataset, n: int = 8) -> List[ComponentClass]:
    """The ``n`` component classes with the most failures — the paper
    plots only these ("due to limited space")."""
    failures = dataset.failures()
    by_component = failures.by_component()
    ranked = sorted(by_component.items(), key=lambda kv: len(kv[1]), reverse=True)
    return [cls for cls, _ in ranked[:n]]


def day_of_week_summary(
    dataset: FOTDataset, n_components: int = 4
) -> Dict[ComponentClass, TemporalProfile]:
    """Figure 3: day-of-week profiles for the top component classes."""
    return {
        cls: day_of_week_profile(dataset, cls)
        for cls in top_components(dataset, n_components)
    }


def hour_of_day_summary(
    dataset: FOTDataset, n_components: int = 8
) -> Dict[ComponentClass, TemporalProfile]:
    """Figure 4: hour-of-day profiles for the top component classes."""
    return {
        cls: hour_of_day_profile(dataset, cls)
        for cls in top_components(dataset, n_components)
    }


def weekday_robustness_test(dataset: FOTDataset) -> ChiSquareResult:
    """The paper's robustness check for Hypothesis 1: exclude weekends
    and re-test uniformity over Monday-Friday (still rejected at 0.02)."""
    return test_uniform_day_of_week(dataset, exclude_weekends=True)


__all__ = [
    "TemporalProfile",
    "day_of_week_profile",
    "hour_of_day_profile",
    "top_components",
    "day_of_week_summary",
    "hour_of_day_summary",
    "weekday_robustness_test",
]
