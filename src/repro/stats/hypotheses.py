"""The paper's five numbered hypotheses as reusable tests.

Each function takes a :class:`~repro.core.dataset.FOTDataset` (plus
whatever side information the hypothesis needs) and returns
:class:`~repro.stats.chisquare.ChiSquareResult` objects, so callers can
apply the paper's significance levels (0.01 / 0.02 / 0.05) or their own.

* Hypothesis 1 — failure counts uniform over days of the week.
* Hypothesis 2 — failure counts uniform over hours of the day.
* Hypothesis 3 — TBF of all components follows a given family.
* Hypothesis 4 — TBF of each component class follows a given family.
* Hypothesis 5 — failure rate independent of rack position.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from repro.core.dataset import FOTDataset
from repro.core.timeutil import day_of_week, hour_of_day
from repro.core.types import ComponentClass
from repro.stats.chisquare import ChiSquareResult, chi_square_counts, chi_square_fit
from repro.stats.distributions import Distribution, TBF_FAMILIES, fit_all


def test_uniform_day_of_week(
    dataset: FOTDataset, *, exclude_weekends: bool = False
) -> ChiSquareResult:
    """Hypothesis 1: the average number of failures is uniformly random
    over the days of the week.

    With ``exclude_weekends`` the test is restricted to Monday–Friday —
    the paper's robustness check ("even if we exclude the weekends, a
    chi-square test still rejects at 0.02 significance").
    """
    dows = day_of_week(dataset.failures().error_times).astype(int)
    if exclude_weekends:
        dows = dows[dows < 5]
        n_bins = 5
        label = "failures uniform over weekdays (Mon-Fri)"
    else:
        n_bins = 7
        label = "failures uniform over days of the week"
    counts = np.bincount(dows, minlength=n_bins)
    return chi_square_counts(counts, hypothesis=label)


def test_uniform_hour_of_day(dataset: FOTDataset) -> ChiSquareResult:
    """Hypothesis 2: the average number of failures is uniformly random
    over the hours of the day."""
    hours = hour_of_day(dataset.failures().error_times).astype(int)
    counts = np.bincount(hours, minlength=24)
    return chi_square_counts(
        counts, hypothesis="failures uniform over hours of the day"
    )


def _sorted_tbf(dataset: FOTDataset) -> np.ndarray:
    """The dataset's TBF sample (see :func:`repro.analysis.tbf.tbf_values`),
    sorted once for the fits and the binning to share."""
    # Imported here because repro.analysis.tbf builds on this module.
    from repro.analysis.tbf import tbf_values

    return np.sort(tbf_values(dataset))


def test_tbf_fits(
    gaps: np.ndarray, fits: Mapping[str, Distribution]
) -> Dict[str, ChiSquareResult]:
    """Hypothesis 3 for distributions already fitted to the TBF sample
    ``gaps``, keyed like ``fits``; a fit whose test cannot run (too few
    observations, or too few bins after pooling) is skipped.  Pass ``gaps`` sorted: every test
    then bins it without sorting again."""
    results: Dict[str, ChiSquareResult] = {}
    for name, dist in fits.items():
        try:
            results[name] = chi_square_fit(gaps, dist, hypothesis=f"TBF ~ {name}")
        except ValueError:
            continue
    return results


def test_tbf_family(
    dataset: FOTDataset,
    family: type,
    *,
    label: str = "",
    gaps: Optional[np.ndarray] = None,
) -> ChiSquareResult:
    """Hypothesis 3 for one family: TBF of all components in the dataset
    follows ``family`` (parameters MLE-fitted first, per Section II-B).

    Raises :class:`~repro.stats.distributions.FitError` when the family
    cannot be fitted to the sample at all, and ``ValueError`` when the
    dataset has fewer than 2 failures.  Pass precomputed ``gaps`` (as
    from :func:`repro.analysis.tbf.tbf_values`, ideally sorted) to skip
    deriving the sample again.
    """
    if gaps is None:
        gaps = _sorted_tbf(dataset)
    dist: Distribution = family.fit(gaps)
    return chi_square_fit(
        gaps,
        dist,
        hypothesis=label or f"TBF ~ {family.name}",
    )


def test_tbf_all_families(
    dataset: FOTDataset,
    families: Sequence[type] = TBF_FAMILIES,
) -> Dict[str, ChiSquareResult]:
    """Hypothesis 3 across every candidate family; families whose MLE
    fails on this sample are skipped.  The TBF sample is derived and
    sorted once and shared across the family fits and tests."""
    try:
        gaps = _sorted_tbf(dataset)
    except ValueError:
        return {}
    return test_tbf_fits(gaps, fit_all(gaps, families))


def test_tbf_per_component(
    dataset: FOTDataset,
    families: Sequence[type] = TBF_FAMILIES,
    *,
    min_failures: int = 100,
) -> Dict[ComponentClass, Dict[str, ChiSquareResult]]:
    """Hypothesis 4: per-component-class TBF against every family.

    Classes with fewer than ``min_failures`` failures are skipped —
    matching the paper's practice of drawing conclusions only where the
    counts are statistically meaningful.
    """
    out: Dict[ComponentClass, Dict[str, ChiSquareResult]] = {}
    for component, subset in dataset.failures().by_component().items():
        if len(subset) < min_failures:
            continue
        results = test_tbf_all_families(subset, families)
        if results:
            out[component] = results
    return out


def test_tbf_per_product_line(
    dataset: FOTDataset,
    families: Sequence[type] = TBF_FAMILIES,
    *,
    min_failures: int = 500,
) -> Dict[str, Dict[str, ChiSquareResult]]:
    """The paper's product-line breakdown of Hypothesis 4: "We also
    break down the failure by product lines.  All the results are
    similar" — every family still rejected for every line with enough
    volume."""
    out: Dict[str, Dict[str, ChiSquareResult]] = {}
    for line, subset in dataset.failures().by_product_line().items():
        if len(subset) < min_failures:
            continue
        results = test_tbf_all_families(subset, families)
        if results:
            out[line] = results
    return out


_H5 = "failure rate independent of rack position"


def test_rack_position_uniform(
    dataset: FOTDataset,
    *,
    servers_per_position: Optional[Sequence[float]] = None,
    n_positions: Optional[int] = None,
) -> ChiSquareResult:
    """Hypothesis 5: the failure rate at each rack position is
    independent of the position.

    The paper normalizes by the number of servers at each position
    (operators leave top/bottom slots empty); pass that occupancy via
    ``servers_per_position`` and the expected failure probability per
    slot becomes proportional to its server count.  Without it the test
    assumes equal occupancy.  Repeating failures should be filtered out
    by the caller (see :func:`repro.analysis.spatial.rack_position_tests`).
    """
    failures = dataset.failures()
    positions = failures.positions
    if positions.size == 0:
        raise ValueError("no failures to test")
    if n_positions is None:
        n_positions = int(positions.max()) + 1
    counts = np.bincount(positions, minlength=n_positions).astype(float)

    if servers_per_position is None:
        return chi_square_counts(counts, None, hypothesis=_H5)
    weights = np.asarray(servers_per_position, dtype=float)
    if weights.size < n_positions:
        raise ValueError(
            f"servers_per_position covers {weights.size} slots, "
            f"failures reference {n_positions}"
        )
    return rack_position_chi_square(counts, weights[:n_positions])


def rack_position_chi_square(
    counts: np.ndarray, servers: np.ndarray
) -> ChiSquareResult:
    """Hypothesis 5 over per-slot failure ``counts``, with each slot's
    expected share proportional to its ``servers`` (same length).
    Raises ``ValueError`` when failures sit at a slot with no servers."""
    occupied = servers > 0
    if np.any(counts[~occupied] > 0):
        raise ValueError("failures reported at positions with zero servers")
    probs = servers[occupied] / servers[occupied].sum()
    return chi_square_counts(counts[occupied], probs, hypothesis=_H5)


__all__ = [
    "test_uniform_day_of_week",
    "test_uniform_hour_of_day",
    "test_tbf_fits",
    "test_tbf_family",
    "test_tbf_all_families",
    "test_tbf_per_component",
    "test_tbf_per_product_line",
    "test_rack_position_uniform",
    "rack_position_chi_square",
]
