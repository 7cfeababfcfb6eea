"""Time between failures — Figure 5 and Hypotheses 3/4 (Section III-B).

The paper fits exponential, Weibull, gamma and lognormal distributions
to the TBF by maximum likelihood and rejects all of them with Pearson's
chi-squared test; the culprit is the mass of tiny TBF values produced by
batch failures.  It also quotes an overall MTBF of 6.8 minutes across
all data centers and 32-390 minutes per data center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.dataset import FOTDataset
from repro.core.timeutil import MINUTE, unit
from repro.core.types import ComponentClass
from repro.robustness.quality import InsufficientDataError
from repro.stats.chisquare import ChiSquareResult
from repro.stats.distributions import Distribution, fit_all
from repro.stats.empirical import ECDF, ecdf
from repro.stats.hypotheses import test_tbf_fits, test_tbf_per_component


@unit("seconds")
def tbf_values(dataset: FOTDataset) -> np.ndarray:
    """Gaps between consecutive failure detections, in seconds.

    Zero gaps (several failures in the same second — batches) are kept
    at a one-second floor so log-scale plots and positive-support fits
    still see them.
    """
    times = np.sort(dataset.failures().error_times)
    if times.size < 2:
        raise InsufficientDataError("need at least 2 failures to compute TBF")
    return np.maximum(np.diff(times), 1.0)


@dataclass(frozen=True)
class TBFAnalysis:
    """Figure 5 bundle: empirical TBF, the fitted families and their
    goodness-of-fit tests."""

    empirical: ECDF
    fits: Dict[str, Distribution]
    tests: Dict[str, ChiSquareResult]
    mtbf_seconds: float
    n_gaps: int

    @property
    def mtbf_minutes(self) -> float:
        return self.mtbf_seconds / MINUTE

    def all_rejected_at(self, alpha: float = 0.05) -> bool:
        """True when every candidate family is rejected — the paper's
        headline TBF result."""
        if not self.tests:
            return False
        return all(t.reject_at(alpha) for t in self.tests.values())

    def cdf_series(
        self, n_points: int = 120
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """(x, CDF) series for the empirical data and every fit, on the
        empirical support — this is Figure 5 as data."""
        xs, ps = self.empirical.series(n_points)
        out: Dict[str, Tuple[np.ndarray, np.ndarray]] = {"data": (xs, ps)}
        for name, dist in self.fits.items():
            out[name] = (xs, np.asarray(dist.cdf(xs)))
        return out


def analyze_tbf(dataset: FOTDataset) -> TBFAnalysis:
    """Hypothesis 3 on one dataset: fit every family once to the sorted
    gaps, then test each fit on the same sorted sample."""
    gaps = tbf_values(dataset)
    ordered = np.sort(gaps)
    fits = fit_all(ordered)
    return TBFAnalysis(
        empirical=ecdf(ordered),
        fits=fits,
        tests=test_tbf_fits(ordered, fits),
        mtbf_seconds=float(gaps.mean()),
        n_gaps=int(gaps.size),
    )


def tbf_per_component(
    dataset: FOTDataset, min_failures: int = 100
) -> Dict[ComponentClass, Dict[str, ChiSquareResult]]:
    """Hypothesis 4: per-component-class family tests."""
    return test_tbf_per_component(dataset, min_failures=min_failures)


@unit("seconds")
def mtbf_by_idc(dataset: FOTDataset) -> Dict[str, float]:
    """MTBF in seconds per data center (paper: 32-390 minutes)."""
    out: Dict[str, float] = {}
    for idc, subset in dataset.failures().by_idc().items():
        if len(subset) < 2:
            continue
        out[idc] = float(tbf_values(subset).mean())
    if not out:
        raise InsufficientDataError("no data center has enough failures for an MTBF")
    return out


def mtbf_range_minutes(dataset: FOTDataset) -> Tuple[float, float]:
    """(min, max) per-DC MTBF in minutes."""
    values = np.asarray(list(mtbf_by_idc(dataset).values()))
    return float(values.min() / MINUTE), float(values.max() / MINUTE)


__all__ = [
    "tbf_values",
    "TBFAnalysis",
    "analyze_tbf",
    "tbf_per_component",
    "mtbf_by_idc",
    "mtbf_range_minutes",
]
