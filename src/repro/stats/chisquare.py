"""Pearson's chi-squared goodness-of-fit test.

Two entry points, matching the two ways the paper uses the test:

* :func:`chi_square_counts` — observed category counts against expected
  probabilities (Hypotheses 1, 2 and 5: day-of-week, hour-of-day and
  rack-position uniformity).
* :func:`chi_square_fit` — a continuous sample against a fitted
  distribution (Hypotheses 3 and 4: TBF vs exponential/Weibull/gamma/
  lognormal), using equiprobable bins from the fitted quantile function
  and charging degrees of freedom for the estimated parameters.

Low-expected-count bins are pooled (the usual "expected >= 5" rule) so
the chi-squared approximation stays valid on skewed data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.stats.distributions import Distribution
from repro.stats.special import chi2_sf

#: Conventional minimum expected count per bin for the chi-squared
#: approximation to hold.
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of one Pearson chi-squared test.

    Attributes:
        statistic: The chi-squared statistic.
        df: Degrees of freedom after pooling and parameter charges.
        p_value: Right-tail probability of the statistic.
        n: Total observation count.
        bins: Number of bins actually used (after pooling).
        hypothesis: Human-readable description of the null hypothesis.
    """

    statistic: float
    df: int
    p_value: float
    n: int
    bins: int
    hypothesis: str = ""

    def reject_at(self, alpha: float) -> bool:
        """True when the null hypothesis is rejected at level ``alpha``."""
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value < alpha

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"chi2={self.statistic:.2f}, df={self.df}, p={self.p_value:.4g} "
            f"(n={self.n}, bins={self.bins})"
        )


def _pool_low_expected(
    observed: np.ndarray, expected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Merge adjacent bins until every expected count is >= MIN_EXPECTED.

    Pooling scans left to right accumulating bins; a trailing underweight
    remainder is merged into the last kept bin.
    """
    pooled_obs, pooled_exp = [], []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed, expected):
        acc_obs += o
        acc_exp += e
        if acc_exp >= MIN_EXPECTED:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_obs
            pooled_exp[-1] += acc_exp
        else:
            pooled_obs.append(acc_obs)
            pooled_exp.append(acc_exp)
    return np.asarray(pooled_obs, dtype=float), np.asarray(pooled_exp, dtype=float)


def chi_square_counts(
    observed: Sequence[float],
    expected_probs: Optional[Sequence[float]] = None,
    *,
    n_estimated_params: int = 0,
    hypothesis: str = "",
    pool: bool = True,
) -> ChiSquareResult:
    """Test observed category counts against expected probabilities.

    Args:
        observed: Count per category.
        expected_probs: Probability per category under the null; defaults
            to the uniform distribution over the categories.
        n_estimated_params: Parameters estimated from the data (charged
            against the degrees of freedom).
        hypothesis: Description stored on the result.
        pool: Pool adjacent bins whose expected count is below 5.
    """
    observed = np.asarray(observed, dtype=float)
    if observed.ndim != 1 or observed.size < 2:
        raise ValueError("observed must be a 1-D array of >= 2 category counts")
    if np.any(observed < 0):
        raise ValueError("observed counts must be non-negative")
    total = float(observed.sum())
    if total <= 0:
        raise ValueError("observed counts sum to zero")

    if expected_probs is None:
        probs = np.full(observed.size, 1.0 / observed.size)
    else:
        probs = np.asarray(expected_probs, dtype=float)
        if probs.shape != observed.shape:
            raise ValueError("expected_probs shape must match observed")
        if np.any(probs < 0):
            raise ValueError("expected probabilities must be non-negative")
        psum = probs.sum()
        if psum <= 0:
            raise ValueError("expected probabilities sum to zero")
        probs = probs / psum

    expected = probs * total
    if pool:
        observed, expected = _pool_low_expected(observed, expected)
    if observed.size < 2:
        raise ValueError("not enough data: pooling left fewer than 2 bins")

    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = observed.size - 1 - n_estimated_params
    if df < 1:
        raise ValueError(
            f"degrees of freedom must be >= 1 (bins={observed.size}, "
            f"params={n_estimated_params})"
        )
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=float(chi2_sf(statistic, df)),
        n=int(round(total)),
        bins=observed.size,
        hypothesis=hypothesis,
    )


def chi_square_fit(
    data: Sequence[float],
    dist: Distribution,
    *,
    n_bins: int = 0,
    hypothesis: str = "",
) -> ChiSquareResult:
    """Test a continuous sample against a fitted distribution.

    Bins are equiprobable under ``dist`` (built from its quantile
    function), so every bin has the same expected count and the test is
    insensitive to the heavy tails that dominate TBF data.

    Args:
        data: The sample.  A sorted sample is binned as it is; any other
            is sorted first, so callers testing several families against
            one sample should sort it once themselves.
        dist: A fitted distribution; its ``n_params`` is charged against
            the degrees of freedom (the usual practice when parameters
            are MLE-estimated from the same sample).
        n_bins: Number of equiprobable bins; default ``max(10, n/50)``
            capped at 100.
    """
    data = np.asarray(data, dtype=float).ravel()
    if data.size < 10:
        raise ValueError("chi-squared fit test needs at least 10 observations")
    n = data.size
    if n_bins <= 0:
        n_bins = int(min(100, max(10, n // 50)))
    # Need expected counts >= MIN_EXPECTED per bin.
    n_bins = min(n_bins, max(2, int(n / MIN_EXPECTED)))

    qs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    edges = np.concatenate(([-np.inf], dist.ppf(qs), [np.inf]))
    if np.any(edges[:-1] > edges[1:]):
        raise ValueError("bin edges must increase monotonically")
    if not np.all(data[:-1] <= data[1:]):
        data = np.sort(data)
    # np.histogram's binning: every bin half-open, the last one closed.
    below = np.searchsorted(data, edges, side="left")
    below[-1] = np.searchsorted(data, edges[-1], side="right")
    observed = np.diff(below).astype(float)
    expected = np.full(n_bins, n / n_bins)

    observed, expected = _pool_low_expected(observed, expected)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    df = observed.size - 1 - dist.n_params
    if df < 1:
        raise ValueError("not enough bins after pooling for the parameter charge")
    return ChiSquareResult(
        statistic=statistic,
        df=df,
        p_value=float(chi2_sf(statistic, df)),
        n=n,
        bins=observed.size,
        hypothesis=hypothesis or f"data ~ {dist!r}",
    )


__all__ = ["ChiSquareResult", "chi_square_counts", "chi_square_fit", "MIN_EXPECTED"]
