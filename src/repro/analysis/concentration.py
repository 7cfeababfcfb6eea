"""Failure concentration across servers — Figure 7 (Section III-C).

The paper observes that failures are "extremely non-uniformly
distributed among the individual servers": a tiny fraction of the
servers that ever failed accounts for the bulk of all failures.  This
module computes the concentration curve (the CDF of failures against the
fraction of ever-failed servers, most-failing first), top-share
statistics, and a Gini coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.dataset import FOTDataset
from repro.robustness.quality import InsufficientDataError
from repro.stats.empirical import gini


@dataclass(frozen=True)
class ConcentrationCurve:
    """Failure concentration over ever-failed servers.

    ``server_fraction[i]`` is the fraction of ever-failed servers
    considered (ordered by descending failure count) and
    ``failure_fraction[i]`` the fraction of all failures they hold.
    """

    server_fraction: np.ndarray
    failure_fraction: np.ndarray
    failures_per_server: np.ndarray
    n_failed_servers: int
    n_failures: int
    gini: float

    def share_of_top(self, fraction: float) -> float:
        """Fraction of failures held by the top ``fraction`` of
        ever-failed servers (e.g. ``share_of_top(0.02)``)."""
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        k = max(1, int(np.ceil(fraction * self.n_failed_servers)))
        return float(self.failures_per_server[:k].sum() / self.n_failures)

    def servers_for_share(self, share: float) -> float:
        """Smallest fraction of ever-failed servers holding at least
        ``share`` of all failures."""
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share}")
        idx = int(np.searchsorted(self.failure_fraction, share, side="left"))
        idx = min(idx, self.server_fraction.size - 1)
        return float(self.server_fraction[idx])


def failure_concentration(dataset: FOTDataset) -> ConcentrationCurve:
    """Build Figure 7 from a dataset (failures only)."""
    failures = dataset.failures()
    if len(failures) == 0:
        raise InsufficientDataError("no failures in dataset")
    counts = np.sort(failures.host_counts()[1])[::-1].astype(float)
    n_servers = counts.size
    n_failures = float(counts.sum())
    cum = np.cumsum(counts) / n_failures
    server_frac = np.arange(1, n_servers + 1) / n_servers
    return ConcentrationCurve(
        server_fraction=server_frac,
        failure_fraction=cum,
        failures_per_server=counts,
        n_failed_servers=int(n_servers),
        n_failures=int(n_failures),
        gini=gini(counts),
    )


def ever_failed_fraction(dataset: FOTDataset, n_servers_total: int) -> float:
    """Fraction of the whole fleet that ever failed."""
    if n_servers_total <= 0:
        raise ValueError("fleet size must be positive")
    n_failed = int(dataset.failures().host_counts()[0].size)
    return n_failed / n_servers_total


def concentration_series(
    curve: ConcentrationCurve, n_points: int = 100
) -> Tuple[np.ndarray, np.ndarray]:
    """Downsampled (server fraction, failure fraction) series for
    reporting — the Figure 7 line."""
    n = curve.server_fraction.size
    if n <= n_points:
        return curve.server_fraction, curve.failure_fraction
    idx = np.unique(np.linspace(0, n - 1, n_points).round().astype(int))
    return curve.server_fraction[idx], curve.failure_fraction[idx]


__all__ = [
    "ConcentrationCurve",
    "failure_concentration",
    "ever_failed_fraction",
    "concentration_series",
]
