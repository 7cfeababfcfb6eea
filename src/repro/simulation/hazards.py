"""Lifecycle hazard shapes.

Section III-C of the paper finds that the classic bathtub curve does not
describe any component class well: RAID cards show extreme infant
mortality, HDDs a mild one followed by early wear-out, flash cards
almost no early failures and then a steep rise, and miscellaneous
(manual) tickets spike in the deployment month.  Each class therefore
gets its own piecewise-linear *relative* hazard over service months;
absolute rates are set later by budget scaling.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.types import ComponentClass
from repro.simulation import calibration

#: Service months each shape tabulates; later months reuse the last one.
MAX_MONTH = 120


class LifecycleShape:
    """Relative hazard as a function of service month.

    Built from (month, value) breakpoints; linearly interpolated between
    them, flat beyond the last breakpoint, and zero for negative months
    (the component does not exist yet).
    """

    def __init__(
        self, breakpoints: Sequence[Tuple[float, float]], max_month: int = MAX_MONTH
    ):
        if len(breakpoints) < 2:
            raise ValueError("a lifecycle shape needs at least 2 breakpoints")
        months = [m for m, _ in breakpoints]
        if months != sorted(months):
            raise ValueError("breakpoint months must be increasing")
        values = [v for _, v in breakpoints]
        if any(v < 0 for v in values):
            raise ValueError("hazard values must be non-negative")
        self.breakpoints = tuple((float(m), float(v)) for m, v in breakpoints)
        grid = np.arange(max_month + 1, dtype=float)
        #: Hazard at each whole service month ``0..max_month``.
        self.table = np.interp(grid, months, values)
        self._max_month = max_month

    def __call__(self, month) -> np.ndarray:
        """Hazard multiplier at (integer or fractional) service months.

        Accepts arrays; months < 0 give 0, months beyond the table give
        the final value.
        """
        month = np.asarray(month, dtype=float)
        idx = np.clip(month, 0, self._max_month).astype(int)
        return np.where(month < 0, 0.0, self.table[idx])

    def share_before(self, month: float, horizon_month: float) -> float:
        """Fraction of lifetime hazard mass that falls before ``month``,
        for a component observed from month 0 to ``horizon_month`` —
        handy for checking calibration targets like "47.4 % of RAID
        failures happen in the first six months"."""
        grid = np.arange(int(horizon_month))
        mass = self(grid)
        total = mass.sum()
        if total == 0:
            raise ValueError("shape has no hazard mass in the horizon")
        return float(mass[: int(month)].sum() / total)


def build_shapes(max_month: int = MAX_MONTH) -> Dict[ComponentClass, LifecycleShape]:
    """Instantiate the calibrated shape for every component class."""
    return {
        cls: LifecycleShape(points, max_month)
        for cls, points in calibration.LIFECYCLE_BREAKPOINTS.items()
    }


__all__ = ["LifecycleShape", "build_shapes", "MAX_MONTH"]
