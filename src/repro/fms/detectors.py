"""Detection model: how and *when* failures become tickets.

The paper's FMS detects ~90 % of failures automatically, by listening to
syslogs or by periodically polling device status; the remaining ~10 %
are manual miscellaneous reports (Section II-A).  Detection timing is
not uniform (Figures 3/4) because:

1. log-based detection only fires when the component gets used, so
   workload-coupled classes (HDD, memory, ...) follow the diurnal
   workload curve;
2. polled classes bunch up right after each poll tick;
3. manual reports need the human in the loop, so they follow working
   days and working hours.

:class:`DetectionModel` owns those profiles.  The trace generator asks
it for per-hour and per-day weights when timestamping failures, and for
the detection source recorded on each ticket.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.timeutil import HOUR
from repro.core.types import ComponentClass, DetectionSource
from repro.simulation import calibration


class DetectionModel:
    """Per-class detection sources and temporal detection profiles."""

    #: Classes whose agents listen to syslog (detection gated by use).
    SYSLOG_CLASSES = (
        ComponentClass.HDD,
        ComponentClass.MEMORY,
        ComponentClass.FLASH_CARD,
        ComponentClass.SSD,
    )

    def __init__(self) -> None:
        self._hour_weights: Dict[ComponentClass, np.ndarray] = {}
        self._hour_cdfs: Dict[ComponentClass, np.ndarray] = {}
        self._dow_weights: Dict[ComponentClass, np.ndarray] = {}
        for cls in ComponentClass:
            weights = self._build_hour_profile(cls)
            self._hour_weights[cls] = weights
            # Generator.choice's own table, built once: drawing from it
            # gives the same hours and generator state as
            # ``rng.choice(24, size, p=weights)``.
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            self._hour_cdfs[cls] = cdf
            self._dow_weights[cls] = self._build_dow_profile(cls)

    # ------------------------------------------------------------------
    def source_for(self, component: ComponentClass) -> DetectionSource:
        """Which detector reports failures of this class."""
        if component is ComponentClass.MISC:
            return DetectionSource.MANUAL
        if component in self.SYSLOG_CLASSES:
            return DetectionSource.SYSLOG
        return DetectionSource.POLLING

    # ------------------------------------------------------------------
    def _build_hour_profile(self, cls: ComponentClass) -> np.ndarray:
        if cls is ComponentClass.MISC:
            weights = np.asarray(calibration.MANUAL_HOURS, dtype=float)
        elif cls in calibration.POLLING_CLASSES:
            # Uniform base with a concentration boost at poll-tick hours.
            weights = np.ones(24, dtype=float)
            period = calibration.POLLING_PERIOD_HOURS
            ticks = np.arange(0, 24, period)
            n_ticks = ticks.size
            conc = calibration.POLLING_CONCENTRATION
            # Spread `conc` of the mass over the tick hours, the rest
            # uniformly over all 24 hours.
            weights *= (1.0 - conc) / 24.0
            weights[ticks] += conc / n_ticks
        else:
            coupling = calibration.WORKLOAD_COUPLING[cls]
            workload = np.asarray(calibration.WORKLOAD_BY_HOUR, dtype=float)
            workload = workload / workload.mean()
            weights = (1.0 - coupling) + coupling * workload
        return weights / weights.sum()

    def _build_dow_profile(self, cls: ComponentClass) -> np.ndarray:
        if cls is ComponentClass.MISC:
            weights = np.asarray(calibration.DOW_MANUAL, dtype=float)
        else:
            weights = np.asarray(calibration.DOW_AUTOMATIC, dtype=float)
        return weights / weights.sum()

    # ------------------------------------------------------------------
    def hour_weights(self, component: ComponentClass) -> np.ndarray:
        """Probability of detection landing in each hour 0-23."""
        return self._hour_weights[component]

    def dow_weights(self, component: ComponentClass) -> np.ndarray:
        """Relative detection weight per day of week (Mon..Sun),
        normalized to sum to 1."""
        return self._dow_weights[component]

    def sample_time_of_day(
        self, component: ComponentClass, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Seconds-within-day offsets following the class's hour profile."""
        hours = self._hour_cdfs[component].searchsorted(
            rng.random(size), side="right"
        )
        return hours * HOUR + rng.uniform(0.0, HOUR, size=size)


__all__ = ["DetectionModel"]
