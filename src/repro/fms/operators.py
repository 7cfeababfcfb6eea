"""Operator response model — Section VI of the paper.

The response time ``RT = op_time - error_time`` in the paper is long and
wildly variable because of *behaviour*, not incapacity:

* lines with resilient software (large Hadoop clusters) see no urgency —
  redundancy is restored automatically, so operators batch failures up
  and review the pool periodically;
* the busiest (top 1 %) lines review on long fixed cycles (median HDD RT
  ≈ 47 days), while many *small* lines have nobody watching and median
  RTs beyond 100 days;
* strict online-service lines (the ones that afford SSDs) respond within
  hours;
* miscellaneous tickets filed during the deployment phase are closed
  almost immediately (installation/testing is streamlined);
* flapping ("lemon") components are marked solved by an automatic
  reboot within hours — which is exactly why they repeat.

:class:`OperatorModel` turns those behaviours into per-ticket close
times and operator ids.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.timeutil import DAY
from repro.core.types import ComponentClass
from repro.fleet.fleet import Fleet
from repro.simulation import calibration

_MISC, _SSD = ComponentClass.MISC, ComponentClass.SSD


class OperatorModel:
    """Samples operator close times for tickets."""

    def __init__(self, fleet: Fleet, rng: np.random.Generator):
        self._rng = rng
        self._line_review: Dict[str, float] = {}
        self._line_phase: Dict[str, float] = {}
        self._line_ft: Dict[str, float] = {}
        self._line_ops: Dict[str, Tuple[str, ...]] = {}
        self._fixing_terms: Dict[Tuple[ComponentClass, str], Tuple[float, Optional[float]]] = {}

        lines = list(fleet.product_lines.values())
        # The "top 1 %" lines by size get long fixed review cycles.
        by_size = sorted(lines, key=lambda pl: pl.expected_servers, reverse=True)
        n_top = max(1, int(math.ceil(len(lines) * calibration.TOP_LINE_FRACTION)))
        top_names = {pl.name for pl in by_size[:n_top]}

        lo, hi = calibration.TOP_LINE_REVIEW_DAYS
        for pl in lines:
            if pl.name in top_names:
                review = float(rng.uniform(lo, hi))
            else:
                review = pl.review_interval_days
            self._line_review[pl.name] = review * DAY
            self._line_phase[pl.name] = float(rng.uniform(0.0, max(review, 1.0) * DAY))
            self._line_ft[pl.name] = pl.fault_tolerance
            self._line_ops[pl.name] = tuple(
                f"op-{pl.name}-{k}" for k in range(calibration.OPERATORS_PER_LINE)
            )

    # ------------------------------------------------------------------
    def with_rng(self, rng: np.random.Generator) -> "OperatorModel":
        """A clone drawing per-ticket randomness from ``rng``.

        The per-line behaviour tables (review cycles, phases, operator
        pools) are *shared* with the parent, not re-drawn — every shard
        of a sharded run must see the same line behaviour or the same
        ticket would close at different times depending on which shard
        processed it.
        """
        clone = object.__new__(OperatorModel)
        clone._rng = rng
        clone._line_review = self._line_review
        clone._line_phase = self._line_phase
        clone._line_ft = self._line_ft
        clone._line_ops = self._line_ops
        clone._fixing_terms = self._fixing_terms
        return clone

    # ------------------------------------------------------------------
    def _pick_operator(self, line: str) -> str:
        ops = self._line_ops.get(line)
        if not ops:
            return "op-unknown"
        return ops[int(self._rng.integers(len(ops)))]

    def _lognormal(self, median_seconds: float, sigma: float) -> float:
        return float(self._rng.lognormal(np.log(median_seconds), sigma))

    def _next_review(self, line: str, after: float) -> float:
        """First periodic pool-review epoch at or after ``after``."""
        interval = self._line_review.get(line, 0.0)
        if interval <= 0:
            return after
        phase = self._line_phase.get(line, 0.0)
        k = math.ceil((after - phase) / interval)
        return phase + max(k, 0) * interval

    # ------------------------------------------------------------------
    def close_false_alarm(self, line: str, error_time: float) -> Tuple[float, str]:
        """Close time and operator for a false-alarm ticket.

        paper (Fig 9): median 4.9 days, mean 19.1 days.
        """
        rt = self._lognormal(
            calibration.FALSE_ALARM_RT_MEDIAN_DAYS * DAY,
            calibration.FALSE_ALARM_RT_SIGMA,
        )
        return error_time + rt, self._pick_operator(line)

    def close_fixing(
        self,
        component: ComponentClass,
        line: str,
        error_time: float,
        server_age_seconds: float,
        is_lemon: bool,
    ) -> Tuple[float, str]:
        """Close time and operator for a D_fixing ticket (issue the RO)."""
        operator = self._pick_operator(line)

        if is_lemon:
            # Automatic recovery reboots the server and the problem is
            # marked solved within hours (the BBU anecdote).
            rt = self._lognormal(calibration.LEMON_RT_MEDIAN_DAYS * DAY, 0.8)
            return error_time + rt, operator

        if component is _MISC and server_age_seconds < calibration.DEPLOYMENT_PHASE_DAYS * DAY:
            rt = self._lognormal(calibration.DEPLOYMENT_RT_MEDIAN_DAYS * DAY, 0.9)
            return error_time + rt, operator

        terms = self._fixing_terms.get((component, line))
        if terms is None:
            terms = self._fixing_terms[component, line] = self._terms(component, line)
        log_median, batching_prob = terms
        close_at = error_time + float(self._rng.lognormal(log_median, calibration.RT_SIGMA))
        if batching_prob is not None and self._rng.random() < batching_prob:
            close_at = self._next_review(line, close_at)
        return close_at, operator

    def _terms(self, component: ComponentClass, line: str) -> Tuple[float, Optional[float]]:
        """The log median RT of a D_fixing ticket of ``component`` on
        ``line``, and the chance it waits for the pool review (``None``:
        never).  Fixed per model, so :meth:`close_fixing` caches them."""
        ft = self._line_ft.get(line, 0.5)
        line_mult = calibration.RT_FT_BASE + calibration.RT_FT_GAIN * ft * ft
        median = calibration.RT_CLASS_MEDIAN_DAYS[component] * DAY * line_mult
        if component is _SSD:
            # Only crucial user-facing services afford SSDs, and their
            # operation guidelines are strict: no pool batching.
            return np.log(median), None
        batching_prob = min(
            0.9, calibration.RT_BATCHING_BASE + calibration.RT_BATCHING_FT_GAIN * ft
        )
        # Lines nobody watches closely (very long review cycles) almost
        # always wait for the periodic pool review.
        if self._line_review.get(line, 0.0) > 60 * DAY:
            batching_prob = max(batching_prob, 0.8)
        return np.log(median), batching_prob

    def review_interval_seconds(self, line: str) -> float:
        """Exposed for tests and the operator-behaviour example."""
        return self._line_review.get(line, 0.0)


__all__ = ["OperatorModel"]
