"""Data-quality assessment and graceful degradation.

The paper's statistics assume complete fields; a real dump rarely has
them.  :class:`DataQuality` measures how complete a dataset actually is
(per-field coverage, duplicate suspects, out-of-range rack positions)
and collects the **exclusions** each analysis applies while degrading
gracefully — e.g. :mod:`repro.analysis.response` dropping tickets
without ``op_time`` *and reporting how many it dropped* instead of
crashing.

Analyses raise :class:`InsufficientDataError` (a ``ValueError``
subclass, so existing callers keep working) when not even a degraded
answer is possible; the CLI catches it and prints a skip notice rather
than dying mid-report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.columns import CATEGORY_CODE
from repro.core.dataset import FOTDataset
from repro.core.types import FOTCategory

#: Rack slots beyond this are considered implausible (the paper's DCs
#: run racks of a few dozen slots; Figure 8 plots slots up to ~40).
DEFAULT_MAX_POSITION = 100


class InsufficientDataError(ValueError):
    """Raised when an analysis cannot produce even a degraded answer.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    call sites behave exactly as before.
    """


@dataclass(frozen=True)
class FieldCoverage:
    """How many tickets carry a usable value for one field."""

    field: str
    present: int
    missing: int

    @property
    def total(self) -> int:
        return self.present + self.missing

    @property
    def fraction(self) -> float:
        return self.present / self.total if self.total else 1.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "field": self.field,
            "present": self.present,
            "missing": self.missing,
            "fraction": self.fraction,
        }


@dataclass(frozen=True)
class Exclusion:
    """One exclude-and-report decision taken by an analysis."""

    analysis: str
    reason: str
    n_excluded: int
    n_used: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "analysis": self.analysis,
            "reason": self.reason,
            "n_excluded": self.n_excluded,
            "n_used": self.n_used,
        }

    def format(self) -> str:
        return (
            f"excluded by {self.analysis}: {self.n_excluded} tickets"
            f" ({self.reason}); {self.n_used} used"
        )


@dataclass
class DataQuality:
    """Assessment of a dataset's fitness for the paper's analyses.

    Built once via :meth:`assess`; analyses then consult it (and append
    their :class:`Exclusion` records through :meth:`note_exclusion`) so
    a report over dirty data states exactly what it is based on.
    """

    n_tickets: int
    coverage: Dict[str, FieldCoverage]
    duplicate_suspects: int
    out_of_range_positions: int
    warnings: List[str] = field(default_factory=list)
    exclusions: List[Exclusion] = field(default_factory=list)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def assess(
        cls,
        dataset: FOTDataset,
        max_position: int = DEFAULT_MAX_POSITION,
        duplicate_window_seconds: float = 86400.0,
    ) -> "DataQuality":
        """Measure completeness and plausibility of ``dataset``.

        * ``op_time`` / ``action`` / ``operator_id`` coverage is measured
          over the tickets that *should* carry them (closed categories:
          D_fixing and D_falsealarm — D_error tickets legitimately have
          none).
        * Duplicate suspects are tickets on the same physical component
          within ``duplicate_window_seconds`` of the previous one — the
          stateless-FMS re-open pathology of §VII-B.
        * Out-of-range positions are rack slots outside
          ``[0, max_position]``.
        """
        n = len(dataset)
        cat_codes = dataset.category_codes
        closed_mask = (cat_codes == CATEGORY_CODE[FOTCategory.FIXING]) | (
            cat_codes == CATEGORY_CODE[FOTCategory.FALSE_ALARM]
        )
        n_closed = int(closed_mask.sum())
        coverage: Dict[str, FieldCoverage] = {}

        def cov(name: str, present: int, total: int) -> None:
            coverage[name] = FieldCoverage(name, present, total - present)

        def interned_present(codes: np.ndarray, table_name: str) -> np.ndarray:
            # "Usable" means neither missing (-1) nor the empty string,
            # matching the row-first ``v not in (None, "")`` check.
            empty = dataset.store.code_for(table_name, "")
            return (codes >= 0) & (codes != empty)

        cov("op_time", int((~np.isnan(dataset.op_times[closed_mask])).sum()), n_closed)
        cov("action", int((dataset.action_codes[closed_mask] >= 0).sum()), n_closed)
        cov(
            "operator_id",
            int(
                interned_present(
                    dataset.operator_id_codes[closed_mask], "operator_id"
                ).sum()
            ),
            n_closed,
        )
        cov("error_detail", int(dataset.error_detail_present.sum()), n)
        cov(
            "product_line",
            int(interned_present(dataset.product_line_codes, "product_line").sum()),
            n,
        )
        cov("host_idc", int(interned_present(dataset.idc_codes, "idc").sum()), n)

        duplicates = (
            int(dataset.duplicate_suspect_mask(duplicate_window_seconds).sum())
            if n
            else 0
        )

        if n:
            positions = dataset.positions
            out_of_range = int(((positions < 0) | (positions > max_position)).sum())
        else:
            out_of_range = 0

        quality = cls(
            n_tickets=n,
            coverage=coverage,
            duplicate_suspects=duplicates,
            out_of_range_positions=out_of_range,
        )
        quality._derive_warnings(n_closed)
        return quality

    def _derive_warnings(self, n_closed: int) -> None:
        for name in ("op_time", "action"):
            cov = self.coverage.get(name)
            if cov is not None and cov.total and cov.fraction < 0.9:
                self.warnings.append(
                    f"{name} present on only {cov.fraction:.0%} of closed tickets"
                    " — response-time statistics are partial"
                )
        if self.n_tickets:
            # Correlated failure bursts legitimately put ~10% of tickets
            # on a recently-failed component, so only warn well above that.
            dup_frac = self.duplicate_suspects / self.n_tickets
            if dup_frac > 0.15:
                self.warnings.append(
                    f"{dup_frac:.0%} of tickets look like stateless-FMS re-opens"
                    " (same component within a day) — counts may be inflated"
                )
            pos_frac = self.out_of_range_positions / self.n_tickets
            if pos_frac > 0.01:
                self.warnings.append(
                    f"{pos_frac:.0%} of tickets carry implausible rack positions"
                    " — spatial analysis is unreliable"
                )
        if n_closed == 0 and self.n_tickets:
            self.warnings.append(
                "no closed tickets (D_fixing/D_falsealarm)"
                " — response analyses will be skipped"
            )

    # ------------------------------------------------------------------
    # consultation (analysis-facing)
    # ------------------------------------------------------------------
    def note_exclusion(
        self, analysis: str, reason: str, n_excluded: int, n_used: int
    ) -> None:
        """Record an exclude-and-report decision (no-op for zero
        exclusions, so clean data leaves no noise)."""
        if n_excluded > 0:
            self.exclusions.append(Exclusion(analysis, reason, n_excluded, n_used))

    @property
    def grade(self) -> str:
        """``ok`` / ``degraded`` / ``poor`` headline verdict."""
        if self.n_tickets == 0:
            return "poor"
        op_cov = self.coverage.get("op_time")
        op_fraction = op_cov.fraction if op_cov and op_cov.total else 1.0
        dup_frac = self.duplicate_suspects / self.n_tickets
        pos_frac = self.out_of_range_positions / self.n_tickets
        if op_fraction < 0.5 or dup_frac > 0.25 or pos_frac > 0.10:
            return "poor"
        if self.warnings:
            return "degraded"
        return "ok"

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "n_tickets": self.n_tickets,
            "grade": self.grade,
            "coverage": {k: v.to_dict() for k, v in self.coverage.items()},
            "duplicate_suspects": self.duplicate_suspects,
            "out_of_range_positions": self.out_of_range_positions,
            "warnings": list(self.warnings),
            "exclusions": [e.to_dict() for e in self.exclusions],
        }

    def format(self) -> str:
        out = [f"data quality: {self.grade} ({self.n_tickets} tickets)"]
        out.append("  field coverage (closed tickets for op_time/action/operator_id):")
        for cov in self.coverage.values():
            out.append(
                f"    {cov.field}: {cov.fraction:.1%} ({cov.present}/{cov.total})"
            )
        out.append(f"  duplicate suspects (same component, <1 day): {self.duplicate_suspects}")
        out.append(f"  out-of-range rack positions: {self.out_of_range_positions}")
        for warning in self.warnings:
            out.append(f"  warning: {warning}")
        out.extend(f"  {excl.format()}" for excl in self.exclusions)
        return "\n".join(out)


def clean_response_times(
    dataset: FOTDataset,
    analysis: str = "response",
    quality: Optional[DataQuality] = None,
) -> np.ndarray:
    """Response times (seconds) for tickets that have one, reporting the
    excluded remainder into ``quality`` — the shared degradation helper
    for the Section VI analyses."""
    rts = dataset.response_times
    usable = rts[~np.isnan(rts)]
    if quality is not None:
        quality.note_exclusion(
            analysis,
            "no op_time recorded",
            n_excluded=int(rts.size - usable.size),
            n_used=int(usable.size),
        )
    return usable


def audit_dataset(dataset: FOTDataset) -> DataQuality:
    """:meth:`DataQuality.assess` of ``dataset``, noting the tickets the
    response-time analyses drop for lack of an ``op_time``, as
    ``rt_distribution`` does for each closed category — what a report's
    quality section and :func:`repro.api.audit` state."""
    quality = DataQuality.assess(dataset)
    for category in (FOTCategory.FIXING, FOTCategory.FALSE_ALARM):
        subset = dataset.of_category(category)
        if len(subset):
            clean_response_times(subset, "response", quality)
    return quality


__all__ = [
    "DEFAULT_MAX_POSITION",
    "InsufficientDataError",
    "FieldCoverage",
    "Exclusion",
    "DataQuality",
    "clean_response_times",
    "audit_dataset",
]
