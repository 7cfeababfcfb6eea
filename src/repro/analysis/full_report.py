"""The full paper report as one composable, cacheable artifact.

Each section of the CLI report/analyze output is built by a named
module-level function ``fn(dataset) -> str`` (rendered body text).
Named top-level builders matter: the
:class:`~repro.engine.cache.AnalysisCache` keys entries by function
``module.qualname`` plus the dataset view fingerprint, so a warm cache
re-renders a full report with zero analysis recompute while a filter
tweak invalidates exactly the sections that read the changed view.

Sections that cannot be sustained by the data raise
:class:`~repro.robustness.quality.InsufficientDataError`; the report
records them as skipped instead of aborting.  ``table_iv`` additionally
needs the fleet :class:`~repro.fleet.inventory.Inventory`, which has no
content fingerprint — it is always computed, never cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis import (
    batch,
    concentration,
    correlated,
    overview,
    repeating,
    response,
    spatial,
    tbf,
    temporal,
)
from repro.analysis.report import format_percent, format_profile, format_table
from repro.core.dataset import FOTDataset
from repro.core.types import ComponentClass, FOTCategory
from repro.robustness.quality import InsufficientDataError, audit_dataset


@dataclass(frozen=True)
class ReportSection:
    """One rendered block of the report."""

    name: str
    body: str
    headline: bool = False
    skipped: bool = False

    def text(self) -> str:
        return f"[skipped] {self.body}" if self.skipped else self.body

    def rows(self) -> List[Tuple[str, str]]:
        status = "skipped" if self.skipped else "ok"
        return [(self.name, status)]


@dataclass(frozen=True)
class FullReport:
    """An ordered tuple of report sections."""

    sections: Tuple[ReportSection, ...]

    def text(self) -> str:
        return "\n\n".join(s.text() for s in self.sections)

    def rows(self) -> List[Tuple[str, str]]:
        return [row for s in self.sections for row in s.rows()]

    def __iter__(self):
        return iter(self.sections)

    def __len__(self) -> int:
        return len(self.sections)


# ---------------------------------------------------------------------------
# Section builders.  Keep these module-level and dataset-only so the
# analysis cache can key them; bodies reproduce the historical CLI text.

def table_i(dataset: FOTDataset) -> str:
    cats = overview.categories(dataset)
    return format_table(
        ["category", "share"], cats.rows(), title="Table I — FOT categories"
    )


def table_ii(dataset: FOTDataset) -> str:
    comp = overview.components(dataset)
    return format_table(
        ["component", "share"], comp.rows(),
        title="Table II — failures by component",
    )


def mtbf(dataset: FOTDataset) -> str:
    analysis = tbf.analyze_tbf(dataset)
    rejected = {name: t.reject_at(0.05) for name, t in analysis.tests.items()}
    return (
        f"MTBF: {analysis.mtbf_minutes:.1f} minutes over "
        f"{analysis.n_gaps + 1} failures\n"
        f"TBF fits rejected at 0.05: {rejected}"
    )


def fig3(dataset: FOTDataset) -> str:
    blocks = []
    for cls, profile in temporal.day_of_week_summary(dataset, 4).items():
        blocks.append(
            format_profile(
                profile.labels,
                profile.fractions,
                title=f"Figure 3 — {cls.value} by day of week ({profile.test})",
            )
        )
    return "\n\n".join(blocks)


def fig7(dataset: FOTDataset) -> str:
    curve = concentration.failure_concentration(dataset)
    rep = repeating.repeating_stats(dataset)
    return (
        f"Figure 7 — concentration: top 2 % of ever-failed servers hold "
        f"{format_percent(curve.share_of_top(0.02))} of failures "
        f"(gini {curve.gini:.3f})\n"
        f"Repeats: {format_percent(rep.repeat_free_fraction)} of fixed "
        f"components never repeat; "
        f"{format_percent(rep.repeating_server_fraction)} of failed "
        f"servers repeat; worst server has {rep.max_failures_single_server} failures"
    )


def table_v(dataset: FOTDataset) -> str:
    freq = batch.batch_failure_frequency(dataset)
    rows = [
        (cls.value,)
        + tuple(format_percent(freq[cls][n]) for n in batch.TABLE_V_THRESHOLDS)
        for cls in ComponentClass
    ]
    return format_table(
        ["component", "r100", "r200", "r500"],
        rows,
        title="Table V — batch failure frequency",
    )


def table_vi(dataset: FOTDataset) -> str:
    corr = correlated.component_pair_counts(dataset)
    return (
        f"Correlated pairs: {corr.total_pairs()} "
        f"({format_percent(corr.correlated_server_fraction)} of failed "
        f"servers; misc share {format_percent(corr.misc_share)})"
    )


def fig9(dataset: FOTDataset) -> str:
    fixing = response.rt_distribution(dataset, FOTCategory.FIXING)
    return (
        f"RT (D_fixing): median {fixing.median_days:.1f} d, mean "
        f"{fixing.mean_days:.1f} d, >140 d: {format_percent(fixing.tail_140d)}"
    )


def quality_notes(dataset: FOTDataset) -> str:
    """Data-quality assessment; empty string when the data is clean."""
    quality = audit_dataset(dataset)
    if quality.grade == "ok" and not quality.exclusions:
        return ""
    return quality.format()


def table_iv(dataset: FOTDataset, inventory) -> str:
    """Rack-position chi-square tests; needs the inventory (uncached).
    What the tests left out is listed under the table."""
    summary = spatial.rack_position_tests(dataset, inventory)
    table = format_table(
        ["p-value bucket", "data centers"],
        list(summary.bucket_counts().items()),
        title="Table IV — rack-position chi-square results",
    )
    return "\n".join([table, *(excl.format() for excl in summary.exclusions)])


#: (name, builder, part of the headline-only report?)
_SECTIONS = (
    ("table_i", table_i, True),
    ("table_ii", table_ii, True),
    ("mtbf", mtbf, True),
    ("fig3", fig3, False),
    ("fig7", fig7, False),
    ("table_v", table_v, False),
    ("table_vi", table_vi, False),
    ("fig9", fig9, False),
)


def full_report(
    dataset: FOTDataset,
    *,
    inventory=None,
    cache=None,
    headline_only: bool = False,
) -> FullReport:
    """Render the paper report over ``dataset``.

    Args:
        inventory: fleet inventory; enables the Table IV section.
        cache: an :class:`~repro.engine.cache.AnalysisCache`; section
            bodies are memoized on the dataset's content fingerprint.
        headline_only: only Tables I/II and the MTBF line (the CLI
            ``report`` subcommand).
    """
    sections: List[ReportSection] = []

    def build(name: str, fn, headline: bool, *args) -> None:
        try:
            if cache is not None and not args:
                body = cache.call(fn, dataset)
            else:
                body = fn(dataset, *args)
        except InsufficientDataError as exc:
            sections.append(
                ReportSection(name=name, body=str(exc), headline=headline,
                              skipped=True)
            )
            return
        if body:
            sections.append(ReportSection(name=name, body=body, headline=headline))

    for name, fn, headline in _SECTIONS:
        if headline_only and not headline:
            continue
        build(name, fn, headline)
    if inventory is not None and not headline_only:
        build("table_iv", table_iv, False, inventory)
    if not headline_only:
        build("quality", quality_notes, False)
    return FullReport(sections=tuple(sections))


__all__ = ["FullReport", "ReportSection", "full_report"]
