"""The single documented entry surface of the toolkit.

Everything a downstream user does — load a ticket dump, simulate a
fleet scenario, run analyses, render the paper report — goes through
four verbs::

    import repro

    trace = repro.simulate(scale=0.05, seed=7)   # jobs="auto" by default
    dataset = repro.load("dump.jsonl", lenient=True)
    results = repro.analyze(dataset, "categories", "components", "mtbf")
    print(repro.full_report(dataset).text())

*How* the verbs execute is carried by one value, an
:class:`~repro.engine.policy.ExecutionPolicy`::

    policy = repro.ExecutionPolicy(
        jobs="auto",                      # or an int, or "serial"
        cache=repro.AnalysisCache(),      # memoize analysis results
        telemetry_sink=repro.engine.InMemoryTelemetrySink(),
    )
    trace = repro.simulate(scale=0.05, seed=7, policy=policy)
    report = repro.full_report(trace.dataset, policy=policy)
    print(policy.telemetry_sink.last.plan.reason)   # why serial/parallel

``jobs="auto"`` (the default) lets the adaptive planner probe usable
cores and per-shard cost, so generation is parallel exactly when that
pays — output is bit-identical to serial either way.

The facade wraps the per-module APIs (``repro.analysis.*``,
``repro.core.io``, ``repro.simulation.trace``) without hiding them;
power users can still import the modules directly.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:
    from repro.config import ScenarioConfig
    from repro.fleet.inventory import Inventory
    from repro.simulation.trace import SyntheticTrace

from repro.analysis import (
    batch,
    compare as _compare_mod,
    concentration,
    correlated,
    overview,
    repeating,
    response,
    tbf,
    temporal,
)
from repro.analysis.compare import DatasetComparison, compare_datasets
from repro.analysis.full_report import (
    FullReport,
    ReportSection,
    full_report as _full_report,
)
from repro.analysis.mining import mine_incidents
from repro.analysis.prediction import predict_and_evaluate
from repro.analysis.report import format_percent, format_table
from repro.core import io as _io
from repro.core.dataset import FOTDataset
from repro.core.types import FOTCategory
from repro.engine import AnalysisCache
from repro.engine.policy import DEFAULT_POLICY, ExecutionPolicy
from repro.engine.telemetry import (
    KIND_ANALYZE,
    KIND_COMPARE,
    KIND_REPORT,
    RunTelemetry,
    StageTiming,
)
from repro.robustness.quality import DataQuality
from repro.robustness.quarantine import QuarantineReport
from repro.simulation.trace import generate_trace

__all__ = [
    "load",
    "convert",
    "audit",
    "simulate",
    "analyze",
    "full_report",
    "compare",
    "AuditResult",
    "AnalysisCache",
    "DatasetComparison",
    "ExecutionPolicy",
    "FullReport",
    "ReportSection",
    "compare_datasets",
    "mine_incidents",
    "predict_and_evaluate",
    "format_table",
    "format_percent",
    "ANALYSES",
]


def _resolve_policy(policy: Optional[ExecutionPolicy]) -> ExecutionPolicy:
    return DEFAULT_POLICY if policy is None else policy


def load(path: Union[str, Path], *, lenient: bool = False) -> FOTDataset:
    """Load a ticket dump (.jsonl, .csv, or a .fourcol columnar dir).

    Strict by default: malformed lines raise ``ValueError``.  With
    ``lenient=True`` malformed lines are quarantined and the salvageable
    remainder is returned — use :func:`audit` when you also need the
    quarantine report.

    Columnar datasets (written by :func:`convert` or ``fouryears
    convert``) open by memory-mapping in near-constant time; prefer them
    for anything you load more than once.
    """
    if not lenient:
        return _io.load(path)
    dataset, _ = _io.load(path, strict=False)
    return dataset


def convert(
    src: Union[str, Path],
    dst: Union[str, Path],
    *,
    lenient: bool = False,
) -> QuarantineReport:
    """Convert a ticket dump between formats (csv/jsonl ⇄ columnar).

    The common direction is text → ``.fourcol``: pay the parse once,
    then every subsequent :func:`load` of ``dst`` memory-maps instead of
    parsing.  Converting columnar → text exports for interchange.

    With ``lenient=True`` malformed source lines are quarantined rather
    than fatal; the returned :class:`~repro.robustness.quarantine.
    QuarantineReport` says what was skipped or repaired (it is empty for
    a strict conversion).
    """
    if lenient:
        dataset, report = _io.load(src, strict=False)
    else:
        dataset = _io.load(src)
        report = QuarantineReport(str(src))
        report.n_loaded = len(dataset)
    _io.save(dataset, dst)
    return report


@dataclass(frozen=True)
class AuditResult:
    """A lenient load plus its data-quality audit."""

    dataset: FOTDataset
    quarantine: QuarantineReport
    quality: DataQuality

    @property
    def dirty(self) -> bool:
        return self.quarantine.n_skipped > 0 or self.quality.grade == "poor"

    def rows(self) -> List[Tuple[str, str]]:
        return [
            ("tickets", str(len(self.dataset))),
            ("skipped lines", str(self.quarantine.n_skipped)),
            ("quality grade", self.quality.grade),
        ]


def audit(path: Union[str, Path]) -> AuditResult:
    """Leniently load ``path`` and assess what survived.

    Raises ``ValueError`` for structurally unreadable dumps (unknown
    format, missing required CSV columns).
    """
    dataset, quarantine = _io.load(path, strict=False)
    quality = DataQuality.assess(dataset)
    # Probe the degradation-aware analyses so their exclusions show up
    # in the assessment even though the statistics are discarded here.
    for category in (FOTCategory.FIXING, FOTCategory.FALSE_ALARM):
        with contextlib.suppress(ValueError):
            response.rt_distribution(dataset, category, quality=quality)
    return AuditResult(dataset=dataset, quarantine=quarantine, quality=quality)


def simulate(
    scenario: Optional["ScenarioConfig"] = None,
    *,
    scale: float = 1.0,
    seed: int = 20170626,
    policy: Optional[ExecutionPolicy] = None,
) -> "SyntheticTrace":
    """Generate a synthetic FOT trace.

    Args:
        scenario: a :class:`~repro.config.ScenarioConfig`; when omitted,
            the paper scenario at ``scale``/``seed`` is used.
        policy: the :class:`ExecutionPolicy`; defaults to
            ``ExecutionPolicy(jobs="auto")``, which lets the adaptive
            planner probe cores and shard costs and pick serial or a
            sized pool.  Output is bit-identical for every plan; the
            chosen plan and per-shard timings land on
            ``trace.telemetry`` (and the policy's telemetry sink).

    Returns the full trace result (``.dataset``, ``.inventory``,
    ``.fleet``, ``.fms_stats``, ``.telemetry``).
    """
    policy = _resolve_policy(policy)
    if scenario is None:
        from repro.config import paper_scenario

        scenario = paper_scenario(scale=scale, seed=seed)
    return generate_trace(scenario, policy=policy)


#: Named analyses runnable through :func:`analyze`: name -> (fn, params).
ANALYSES: Dict[str, Tuple[Any, Dict[str, Any]]] = {
    "categories": (overview.categories, {}),
    "components": (overview.components, {}),
    "detection_sources": (overview.detection_sources, {}),
    "mtbf": (tbf.analyze_tbf, {}),
    "day_of_week": (temporal.day_of_week_summary, {}),
    "concentration": (concentration.failure_concentration, {}),
    "repeats": (repeating.repeating_stats, {}),
    "batches": (batch.batch_failure_frequency, {}),
    "correlated": (correlated.component_pair_counts, {}),
    "response_fixing": (response.rt_distribution,
                        {"category": FOTCategory.FIXING}),
}


def analyze(
    dataset: FOTDataset,
    *analyses: str,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[str, Any]:
    """Run named analyses over ``dataset``; all of them when none named.

    The policy's ``cache`` memoizes results by content fingerprint and
    its ``telemetry_sink`` receives one per-analysis-timed
    :class:`~repro.engine.telemetry.RunTelemetry` document.

    Returns ``{name: result}``; see :data:`ANALYSES` for the registry.
    """
    policy = _resolve_policy(policy)
    names = analyses or tuple(ANALYSES)
    unknown = [n for n in names if n not in ANALYSES]
    if unknown:
        raise ValueError(
            f"unknown analyses {unknown}; choose from {sorted(ANALYSES)}"
        )
    results: Dict[str, Any] = {}
    stages: List[StageTiming] = []
    for name in names:
        fn, params = ANALYSES[name]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if policy.cache is not None:
            results[name] = policy.cache.call(fn, dataset, **params)
        else:
            results[name] = fn(dataset, **params)
        stages.append(
            StageTiming(
                name,
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
            )
        )
    _record_stages(policy, KIND_ANALYZE, stages)
    return results


def _record_stages(
    policy: ExecutionPolicy, kind: str, stages: List[StageTiming]
) -> None:
    """Emit one telemetry document for a timed facade verb (no-op
    without a sink)."""
    if policy.telemetry_sink is None:
        return
    total = StageTiming(
        "total",
        sum(s.wall_seconds for s in stages),
        sum(s.cpu_seconds for s in stages),
    )
    policy.record(
        RunTelemetry(
            kind=kind,
            stages=(*stages, total),
            cache=(
                None if policy.cache is None
                else policy.cache.stats.as_dict()
            ),
        )
    )


def full_report(
    dataset: FOTDataset,
    *,
    inventory: Optional["Inventory"] = None,
    policy: Optional[ExecutionPolicy] = None,
    headline_only: bool = False,
) -> FullReport:
    """Render the paper report over ``dataset``.

    Args:
        inventory: fleet inventory; enables the Table IV section.
        policy: the :class:`ExecutionPolicy`; its ``cache`` memoizes
            section bodies on the dataset's content fingerprint and its
            ``telemetry_sink`` receives a timed run document (with the
            cache's hit counters).
        headline_only: only Tables I/II and the MTBF line (the CLI
            ``report`` subcommand).
    """
    policy = _resolve_policy(policy)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report = _full_report(
        dataset,
        inventory=inventory,
        cache=policy.cache,
        headline_only=headline_only,
    )
    _record_stages(
        policy,
        KIND_REPORT,
        [
            StageTiming(
                "full_report",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
            )
        ],
    )
    return report


def compare(
    left: FOTDataset,
    right: FOTDataset,
    *,
    policy: Optional[ExecutionPolicy] = None,
) -> DatasetComparison:
    """Compare two FOT datasets across the paper's dimensions."""
    policy = _resolve_policy(policy)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = _compare_mod.compare_datasets(left, right)
    _record_stages(
        policy,
        KIND_COMPARE,
        [
            StageTiming(
                "compare",
                time.perf_counter() - wall0,
                time.process_time() - cpu0,
            )
        ],
    )
    return result
