"""The four workloads, each measured through a product entry point.

Every workload has the same shape:

* ``ensure(work)`` caches what is built once per checkout (untimed);
* ``prepare(seed, seconds, work)`` builds or verifies this run's inputs
  (timed several times: the ``setup_s`` metric);
* ``measure(inputs, seconds)`` runs passes for ``seconds`` with tracing
  off and checks every output;
* ``trace(inputs, seconds, work)`` repeats the work with the layer
  functions wrapped and returns per-layer numbers, plus the tracing
  overhead: a traced pass minus an untraced one, both warm.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

import ingest
from fixtures import TraceFixture, ensure_trace, extract_corpus, verify_trace
from tracer import LayerStats, Target, Tracer

T = TypeVar("T")

#: Every function the traced run wraps, under the name it reports.
TARGETS: Tuple[Target, ...] = (
    Target("repro.core.storage:load_columnar", "core.storage.load_columnar"),
    Target("repro.fleet.inventory:Inventory.load_csv",
           "fleet.inventory.load_csv"),
    Target("repro.core.columns:ColumnStore.ticket", "core.columns.ticket",
           spans=False),
    Target("repro.core.dataset:FOTDataset.fingerprint",
           "core.dataset.fingerprint"),
    Target("repro.core.dataset:FOTDataset.concat_many",
           "core.dataset.concat_many"),
    Target("repro.robustness.quality:DataQuality.assess",
           "robustness.quality.assess"),
    *(
        Target(f"repro.analysis.{module}:{fn}", f"analysis.{module}.{fn}")
        for module, fn in (
            ("repeating", "repeating_stats"),
            ("correlated", "component_pair_counts"),
            ("spatial", "rack_position_tests"),
            ("concentration", "failure_concentration"),
            ("batch", "batch_failure_frequency"),
            ("temporal", "day_of_week_summary"),
            ("response", "rt_distribution"),
            ("overview", "categories"),
            ("overview", "components"),
            ("tbf", "analyze_tbf"),
        )
    ),
    # Section builders are wrapped under their module names only, so the
    # report's own section table (bound at import) stays untraced and
    # the section pass, which calls them by name, is what they time.
    *(
        Target(f"repro.analysis.full_report:{fn}", f"section.{name}")
        for name, fn in (
            ("table_i", "table_i"), ("table_ii", "table_ii"),
            ("mtbf", "mtbf"), ("fig3", "fig3"), ("fig7", "fig7"),
            ("table_v", "table_v"), ("table_vi", "table_vi"),
            ("fig9", "fig9"), ("table_iv", "table_iv"),
            ("quality", "quality_notes"),
        )
    ),
    Target("repro.serve.http:ServeApp.handle_async", "serve.http.handle"),
    Target("repro.robustness.batch:validate_batch", "robustness.batch.validate"),
    Target("repro.serve.store:LiveDataset.append", "serve.store.append"),
    Target("repro.serve.store:LiveDataset._compact", "serve.store.compact"),
    Target("repro.serve.deadletter:DeadLetterStore.put", "serve.deadletter.put"),
    *(
        Target(f"repro.simulation.trace:{fn}", f"simulation.{fn}")
        for fn in ("plan_trace", "run_shard", "assemble_store", "finish_trace")
    ),
    Target("repro.fleet.builder:build_fleet", "fleet.build_fleet"),
)

#: Report sections in the order ``full_report`` renders them.
SECTIONS = ("table_i", "table_ii", "mtbf", "fig3", "fig7", "table_v",
            "table_vi", "fig9", "table_iv", "quality")


@dataclass(frozen=True)
class Sizes:
    """Input sizes: the benchmark's, or tiny ones for its smoke test."""

    fixture: str = "paper"
    simulate_scale: float = 0.25
    #: part of the lint corpus to lint ("" for all of ``src/repro``)
    lint_subdir: str = ""


PAPER = Sizes()
TINY = Sizes(fixture="tiny", simulate_scale=0.01, lint_subdir="core")


#: ``(start, seconds)`` of one timed interval
Interval = Tuple[float, float]


@dataclass
class Outcome:
    """What a measured or traced run saw.

    ``latencies`` holds, per open-loop pass (one group for the closed-loop
    workloads), one ``(start, seconds)`` span per user request;
    ``passes`` one span per closed-loop pass, each over ``items`` items.
    Start times are ``time.perf_counter()`` readings.
    """

    latencies: List[List[Interval]]
    passes: List[Interval]
    items: int
    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)


def tail(values: Sequence[float]) -> float:
    """The highest whole percentile with at least ten samples beyond
    it (nearest rank); the maximum when there are ten or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1]
    percentile = math.floor(100.0 * (1.0 - 10.0 / n))
    return ordered[max(0, math.ceil(percentile / 100.0 * n) - 1)]


def tail_label(n: int) -> str:
    return "max" if n <= 10 else f"p{math.floor(100.0 * (1.0 - 10.0 / n))}"


def timings(outcome: Outcome, setups: List[Interval],
            convert: Callable[[float, float], float]) -> Dict[str, float]:
    """The timed end-to-end metrics, each span passed through
    ``convert(start, seconds)`` first.  Latency percentiles are taken
    per group of ``outcome.latencies``, then their median across groups."""
    def seconds(spans: List[Interval]) -> List[float]:
        return [convert(*span) for span in spans]

    groups = [seconds(group) for group in outcome.latencies]
    return {
        "setup_s": statistics.median(seconds(setups)),
        "latency_p50_ms":
            1000.0 * statistics.median(statistics.median(g) for g in groups),
        "latency_tail_ms": 1000.0 * statistics.median(tail(g) for g in groups),
        "throughput_per_s":
            outcome.items / statistics.median(seconds(outcome.passes)),
    }


def _passes(run_pass: Callable[[], object], seconds: float,
            min_passes: int = 2) -> Tuple[List[Interval], List[object]]:
    """Run ``run_pass`` until ``seconds`` have passed (at least
    ``min_passes`` times); the span and result of each pass."""
    spans: List[Interval] = []
    results: List[object] = []
    begun = time.perf_counter()
    while len(spans) < min_passes or time.perf_counter() - begun < seconds:
        started = time.perf_counter()
        results.append(run_pass())
        spans.append((started, time.perf_counter() - started))
    return spans, results


def _timed(run_pass: Callable[[], T]) -> Tuple[float, T]:
    """``(seconds, result)`` of one call."""
    started = time.perf_counter()
    result = run_pass()
    return time.perf_counter() - started, result


def _total(stats: Dict[str, LayerStats], name: str) -> float:
    return stats[name].total_s if name in stats else 0.0


def _mean_ms(stats: Dict[str, LayerStats], name: str) -> float:
    if name not in stats:
        return 0.0
    return 1000.0 * statistics.fmean(stats[name].durations)


def _median_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _traced(run_pass: Callable[[], T], tracers: List[Tracer]
            ) -> Tuple[float, T, Dict[str, LayerStats], Tracer]:
    """``(seconds, result, layer stats, tracer)`` of one call with every
    target wrapped, then restored; the tracer is appended to ``tracers``."""
    tracer = Tracer(TARGETS)
    with tracer:
        elapsed, result = _timed(run_pass)
    tracers.append(tracer)
    return elapsed, result, tracer.stats(), tracer


class Workload:
    name = ""
    #: modules a fresh interpreter imports during set-up
    modules: Tuple[str, ...] = ("repro",)

    def __init__(self, sizes: Sizes):
        self.sizes = sizes
        #: tracers of the last traced run, for writing spans out
        self.tracers: List[Tracer] = []

    def ensure(self, work: Path) -> None:
        """Build what is cached once per checkout."""

    def prepare(self, seed: int, seconds: float, work: Path) -> object:
        raise NotImplementedError

    def measure(self, inputs: object, seconds: float, work: Path) -> Outcome:
        raise NotImplementedError

    def trace(self, inputs: object, seconds: float, work: Path
              ) -> Tuple[Outcome, Dict[str, float]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
class AnalyzePaper(Workload):
    """``fouryears analyze --inventory``: load the pinned paper-scale
    trace and its inventory, then render the full report, uncached,
    over a fresh dataset each pass."""

    name = "analyze_paper"
    modules = ("repro", "repro.fleet.inventory")

    def ensure(self, work: Path) -> None:
        ensure_trace(self.sizes.fixture, work)

    def prepare(self, seed: int, seconds: float, work: Path) -> TraceFixture:
        fixture = ensure_trace(self.sizes.fixture, work)
        verify_trace(self.sizes.fixture, fixture)
        return fixture

    @staticmethod
    def _pass(fixture: TraceFixture) -> Tuple[Tuple[str, ...], Tuple[str, ...], str]:
        """One ``analyze``; returns section names, skipped sections and
        the report text's sha256 (not the report, so passes do not pile
        up objects the next pass's garbage collection must walk)."""
        import repro
        from repro.fleet.inventory import Inventory

        dataset = repro.load(fixture.trace)
        inventory = Inventory.load_csv(fixture.inventory)
        report = repro.full_report(dataset, inventory=inventory)
        return (
            tuple(s.name for s in report.sections),
            tuple(s.name for s in report.sections if s.skipped),
            hashlib.sha256(report.text().encode("utf-8")).hexdigest(),
        )

    @staticmethod
    def _check(summaries: List[Tuple]) -> Tuple[int, List[str], str]:
        """Every section present and none skipped (the quality section
        is rendered only for dirty data), and the same text each pass."""
        errors: List[str] = []
        for names, skipped, digest in summaries:
            if names not in (SECTIONS[:-1], SECTIONS) or skipped \
                    or digest != summaries[0][2]:
                errors.append(
                    f"report sections {list(names)}, skipped {list(skipped)}, "
                    f"sha256 {digest[:12]} (pass 1: {summaries[0][2][:12]})"
                )
        return len(errors), errors, summaries[0][2]

    def measure(self, fixture: TraceFixture, seconds: float, work: Path
                ) -> Outcome:
        spans, summaries = _passes(lambda: self._pass(fixture), seconds)
        failed, errors, digest = self._check(summaries)
        return Outcome(
            latencies=[spans], passes=spans, items=fixture.tickets,
            attempted=len(spans), failed=failed, errors=errors,
            notes={"report_sha256": digest},
        )

    def trace(self, fixture: TraceFixture, seconds: float, work: Path
              ) -> Tuple[Outcome, Dict[str, float]]:
        self.tracers = []
        layers = self._section_pass(fixture)
        # The section pass warmed the process; now one untraced and one
        # traced analyze, so their difference is the tracing overhead.
        untraced, summary = _timed(lambda: self._pass(fixture))
        traced, traced_summary, stats, tracer = _traced(
            lambda: self._pass(fixture), self.tracers
        )
        layers.update(_analysis_layers(stats, tracer))
        layers["trace.overhead_s"] = traced - untraced
        failed, errors, digest = self._check([summary, traced_summary])
        outcome = Outcome(
            latencies=[], passes=[], items=fixture.tickets,
            attempted=2, failed=failed, errors=errors,
            notes={"report_sha256": digest},
        )
        return outcome, layers

    def _section_pass(self, fixture: TraceFixture) -> Dict[str, float]:
        """Each public section builder over one fresh dataset, in report
        order: inclusive and self time per section."""
        import repro
        from repro.analysis import full_report as sections
        from repro.fleet.inventory import Inventory

        tracer = Tracer(TARGETS)
        with tracer:
            dataset = repro.load(fixture.trace)
            inventory = Inventory.load_csv(fixture.inventory)
            for name in SECTIONS:
                fn = "quality_notes" if name == "quality" else name
                args = (inventory,) if name == "table_iv" else ()
                getattr(sections, fn)(dataset, *args)
        self.tracers.append(tracer)
        stats = tracer.stats()
        layers: Dict[str, float] = {}
        for name in SECTIONS:
            span = stats.get(f"section.{name}")
            layers[f"section.{name}_s"] = span.total_s if span else 0.0
            layers[f"section.{name}_self_s"] = span.self_s if span else 0.0
        return layers


def _analysis_layers(stats: Dict[str, LayerStats], tracer: Tracer
                     ) -> Dict[str, float]:
    layers = {
        f"{name}_s": _total(stats, name)
        for name in (
            "core.storage.load_columnar", "fleet.inventory.load_csv",
            "analysis.repeating.repeating_stats",
            "analysis.correlated.component_pair_counts",
            "analysis.spatial.rack_position_tests",
            "analysis.concentration.failure_concentration",
            "analysis.batch.batch_failure_frequency",
            "analysis.temporal.day_of_week_summary",
            "analysis.response.rt_distribution",
            "analysis.overview.categories",
            "analysis.overview.components",
            "analysis.tbf.analyze_tbf",
            "robustness.quality.assess",
            "core.dataset.fingerprint",
            "core.dataset.concat_many",
        )
    }
    layers["robustness.quality.assess_calls"] = tracer.calls(
        "robustness.quality.assess")
    layers["core.columns.ticket_calls"] = tracer.calls("core.columns.ticket")
    return layers


# ---------------------------------------------------------------------------
class IngestStream(Workload):
    """Chaos-laden ticket batches through the ingestion service: an
    open loop at a fixed offered rate with concurrent headline reads,
    then a closed-loop replay for capacity."""

    name = "ingest_stream"
    modules = ("repro", "repro.serve.http")

    def prepare(self, seed: int, seconds: float, work: Path) -> ingest.Stream:
        return ingest.build_stream(int(ingest.OFFERED_TPS * seconds), seed)

    def _outcome(self, stream: ingest.Stream, opens: List[ingest.PhaseResult],
                 replays: List[ingest.PhaseResult]) -> Outcome:
        errors = []
        for open_ in opens:
            errors += [f"open loop: {e}"
                       for e in ingest.ledger_errors(open_, stream)]
            if len(open_.latencies) != stream.batches - open_.failed_batches:
                errors.append("a batch never reached a disposition")
        for replay in replays:
            errors += [f"replay: {e}"
                       for e in ingest.ledger_errors(replay, stream)]
        reads = [r for open_ in opens for r in open_.read_latencies_s]
        lag_max_s = max(open_.lag_max_s for open_ in opens)
        return Outcome(
            latencies=[open_.latencies for open_ in opens],
            passes=[(r.started, r.elapsed_s) for r in replays],
            items=stream.tickets,
            attempted=(len(opens) + len(replays)) * stream.batches,
            failed=sum(r.failed_batches for r in (*opens, *replays)),
            errors=errors,
            notes={
                "offered_tps": ingest.OFFERED_TPS,
                "offered_rate_reason": ingest.OFFERED_RATE_REASON,
                "batches": stream.batches,
                "tickets": stream.tickets,
                "reads": len(reads),
                "read_p50_ms": _median_ms(reads),
                "lag_max_ms": 1000.0 * lag_max_s,
                "rejected_429": sum(open_.rejected_429 for open_ in opens),
                # A generator that ran as late as the tail measured itself.
                "lag_rivals_tail": lag_max_s >= 0.5 * min(
                    tail([latency for _, latency in open_.latencies] or [0.0])
                    for open_ in opens),
            },
        )

    def measure(self, stream: ingest.Stream, seconds: float, work: Path
                ) -> Outcome:
        dead_letters = work / "dead_letters"
        opens = [ingest.open_loop(stream, dead_letters)
                 for _ in range(ingest.OPEN_PASSES)]
        replays = [ingest.closed_loop(stream, dead_letters)
                   for _ in range(ingest.REPLAYS)]
        return self._outcome(stream, opens, replays)

    def trace(self, stream: ingest.Stream, seconds: float, work: Path
              ) -> Tuple[Outcome, Dict[str, float]]:
        self.tracers = []
        dead_letters = work / "dead_letters"
        _, open_, stats, tracer = _traced(
            lambda: ingest.open_loop(stream, dead_letters), self.tracers
        )
        untraced = ingest.closed_loop(stream, dead_letters)
        _, closed, _, _ = _traced(
            lambda: ingest.closed_loop(stream, dead_letters), self.tracers
        )
        cache = open_.snapshot["cache"]
        lookups = cache["hits"] + cache["misses"]
        counters = open_.counters
        layers = _analysis_layers(stats, tracer)
        layers.update({
            "engine.cache.hits": cache["hits"],
            "engine.cache.misses": cache["misses"],
            "engine.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
            "serve.http.handle_ms": _mean_ms(stats, "serve.http.handle"),
            "serve.http.rejected_429": open_.rejected_429,
            "serve.queue.depth_max": open_.snapshot["queue"]["peak_depth"],
            "robustness.batch.validate_ms": _mean_ms(
                stats, "robustness.batch.validate"),
            "robustness.batch.quarantined_tickets":
                counters["tickets_quarantined"],
            "robustness.batch.dead_lettered_batches":
                counters["batches_dead_lettered"],
            "serve.store.append_ms": _mean_ms(stats, "serve.store.append"),
            "serve.store.compact_ms": _mean_ms(stats, "serve.store.compact"),
            "serve.store.compactions": counters["compactions"],
            "serve.router.refresh_ms": _median_ms(open_.refresh_s),
            "serve.router.refreshes": counters["refreshes"],
            "serve.retry.retries": counters["retries"],
            "serve.deadletter.put_ms": _mean_ms(stats, "serve.deadletter.put"),
            "serve.read_p50_ms": _median_ms(open_.read_latencies_s),
            "loadgen.lag_max_ms": 1000.0 * open_.lag_max_s,
            "trace.overhead_s": closed.elapsed_s - untraced.elapsed_s,
        })
        return self._outcome(stream, [open_], [closed]), layers



# ---------------------------------------------------------------------------
class SimulateQuarter(Workload):
    """``repro.simulate(scale=0.25, seed=20170626)``, default policy.

    The scenario seed is pinned, not taken from ``--seed``: the cost of a
    simulation depends on its seed (2.0 s of planning for one seed, 3.7 s
    for another), so a varied seed would make the run-to-run spread
    measure the seeds rather than the code.

    The benchmark runs on one CPU, so the ``jobs="auto"`` planner sees
    one usable CPU and plans serially every run; unpinned on a 2-core
    host it sits at its serial/pool threshold at this scale and flips
    between the two from run to run.
    """

    name = "simulate_quarter"
    seed = 20170626

    def prepare(self, seed: int, seconds: float, work: Path):
        from repro.config import paper_scenario

        return paper_scenario(scale=self.sizes.simulate_scale, seed=self.seed)

    @staticmethod
    def _pass(scenario) -> Tuple[str, int, str, int]:
        """One ``simulate``; returns the trace fingerprint, its ticket
        count, and the planner's reason and job count."""
        import repro

        trace = repro.simulate(scenario)
        plan = trace.telemetry.plan
        return trace.dataset.fingerprint(), len(trace.dataset), plan.reason, plan.jobs

    @staticmethod
    def _check(summaries: List[Tuple]) -> Tuple[int, List[str]]:
        failed = sum(1 for s in summaries if s[:2] != summaries[0][:2])
        errors = [f"{failed} passes gave another trace than pass 1"] if failed else []
        return failed, errors

    def measure(self, scenario, seconds: float, work: Path) -> Outcome:
        # Three passes at least: with two, one pass caught in a slow
        # episode the probe under-corrects moves the median by half.
        spans, summaries = _passes(lambda: self._pass(scenario), seconds,
                                   min_passes=3)
        failed, errors = self._check(summaries)
        fingerprint, tickets, _, _ = summaries[0]
        return Outcome(
            latencies=[spans], passes=spans, items=tickets,
            attempted=len(spans), failed=failed, errors=errors,
            notes={"trace_fingerprint": fingerprint, "tickets": tickets,
                   "plans": sorted({s[2] for s in summaries})},
        )

    def trace(self, scenario, seconds: float, work: Path
              ) -> Tuple[Outcome, Dict[str, float]]:
        self.tracers = []
        summaries = [self._pass(scenario)]  # warm-up
        untraced, summary = _timed(lambda: self._pass(scenario))
        traced, traced_summary, stats, _ = _traced(
            lambda: self._pass(scenario), self.tracers
        )
        summaries += [summary, traced_summary]
        failed, errors = self._check(summaries)
        fingerprint, tickets, _, jobs = summaries[-1]
        layers = {
            f"{name}_s": _total(stats, name)
            for name in (
                "simulation.plan_trace", "simulation.run_shard",
                "simulation.assemble_store", "simulation.finish_trace",
                "fleet.build_fleet",
            )
        }
        layers["engine.adaptive.jobs"] = jobs
        layers["trace.overhead_s"] = traced - untraced
        outcome = Outcome(
            latencies=[], passes=[], items=tickets,
            attempted=len(summaries), failed=failed, errors=errors,
            notes={"trace_fingerprint": fingerprint},
        )
        return outcome, layers


# ---------------------------------------------------------------------------
class LintCorpus(Workload):
    """``run_lint`` with the full rule catalogue (``engine="perf"``)
    over the pinned copy of ``src/repro``."""

    name = "lint_corpus"
    modules = ("repro", "repro.devtools.lint")

    def prepare(self, seed: int, seconds: float, work: Path) -> Path:
        return extract_corpus(work) / self.sizes.lint_subdir

    @staticmethod
    def _pass(corpus: Path) -> Tuple[int, int]:
        """One lint run; ``(files, findings)``, or ``(-1, -1)`` when it
        raised (``run_lint`` reports bad input by raising SystemExit)."""
        from repro.devtools.lint import collect_files, run_lint

        try:
            result = run_lint([str(corpus)], engine="perf")
        except (Exception, SystemExit) as exc:
            print(f"  lint raised: {exc!r}")
            return -1, -1
        return len(collect_files([str(corpus)])), len(result.new)

    @staticmethod
    def _check(results: List[Tuple[int, int]]) -> Tuple[int, List[str]]:
        failed = sum(1 for r in results if r[0] < 0 or r != results[0])
        return failed, ([f"{failed} passes raised or disagreed with pass 1"]
                        if failed else [])

    def measure(self, corpus: Path, seconds: float, work: Path) -> Outcome:
        spans, results = _passes(lambda: self._pass(corpus), seconds)
        failed, errors = self._check(results)
        files, findings = results[0]
        return Outcome(
            latencies=[spans], passes=spans, items=files,
            attempted=len(spans), failed=failed, errors=errors,
            notes={"files": files, "findings": findings},
        )

    def trace(self, corpus: Path, seconds: float, work: Path
              ) -> Tuple[Outcome, Dict[str, float]]:
        self.tracers = []
        results = [self._pass(corpus)]  # warm-up
        untraced, result = _timed(lambda: self._pass(corpus))
        traced, traced_result, _, _ = _traced(
            lambda: self._pass(corpus), self.tracers
        )
        results += [result, traced_result]
        failed, errors = self._check(results)
        files, findings = results[0]
        layers = {
            "devtools.files": files,
            "devtools.findings": findings,
            "trace.overhead_s": traced - untraced,
        }
        outcome = Outcome(
            latencies=[], passes=[], items=files,
            attempted=len(results), failed=failed, errors=errors,
        )
        return outcome, layers


WORKLOADS = {
    cls.name: cls
    for cls in (AnalyzePaper, IngestStream, SimulateQuarter, LintCorpus)
}
