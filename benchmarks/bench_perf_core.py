"""Core-substrate performance benchmark: load -> filter -> group -> report.

Unlike the figure/table benches (which validate statistics), this script
times the *dataset substrate itself* over synthetic ticket volumes of
50k / 290k / 1M and records the repo's performance trajectory in
``BENCH_perf.json``.  It deliberately sticks to the public
:class:`~repro.core.dataset.FOTDataset` API that is stable across the
row-first and columnar implementations, so the same script produces the
before/after numbers of the columnar refactor.

Stages timed per tier:

* ``load``    — parse raw record dicts into a dataset
  (:func:`repro.core.io.parse_records`, strict mode).  The ``10m``
  tier is columnar-only: its ``load`` stage is the
  :func:`repro.core.storage.load_columnar` mmap open instead (building
  ten million record dicts would benchmark the Python allocator, not
  the substrate), and the tier entry carries ``"format": "columnar"``
  plus the measured ``load_fraction`` of the tier total.
* ``save_columnar`` / ``load_columnar`` — round-trip through the
  binary columnar store: a cold :func:`~repro.core.storage.
  save_columnar` into a scratch directory, then the best-of mmap
  re-open of the tier's cached fixture.  ``load_speedup`` records
  text-parse time over columnar-open time.
* ``filter``  — the subset chain every analysis opens with:
  ``failures()``, ``of_component``, ``of_idc``, ``of_product_line``,
  ``of_source``, ``between``, ``where(mask)``, ``with_op_time``.
* ``group``   — every ``by_*`` grouping plus ``sorted_by_time``.
* ``report``  — the full headline-report pipeline the CLI runs:
  overview breakdowns, TBF fits, ``summary()``, repeat deduplication
  and the :class:`~repro.robustness.quality.DataQuality` assessment.

Columnar fixtures are cached under ``.bench_fixtures/`` keyed by the
storage schema fingerprint, so re-runs (and the CI cache) skip the
synthesis+save; a schema change rolls the key and rebuilds them.

With ``--engine``, each tier additionally exercises the
:mod:`repro.engine` execution layer against the *real* simulation
(tier -> scenario scale), recording:

* ``gen_serial`` / ``gen_parallel`` — trace generation at ``jobs=1``
  vs. ``--jobs N`` (sharded output is checked column-for-column against
  serial; ``--check-equivalence`` turns a mismatch into a failure);
* ``report_cold`` / ``report_warm`` — the full paper report through a
  cold vs. warmed :class:`~repro.engine.cache.AnalysisCache`
  (``--min-cache-speedup X`` turns an insufficient warm-cache speedup
  into a failure; ``--min-gen-speedup X`` does the same for sharded
  generation, skipped automatically when the machine has fewer cores
  than ``--jobs``).

With ``--adaptive``, each engine-eligible tier additionally runs the
self-tuning planner end to end: ``jobs="serial"`` vs. ``jobs="auto"``
through one :class:`~repro.engine.policy.ExecutionPolicy`, recording the
plan the planner chose (mode/jobs/reason from the run telemetry) and the
measured serial/auto wall-time ratio.  ``--min-parallel-ratio X`` turns
that into the CI never-slower gate: when the planner picked a parallel
plan the measured ratio must be at least ``X`` (1.0 = "auto is never
slower than serial"); when it picked serial the gate passes by
construction — serial-auto *is* the serial code path, so any wall-time
delta is timing noise, not a planner failure.  Bit-inequality between
the two traces always fails the gate.

Usage::

    # record the current implementation at two tiers
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 50k,290k --label current

    # CI regression gate: fresh 50k text load and report vs. the
    # checked-in numbers
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 50k --check --max-regression 2.0

    # CI engine gate: sharded equivalence + warm-cache speedup
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 50k --engine --engine-scale 0.02 --jobs 2 --no-update \
        --check-equivalence --min-cache-speedup 5.0

    # CI adaptive gate: jobs="auto" must never lose to serial
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 50k --adaptive --engine-scale 0.02 --no-update \
        --min-parallel-ratio 1.0

    # CI storage gate: columnar open must beat text parse 20x, and the
    # 10M tier must spend <1% of its wall time in load
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 50k --no-update --min-load-speedup 20.0
    PYTHONPATH=src python benchmarks/bench_perf_core.py \
        --tiers 10m --repeats 1 --no-update --max-load-fraction 0.01
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.analysis import overview, spatial, tbf
from repro.core import io as core_io
from repro.core import storage as core_storage
from repro.core.columns import (
    ACTION_CODE,
    CATEGORY_CODE,
    ColumnStore,
    SOURCE_CODE,
)
from repro.core.dataset import FOTDataset
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from repro.robustness.quality import DataQuality, InsufficientDataError

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_perf.json"
FIXTURES_DIR = REPO_ROOT / ".bench_fixtures"

TIERS: Dict[str, int] = {
    "50k": 50_000, "290k": 290_000, "1m": 1_000_000, "10m": 10_000_000,
}

#: Tiers too large to route through raw record dicts: synthesized
#: column-at-a-time and benchmarked through the columnar store only.
COLUMNAR_TIERS = frozenset({"10m"})

#: ``--engine`` scenario scale per tier: the paper scenario producing
#: roughly the tier's ticket volume through the real simulation.
ENGINE_SCALES: Dict[str, float] = {"50k": 0.175, "290k": 1.0, "1m": 1.0}

_CATEGORIES = ["d_fixing", "d_error", "d_falsealarm"]
_CATEGORY_P = [0.703, 0.280, 0.017]
_COMPONENTS = [c.value for c in ComponentClass]
_COMPONENT_P = [0.55, 0.04, 0.02, 0.02, 0.08, 0.05, 0.03, 0.04, 0.05, 0.02, 0.10]
_SOURCES = ["syslog", "polling", "manual"]
_SOURCE_P = [0.55, 0.35, 0.10]
_ERROR_TYPES = [
    "SMARTFail", "NotReady", "MediaError", "UncorrectableECC",
    "PSUFailure", "FanStall", "KernelPanic", "ManualReport",
]
_HORIZON = 4 * 365.25 * 86400.0


def synth_records(n: int, seed: int = 20170626) -> List[Dict[str, object]]:
    """Generate ``n`` plausible raw ticket records without running the
    (much slower) full simulation — volume, not statistical fidelity,
    is what this benchmark needs."""
    rng = np.random.default_rng(seed)
    n_hosts = max(50, n // 10)
    host_ids = rng.integers(0, n_hosts, size=n)
    idcs = host_ids % 24
    lines = host_ids % 15
    times = np.sort(rng.uniform(0.0, _HORIZON, size=n))
    cats = rng.choice(len(_CATEGORIES), size=n, p=np.asarray(_CATEGORY_P))
    comps = rng.choice(len(_COMPONENTS), size=n, p=np.asarray(_COMPONENT_P))
    sources = rng.choice(len(_SOURCES), size=n, p=np.asarray(_SOURCE_P))
    types = rng.integers(0, len(_ERROR_TYPES), size=n)
    positions = host_ids % 40
    slots = rng.integers(0, 12, size=n)
    deployed = rng.uniform(0.0, 0.5 * _HORIZON, size=n)
    deployed = np.minimum(deployed, times)
    rt = rng.lognormal(mean=11.0, sigma=1.2, size=n)

    records: List[Dict[str, object]] = []
    for i in range(n):
        cat = _CATEGORIES[cats[i]]
        closed = cat != "d_error"
        records.append(
            {
                "fot_id": i,
                "host_id": int(host_ids[i]),
                "hostname": f"host{host_ids[i]:07d}",
                "host_idc": f"dc{idcs[i]:02d}",
                "error_device": _COMPONENTS[comps[i]],
                "error_type": _ERROR_TYPES[types[i]],
                "error_time": float(times[i]),
                "error_position": int(positions[i]),
                "error_detail": f"dev{slots[i]}",
                "category": cat,
                "source": _SOURCES[sources[i]],
                "product_line": f"line{lines[i]:02d}",
                "deployed_at": float(deployed[i]),
                "device_slot": int(slots[i]),
                "action": ("repair_order" if cat == "d_fixing" else
                           "mark_false_alarm" if cat == "d_falsealarm" else ""),
                "operator_id": f"op{i % 37:02d}" if closed else "",
                "op_time": float(times[i] + rt[i]) if closed else "",
            }
        )
    return records


def synth_store(n: int, seed: int = 20170626) -> FOTDataset:
    """Column-at-a-time twin of :func:`synth_records`: the same draws
    and derivations, but materialized directly as typed numpy columns
    and adopted zero-copy into a :class:`ColumnStore`.  This is the
    only tractable way to stand up the 10M tier — ten million record
    dicts would spend minutes (and gigabytes) on Python objects that
    the columnar path never needs."""
    rng = np.random.default_rng(seed)
    n_hosts = max(50, n // 10)
    host_ids = rng.integers(0, n_hosts, size=n)
    times = np.sort(rng.uniform(0.0, _HORIZON, size=n))
    cats = rng.choice(len(_CATEGORIES), size=n, p=np.asarray(_CATEGORY_P))
    comps = rng.choice(len(_COMPONENTS), size=n, p=np.asarray(_COMPONENT_P))
    sources = rng.choice(len(_SOURCES), size=n, p=np.asarray(_SOURCE_P))
    types = rng.integers(0, len(_ERROR_TYPES), size=n)
    slots = rng.integers(0, 12, size=n)
    deployed = np.minimum(rng.uniform(0.0, 0.5 * _HORIZON, size=n), times)
    rt = rng.lognormal(mean=11.0, sigma=1.2, size=n)

    closed = cats != _CATEGORIES.index("d_error")
    cat_code = np.asarray(
        [CATEGORY_CODE[FOTCategory(v)] for v in _CATEGORIES], dtype=np.int8
    )
    src_code = np.asarray(
        [SOURCE_CODE[DetectionSource(v)] for v in _SOURCES], dtype=np.int8
    )
    # synth_records leaves d_error tickets action-less ("" -> None -> -1).
    act_code = np.asarray(
        [
            ACTION_CODE[OperatorAction.REPAIR_ORDER],
            -1,
            ACTION_CODE[OperatorAction.MARK_FALSE_ALARM],
        ],
        dtype=np.int8,
    )

    hostname_pool = np.asarray(
        [f"host{h:07d}" for h in range(n_hosts)], dtype=object
    )
    detail_pool = np.asarray([f"dev{s}" for s in range(12)], dtype=object)
    details = np.empty(n, dtype=object)
    details[:] = [{}] * n  # parse_records yields an empty detail dict

    arrays: Dict[str, np.ndarray] = {
        "fot_ids": np.arange(n, dtype=np.int64),
        "host_ids": host_ids.astype(np.int64),
        "error_times": times,
        "op_times": np.where(closed, times + rt, np.nan),
        "deployed_ats": deployed,
        "positions": (host_ids % 40).astype(np.int32),
        "device_slots": slots.astype(np.int32),
        "category_codes": cat_code[cats],
        "component_codes": comps.astype(np.int8),  # enum-order draw
        "source_codes": src_code[sources],
        "action_codes": act_code[cats],
        "idc_codes": (host_ids % 24).astype(np.int32),
        "product_line_codes": (host_ids % 15).astype(np.int32),
        "error_type_codes": types.astype(np.int32),
        "operator_id_codes": np.where(
            closed, np.arange(n) % 37, -1
        ).astype(np.int32),
        "hostnames": hostname_pool[host_ids],
        "error_details": detail_pool[slots],
        "details": details,
    }
    tables = {
        "idc": tuple(f"dc{i:02d}" for i in range(24)),
        "product_line": tuple(f"line{i:02d}" for i in range(15)),
        "error_type": tuple(_ERROR_TYPES),
        "operator_id": tuple(f"op{i:02d}" for i in range(37)),
    }
    for arr in arrays.values():
        arr.setflags(write=False)
    return FOTDataset.from_store(ColumnStore.from_columns(n, arrays, tables))


def columnar_fixture(name: str, n: int, dataset=None) -> Path:
    """The tier's cached on-disk columnar fixture, built on first use.

    The file name embeds the storage schema fingerprint, so a format or
    schema change silently rolls over to a fresh fixture instead of
    tripping the loader's version check."""
    schema = core_storage.schema_fingerprint()[:12]
    path = FIXTURES_DIR / f"{name}-{schema}.fourcol"
    if core_storage.is_columnar(path):
        return path
    if dataset is None:
        print(f"[{name}] synthesizing {n} tickets column-wise ...", flush=True)
        dataset = synth_store(n)
    FIXTURES_DIR.mkdir(exist_ok=True)
    print(f"[{name}] writing columnar fixture {path.name} ...", flush=True)
    core_storage.save_columnar(dataset, path)
    return path


# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
def _stage_load(records):
    numbered = ((i + 1, r) for i, r in enumerate(records))
    return core_io.parse_records(numbered, strict=True, source="<bench>")


def _stage_filter(dataset) -> int:
    total = 0
    failures = dataset.failures()
    total += len(failures)
    total += len(failures.of_component(ComponentClass.HDD))
    total += len(dataset.of_idc("dc03"))
    total += len(dataset.of_product_line("line01"))
    total += len(dataset.of_source(DetectionSource.MANUAL))
    times = dataset.error_times
    mid = float(np.median(times)) if len(dataset) else 0.0
    total += len(dataset.between(mid, mid + 30 * 86400.0))
    total += len(dataset.where(dataset.positions < 20))
    total += len(dataset.with_op_time())
    return total


def _stage_group(dataset) -> int:
    total = 0
    for groups in (
        dataset.by_category(),
        dataset.by_component(),
        dataset.by_idc(),
        dataset.by_product_line(),
        dataset.by_failure_type(),
        dataset.by_host(),
    ):
        total += len(groups)
    total += len(dataset.sorted_by_time())
    return total


def _stage_report(dataset) -> Dict[str, object]:
    out: Dict[str, object] = {}
    try:
        cats = overview.categories(dataset)
        out["fixing_share"] = cats.fraction(FOTCategory.FIXING)
        comp = overview.components(dataset)
        out["top_component"] = next(iter(comp)).value
        out["sources"] = {
            s.value: f for s, f in overview.detection_sources(dataset).items()
        }
        analysis = tbf.analyze_tbf(dataset)
        out["mtbf_minutes"] = analysis.mtbf_minutes
        out["summary"] = dataset.summary()
        out["deduplicated"] = len(spatial.deduplicate_repeats(dataset))
        out["quality_grade"] = DataQuality.assess(dataset).grade
    except InsufficientDataError as exc:  # pragma: no cover - tiny tiers only
        out["skipped"] = str(exc)
    return out


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_tier(name: str, n: int, repeats: int) -> Dict[str, object]:
    if name in COLUMNAR_TIERS:
        return run_columnar_tier(name, n, repeats)

    print(f"[{name}] generating {n} synthetic records ...", flush=True)
    records = synth_records(n)

    t0 = time.perf_counter()
    dataset = _stage_load(records)
    load_s = time.perf_counter() - t0

    # Columnar round trip: a cold save into a scratch directory, then
    # the best-of mmap re-open of the cached fixture.
    scratch = Path(tempfile.mkdtemp(prefix="bench-colsave-")) / "t.fourcol"
    try:
        t0 = time.perf_counter()
        core_storage.save_columnar(dataset, scratch)
        save_col_s = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch.parent, ignore_errors=True)
    fixture = columnar_fixture(name, n, dataset)
    load_col_s = _best_of(lambda: core_storage.load_columnar(fixture), repeats)

    stages = {
        "load": load_s,
        "save_columnar": save_col_s,
        "load_columnar": load_col_s,
        "filter": _best_of(lambda: _stage_filter(dataset), repeats),
        "group": _best_of(lambda: _stage_group(dataset), repeats),
        "report": _best_of(lambda: _stage_report(dataset), repeats),
    }
    # The headline total keeps its pre-columnar meaning: the text
    # load -> filter -> group -> report pipeline.
    stages["total"] = sum(
        stages[k] for k in ("load", "filter", "group", "report")
    )
    print(
        f"[{name}] load {stages['load']:.3f}s  filter {stages['filter']:.3f}s  "
        f"group {stages['group']:.3f}s  report {stages['report']:.3f}s  "
        f"colsave {save_col_s:.3f}s  colload {load_col_s:.4f}s "
        f"(x{load_s / max(load_col_s, 1e-9):.0f} vs text)",
        flush=True,
    )
    return {
        "tickets": n,
        "stages": stages,
        "load_speedup": load_s / max(load_col_s, 1e-9),
    }


def run_columnar_tier(name: str, n: int, repeats: int) -> Dict[str, object]:
    """A tier served straight from the columnar store: ``load`` is the
    mmap open of the cached fixture, everything downstream runs against
    the memory-mapped (lazily decoded) dataset."""
    fixture = columnar_fixture(name, n)

    t0 = time.perf_counter()
    dataset = core_storage.load_columnar(fixture)
    load_s = time.perf_counter() - t0
    assert len(dataset) == n, f"fixture holds {len(dataset)} rows, wanted {n}"

    stages = {
        "load": load_s,
        "filter": _best_of(lambda: _stage_filter(dataset), repeats),
        "group": _best_of(lambda: _stage_group(dataset), repeats),
        "report": _best_of(lambda: _stage_report(dataset), repeats),
    }
    stages["total"] = sum(v for k, v in stages.items() if k != "total")
    fraction = stages["load"] / stages["total"]
    print(
        f"[{name}] load {stages['load']:.4f}s (mmap, {fraction:.3%} of tier)  "
        f"filter {stages['filter']:.3f}s  group {stages['group']:.3f}s  "
        f"report {stages['report']:.3f}s",
        flush=True,
    )
    return {
        "tickets": n,
        "format": "columnar",
        "stages": stages,
        "load_fraction": fraction,
    }


# ----------------------------------------------------------------------
# engine stages: sharded generation + analysis cache
# ----------------------------------------------------------------------
def _traces_identical(left, right) -> bool:
    from repro.core.columns import COLUMN_NAMES, TABLE_NAMES

    ls, rs = left.dataset.store, right.dataset.store
    if ls.n != rs.n or left.fms_stats != right.fms_stats:
        return False
    for name in TABLE_NAMES:
        if ls.table(name) != rs.table(name):
            return False
    for name in COLUMN_NAMES:
        lcol, rcol = ls.column(name), rs.column(name)
        if lcol.dtype == object:
            if list(lcol) != list(rcol):
                return False
        # equal_nan: op_times is NaN for still-open tickets.
        elif not np.array_equal(
            lcol, rcol, equal_nan=lcol.dtype.kind == "f"
        ):
            return False
    return True


def _engine_config(name: str, scale_override):
    from repro.config import ScenarioConfig, paper_scenario

    if scale_override is not None:
        return paper_scenario(scale=scale_override)
    if name == "1m":
        # The paper scenario caps at scale 1.0 (~290k tickets); the 1M
        # tier raises the failure budget on the same fleet instead.
        return ScenarioConfig(target_failures=1_000_000)
    return paper_scenario(scale=ENGINE_SCALES[name])


def run_engine_tier(
    name: str, jobs: int, repeats: int, scale_override=None
) -> Dict[str, object]:
    from repro.analysis.full_report import full_report
    from repro.engine import AnalysisCache
    from repro.simulation.trace import generate_trace

    config = _engine_config(name, scale_override)
    print(f"[{name}] engine: generating trace (scale {config.scale}, "
          f"target {config.scaled_target_failures}) ...", flush=True)

    t0 = time.perf_counter()
    serial = generate_trace(config, jobs=1)
    gen_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = generate_trace(config, jobs=jobs)
    gen_parallel = time.perf_counter() - t0

    equivalent = _traces_identical(serial, parallel)
    dataset = serial.dataset

    cache = AnalysisCache()
    t0 = time.perf_counter()
    full_report(dataset, cache=cache)
    report_cold = time.perf_counter() - t0
    report_warm = _best_of(lambda: full_report(dataset, cache=cache), repeats)

    out = {
        "tickets": len(dataset),
        "jobs": jobs,
        "cpus": os.cpu_count() or 1,
        "gen_serial": gen_serial,
        "gen_parallel": gen_parallel,
        "equivalent": equivalent,
        "report_cold": report_cold,
        "report_warm": report_warm,
    }
    print(
        f"[{name}] engine: gen {gen_serial:.2f}s serial / {gen_parallel:.2f}s "
        f"jobs={jobs} ({'identical' if equivalent else 'MISMATCH'})  "
        f"report {report_cold:.3f}s cold / {report_warm:.3f}s warm "
        f"(x{report_cold / max(report_warm, 1e-9):.1f})",
        flush=True,
    )
    return out


def run_adaptive_tier(name: str, repeats: int, scale_override=None) -> Dict[str, object]:
    """The self-tuning planner end to end: one serial run, one
    ``jobs="auto"`` run through an :class:`ExecutionPolicy` with a
    telemetry sink, plus the plan the planner actually chose."""
    from repro.engine import ExecutionPolicy, InMemoryTelemetrySink
    from repro.simulation.trace import generate_trace

    config = _engine_config(name, scale_override)
    print(f"[{name}] adaptive: generating trace (scale {config.scale}, "
          f"target {config.scaled_target_failures}) ...", flush=True)

    t0 = time.perf_counter()
    serial = generate_trace(config, policy=ExecutionPolicy(jobs="serial"))
    gen_serial = time.perf_counter() - t0

    sink = InMemoryTelemetrySink()
    t0 = time.perf_counter()
    auto = generate_trace(
        config, policy=ExecutionPolicy(jobs="auto", telemetry_sink=sink)
    )
    gen_auto = time.perf_counter() - t0

    run = sink.last
    assert run is not None and run.plan is not None
    plan = run.plan
    out = {
        "tickets": len(auto.dataset),
        "gen_serial": gen_serial,
        "gen_auto": gen_auto,
        "serial_over_auto": gen_serial / max(gen_auto, 1e-9),
        "mode": plan.mode,
        "jobs": plan.jobs,
        "cpus": plan.probed_cpus,
        "cpu_source": plan.cpu_source,
        "reason": plan.reason,
        "equivalent": _traces_identical(serial, auto),
    }
    print(
        f"[{name}] adaptive: serial {gen_serial:.2f}s / auto {gen_auto:.2f}s "
        f"(x{out['serial_over_auto']:.2f}); planner chose {plan.mode} "
        f"jobs={plan.jobs} on {plan.probed_cpus} CPUs "
        f"({'identical' if out['equivalent'] else 'MISMATCH'})",
        flush=True,
    )
    return out


def check_adaptive(results, *, min_parallel_ratio) -> int:
    """Gate on the planner's never-slower promise.

    A serial plan passes by construction (it *is* the serial code path;
    wall-time deltas there are machine noise, not planner mistakes); a
    parallel plan must beat serial by ``min_parallel_ratio``.  A trace
    that is not bit-identical to serial always fails.
    """
    failures = 0
    for name, tier in results.items():
        adaptive = tier.get("adaptive")
        if not adaptive:
            continue
        if not adaptive["equivalent"]:
            print(f"FAIL [{name}]: jobs='auto' trace differs from serial")
            failures += 1
        ratio = adaptive["serial_over_auto"]
        if adaptive["mode"] == "serial":
            print(
                f"OK [{name}]: planner chose serial — {adaptive['reason']} "
                f"(measured x{ratio:.2f}, informational)"
            )
        elif min_parallel_ratio and ratio < min_parallel_ratio:
            print(
                f"FAIL [{name}]: planner chose jobs={adaptive['jobs']} but "
                f"auto ran x{ratio:.2f} vs serial, below the required "
                f"x{min_parallel_ratio:.2f}"
            )
            failures += 1
        else:
            print(
                f"OK [{name}]: jobs='auto' ({adaptive['mode']}, "
                f"jobs={adaptive['jobs']}) x{ratio:.2f} vs serial"
            )
    return 1 if failures else 0


def check_engine(results, *, check_equivalence, min_cache_speedup,
                 min_gen_speedup, jobs) -> int:
    """Gate on the engine invariants; returns a non-zero exit on failure."""
    failures = 0
    cpus = os.cpu_count() or 1
    for name, tier in results.items():
        engine = tier.get("engine")
        if not engine:
            continue
        if check_equivalence and not engine["equivalent"]:
            print(f"FAIL [{name}]: sharded trace differs from serial")
            failures += 1
        if min_cache_speedup:
            ratio = engine["report_cold"] / max(engine["report_warm"], 1e-9)
            if ratio < min_cache_speedup:
                print(
                    f"FAIL [{name}]: warm-cache report speedup x{ratio:.1f} "
                    f"below the required x{min_cache_speedup:.1f}"
                )
                failures += 1
            else:
                print(f"OK [{name}]: warm-cache speedup x{ratio:.1f}")
        if min_gen_speedup:
            if cpus < jobs:
                print(
                    f"skip [{name}]: gen-speedup check needs >= {jobs} cores, "
                    f"machine has {cpus}"
                )
            else:
                ratio = engine["gen_serial"] / max(engine["gen_parallel"], 1e-9)
                if ratio < min_gen_speedup:
                    print(
                        f"FAIL [{name}]: sharded generation speedup "
                        f"x{ratio:.2f} below the required x{min_gen_speedup:.1f}"
                    )
                    failures += 1
                else:
                    print(f"OK [{name}]: sharded generation speedup x{ratio:.2f}")
    return 1 if failures else 0


def check_storage(results, *, min_load_speedup, max_load_fraction) -> int:
    """Gate on the columnar-store promises; returns non-zero on failure.

    * ``min_load_speedup`` — every text tier's columnar mmap open must
      beat its text parse by at least this factor;
    * ``max_load_fraction`` — every columnar-format tier must spend at
      most this fraction of its total wall time in ``load``.
    """
    failures = 0
    for name, tier in results.items():
        if min_load_speedup and "load_speedup" in tier:
            ratio = tier["load_speedup"]
            if ratio < min_load_speedup:
                print(
                    f"FAIL [{name}]: columnar load speedup x{ratio:.1f} "
                    f"below the required x{min_load_speedup:.1f}"
                )
                failures += 1
            else:
                print(f"OK [{name}]: columnar load speedup x{ratio:.1f}")
        if max_load_fraction and "load_fraction" in tier:
            fraction = tier["load_fraction"]
            if fraction > max_load_fraction:
                print(
                    f"FAIL [{name}]: load is {fraction:.3%} of the tier "
                    f"total, above the allowed {max_load_fraction:.2%}"
                )
                failures += 1
            else:
                print(
                    f"OK [{name}]: load is {fraction:.3%} of the tier total "
                    f"(limit {max_load_fraction:.2%})"
                )
    return 1 if failures else 0


# ----------------------------------------------------------------------
# JSON trajectory file
# ----------------------------------------------------------------------
def load_json(path: Path) -> Dict[str, object]:
    if path.exists():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"schema": 1, "runs": {}}


def update_json(path: Path, label: str, tiers: Dict[str, object]) -> None:
    data = load_json(path)
    runs = data.setdefault("runs", {})
    entry = runs.setdefault(label, {"tiers": {}})
    entry["python"] = platform.python_version()
    entry["numpy"] = np.__version__
    entry["tiers"].update(tiers)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"updated {path} [{label}: {', '.join(sorted(tiers))}]")


#: Stages ``--check`` gates against the checked-in numbers: the text
#: parse and the headline report.
REGRESSION_STAGES = ("load", "report")


def check_regression(
    path: Path, tier: str, measured: Dict[str, float], max_regression: float
) -> int:
    data = load_json(path)
    runs = data.get("runs", {})
    reference = runs.get("current") or runs.get("baseline")
    if not reference:
        print(f"no reference numbers in {path}; skipping regression check")
        return 0
    ref = reference.get("tiers", {}).get(tier)
    if not ref:
        print(f"no reference tier {tier!r} in {path}; skipping regression check")
        return 0
    failures = 0
    for stage in REGRESSION_STAGES:
        ref_s = float(ref["stages"][stage])
        ratio = measured[stage] / ref_s if ref_s > 0 else float("inf")
        print(
            f"regression check [{tier}]: {stage} {measured[stage]:.3f}s vs "
            f"checked-in {ref_s:.3f}s (x{ratio:.2f}, limit x{max_regression:.1f})"
        )
        if ratio > max_regression:
            print(f"FAIL: {stage} wall time regressed beyond the allowed factor")
            failures += 1
    if failures:
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--tiers", default="50k,290k",
        help=f"comma-separated tiers to run (available: {', '.join(TIERS)})",
    )
    parser.add_argument(
        "--label", default="current", choices=["baseline", "current"],
        help="which slot of BENCH_perf.json to record into",
    )
    parser.add_argument("--json", default=str(DEFAULT_JSON), dest="json_path")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--no-update", action="store_true",
        help="measure only; do not rewrite the JSON trajectory file",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare the first tier's text load and report times against "
        "the checked-in numbers and exit 1 on regression",
    )
    parser.add_argument("--max-regression", type=float, default=2.0)
    parser.add_argument(
        "--engine", action="store_true",
        help="also run the repro.engine stages (sharded generation through "
        "the real simulation + analysis-cache report) per tier",
    )
    parser.add_argument(
        "--jobs", type=int, default=4,
        help="worker processes for the sharded-generation stage (default 4)",
    )
    parser.add_argument(
        "--engine-scale", type=float, default=None,
        help="override the engine scenario scale (e.g. 0.02 for a quick "
        "CI smoke) instead of the tier's calibrated scale",
    )
    parser.add_argument(
        "--check-equivalence", action="store_true",
        help="exit 1 when the sharded trace is not bit-identical to serial",
    )
    parser.add_argument(
        "--min-cache-speedup", type=float, default=None, metavar="X",
        help="exit 1 when the warm-cache report is not at least X times "
        "faster than cold",
    )
    parser.add_argument(
        "--min-gen-speedup", type=float, default=None, metavar="X",
        help="exit 1 when sharded generation is not at least X times faster "
        "than serial (skipped on machines with fewer cores than --jobs)",
    )
    parser.add_argument(
        "--adaptive", action="store_true",
        help="also run the self-tuning planner stage per tier "
        "(jobs='serial' vs jobs='auto' through an ExecutionPolicy)",
    )
    parser.add_argument(
        "--min-parallel-ratio", type=float, default=None, metavar="X",
        help="exit 1 when the planner picked a parallel plan but "
        "jobs='auto' was not at least X times faster than serial "
        "(serial plans pass by construction; 1.0 = never slower)",
    )
    parser.add_argument(
        "--min-load-speedup", type=float, default=None, metavar="X",
        help="exit 1 when the columnar mmap open is not at least X times "
        "faster than the text parse (text tiers only)",
    )
    parser.add_argument(
        "--max-load-fraction", type=float, default=None, metavar="F",
        help="exit 1 when a columnar-format tier spends more than fraction "
        "F of its total wall time in the load stage",
    )
    args = parser.parse_args(argv)

    tier_names = [t.strip() for t in args.tiers.split(",") if t.strip()]
    unknown = [t for t in tier_names if t not in TIERS]
    if unknown:
        parser.error(f"unknown tiers: {unknown}; available: {sorted(TIERS)}")

    json_path = Path(args.json_path)
    results = {name: run_tier(name, TIERS[name], args.repeats) for name in tier_names}

    if args.min_load_speedup or args.max_load_fraction:
        code = check_storage(
            results,
            min_load_speedup=args.min_load_speedup,
            max_load_fraction=args.max_load_fraction,
        )
        if code:
            return code

    if args.engine:
        for name in tier_names:
            if name in COLUMNAR_TIERS:
                print(f"[{name}] engine stages skipped: columnar-only tier")
                continue
            results[name]["engine"] = run_engine_tier(
                name, args.jobs, args.repeats, args.engine_scale
            )
        code = check_engine(
            results,
            check_equivalence=args.check_equivalence,
            min_cache_speedup=args.min_cache_speedup,
            min_gen_speedup=args.min_gen_speedup,
            jobs=args.jobs,
        )
        if code:
            return code

    if args.adaptive:
        for name in tier_names:
            if name in COLUMNAR_TIERS:
                print(f"[{name}] adaptive stage skipped: columnar-only tier")
                continue
            results[name]["adaptive"] = run_adaptive_tier(
                name, args.repeats, args.engine_scale
            )
        code = check_adaptive(
            results, min_parallel_ratio=args.min_parallel_ratio
        )
        if code:
            return code

    if args.check:
        first = tier_names[0]
        stages = results[first]["stages"]
        measured = {stage: float(stages[stage]) for stage in REGRESSION_STAGES}
        return check_regression(json_path, first, measured, args.max_regression)

    if not args.no_update:
        update_json(json_path, args.label, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
