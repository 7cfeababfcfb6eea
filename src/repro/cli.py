"""Command-line interface, consolidated onto the :mod:`repro.api` facade.

Core subcommands::

    fouryears simulate --scale 0.05 --seed 7 --jobs 4 --out trace.jsonl \
        --inventory inventory.csv
    fouryears convert trace.jsonl trace.fourcol   # parse once, mmap forever
    fouryears analyze trace.fourcol --inventory inventory.csv --cache
    fouryears report trace.fourcol        # compact headline summary
    fouryears validate dump.csv           # quarantine + data-quality audit
    fouryears corrupt trace.jsonl --out dirty.jsonl --seed 7
    fouryears serve --port 8437 --dead-letter-dir dead_letters/
    fouryears replay-deadletter dead_letters/ --out recovered.jsonl
    fouryears telemetry run.telemetry.jsonl   # where did the time go?

(``repro`` is installed as an alias of ``fouryears``.)

``convert`` re-encodes a dump between the text interchange formats
(csv/jsonl, optionally gzipped) and the native binary columnar format
(a ``.fourcol`` directory) that loads by memory-mapping in
near-constant time — convert once, then point every other subcommand
at the ``.fourcol`` path.
``analyze`` prints every paper table/figure the dataset supports,
skipping (with a notice) any analysis the data cannot sustain;
``report`` prints only the headline numbers.  ``validate`` loads a dump
through the quarantining loader and prints what was skipped/repaired
plus a :class:`~repro.robustness.quality.DataQuality` assessment.
``corrupt`` runs the deterministic chaos harness over a clean trace.

Flags behave identically wherever they appear: ``--lenient``
quarantines malformed input lines instead of failing the load, and
``--cache``/``--no-cache`` toggles the on-disk analysis cache under
``.repro_cache/``.  Execution flags all feed one
:class:`repro.ExecutionPolicy`: ``--jobs auto`` (the default) lets the
adaptive planner pick serial or a sized pool (bit-identical output
either way), ``--jobs N``/``--jobs serial`` override it, and
``--telemetry PATH`` appends one structured run document per engine run
that ``fouryears telemetry PATH`` renders back.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import api
from repro.core import io as core_io
from repro.core.timeutil import DAY
from repro.robustness.chaos import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    corrupt_dataset,
    default_specs,
)

#: Default on-disk cache location for ``--cache``.
CACHE_DIR = Path(".repro_cache")


def _cache_from(args: argparse.Namespace) -> Optional[api.AnalysisCache]:
    if getattr(args, "cache", False):
        return api.AnalysisCache(directory=CACHE_DIR)
    return None


def _policy_from(args: argparse.Namespace) -> api.ExecutionPolicy:
    """Build the run's :class:`repro.ExecutionPolicy` from the parsed
    execution flags (each subcommand only defines the ones it uses)."""
    from repro.engine import JsonlTelemetrySink, coerce_jobs

    sink = None
    telemetry_path = getattr(args, "telemetry", None)
    if telemetry_path:
        sink = JsonlTelemetrySink(Path(telemetry_path))
    return api.ExecutionPolicy(
        jobs=coerce_jobs(getattr(args, "jobs", "auto")),
        cache=_cache_from(args),
        telemetry_sink=sink,
        shard_strategy=getattr(args, "shard_strategy", "cost"),
    )


def _print_plan(trace) -> None:
    telemetry = trace.telemetry
    if telemetry is None or telemetry.plan is None:
        return
    plan = telemetry.plan
    print(
        f"plan: {plan.mode} (jobs={plan.jobs}, {plan.probed_cpus} usable "
        f"CPUs via {plan.cpu_source}) — {plan.reason}"
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        policy = _policy_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = api.simulate(scale=args.scale, seed=args.seed, policy=policy)
    _print_plan(trace)
    core_io.save(trace.dataset, args.out)
    print(f"wrote {len(trace.dataset)} tickets to {args.out}")
    if args.inventory:
        trace.inventory.save_csv(args.inventory)
        print(f"wrote inventory ({len(trace.inventory)} servers) to {args.inventory}")
    if args.telemetry:
        print(f"appended run telemetry to {args.telemetry}")
    summary = trace.dataset.summary()
    for key, value in summary.items():
        print(f"  {key}: {value}")
    return 0


def _load_dataset(path: str, lenient: bool):
    """Load a dump; in lenient mode print the quarantine summary and
    return whatever could be salvaged."""
    if not lenient:
        try:
            return api.load(path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(
                "hint: pass --lenient to quarantine malformed lines and "
                "analyze the rest",
                file=sys.stderr,
            )
            raise SystemExit(2) from exc
    audited = api.audit(path)
    if not audited.quarantine.clean:
        print(audited.quarantine.format())
        print()
    return audited.dataset


def _cmd_convert(args: argparse.Namespace) -> int:
    try:
        report = api.convert(args.src, args.dst, lenient=args.lenient)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if not args.lenient:
            print(
                "hint: pass --lenient to quarantine malformed lines and "
                "convert the rest",
                file=sys.stderr,
            )
        return 2
    if not report.clean:
        print(report.format())
        print()
    print(f"wrote {report.n_loaded} tickets to {args.dst}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.lenient)
    report = api.full_report(
        dataset, policy=_policy_from(args), headline_only=True
    )
    print(report.text())
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset, args.lenient)
    inventory = None
    if args.inventory:
        from repro.fleet.inventory import Inventory

        inventory = Inventory.load_csv(args.inventory)
    report = api.full_report(
        dataset, inventory=inventory, policy=_policy_from(args)
    )
    print(report.text())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        audited = api.audit(args.dataset)
    except ValueError as exc:
        # Even lenient loading refuses structurally unreadable dumps
        # (unknown format, missing required CSV columns).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(audited.quarantine.format())
    print()
    print(audited.quality.format())
    return 1 if audited.dirty else 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    dataset = api.load(args.dataset)
    try:
        if args.kind:
            specs = [CorruptionSpec.parse(token) for token in args.kind]
        else:
            specs = default_specs(args.intensity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        include_detail = core_io._format_of(out) == ".jsonl"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records, manifest = corrupt_dataset(
        dataset, specs, seed=args.seed, include_detail=include_detail
    )
    core_io.write_records(records, out)
    manifest_path = Path(args.manifest) if args.manifest else Path(str(out) + ".manifest.json")
    manifest_path.write_text(manifest.to_json() + "\n", encoding="utf-8")
    print(
        f"corrupted {manifest.n_input} -> {manifest.n_output} records "
        f"({', '.join(manifest.kinds())}) with seed {args.seed}"
    )
    print(f"wrote dump to {out}")
    print(f"wrote manifest to {manifest_path}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    dataset = api.load(args.dataset)
    incidents = api.mine_incidents(dataset, min_batch=args.min_batch)
    rows = [
        (i.incident_id, i.kind, len(i), len(i.servers),
         f"{i.span_seconds / DAY:.1f} d", i.summary[:70])
        for i in incidents[: args.limit]
    ]
    print(
        api.format_table(
            ["id", "kind", "tickets", "servers", "span", "summary"],
            rows,
            title=f"{len(incidents)} incidents "
                  f"(showing the {min(args.limit, len(incidents))} largest)",
        )
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    dataset = api.load(args.dataset)
    rows = []
    for min_warnings in (1, 2, 3):
        rep = api.predict_and_evaluate(
            dataset, min_warnings=min_warnings, horizon_days=args.horizon
        )
        rows.append((
            min_warnings, rep.n_warnings,
            api.format_percent(rep.precision) if rep.n_warnings else "-",
            api.format_percent(rep.recall) if rep.n_fatal_failures else "-",
            f"{rep.mean_lead_days:.1f} d",
        ))
    print(
        api.format_table(
            ["trigger", "alerts", "precision", "recall", "mean lead"],
            rows,
            title=f"failure prediction ({args.horizon:.0f}-day horizon)",
        )
    )
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.simulation.validation import failed_checks, validate_trace

    try:
        policy = _policy_from(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    trace = api.simulate(scale=args.scale, seed=args.seed, policy=policy)
    _print_plan(trace)
    # Sampling noise widens with shrinking traces.
    slack = max(1.0, 0.3 / max(args.scale, 0.01))
    checks = validate_trace(trace, slack=slack)
    for check in checks:
        print(check)
    failed = failed_checks(checks)
    print(
        f"\n{len(checks) - len(failed)}/{len(checks)} targets within "
        f"tolerance at scale {args.scale}"
    )
    return 1 if failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    left = api.load(args.left)
    right = api.load(args.right)
    result = api.compare(left, right)
    print(
        api.format_table(
            ["metric", args.left, args.right],
            result.rows(),
            title="dataset comparison (scale-free metrics)",
        )
    )
    verdict = "compatible" if result.within(args.tolerance) else "DIFFERENT"
    print(f"\nverdict at {args.tolerance:.0%} relative tolerance: {verdict}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import BreakerConfig, IngestRouter, ServeConfig, serve_http

    initial = None
    if args.dataset:
        initial = _load_dataset(args.dataset, lenient=True)
    config = ServeConfig(
        queue_high_watermark=args.queue_watermark,
        max_batch_tickets=args.max_batch_tickets,
        refresh_interval_batches=args.refresh_every,
        dead_letter_dir=(
            Path(args.dead_letter_dir) if args.dead_letter_dir else None
        ),
        breaker=BreakerConfig(
            failure_threshold=args.breaker_threshold,
            reset_seconds=args.breaker_reset,
        ),
    )
    router = IngestRouter(
        config, initial=initial, cache=_cache_from(args)
    )

    async def _run() -> None:
        server = await serve_http(router, host=args.host, port=args.port)
        bound = server.sockets[0].getsockname()
        print(f"listening on {bound[0]}:{bound[1]}")
        print(
            f"POST /ingest/<source>  GET /healthz  GET /metrics  "
            f"(queue watermark {config.queue_high_watermark}, "
            f"max batch {config.max_batch_tickets} tickets)"
        )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            server.close()
            await server.wait_closed()
            await router.stop(drain=True)

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    snapshot = router.metrics_snapshot()
    counters = snapshot["counters"]
    print("\ningest summary:")
    for key in (
        "batches_submitted", "batches_accepted", "batches_quarantined",
        "batches_dead_lettered", "batches_rejected_queue_full",
        "batches_rejected_breaker", "tickets_submitted", "tickets_accepted",
        "tickets_quarantined", "tickets_dead_lettered", "retries",
    ):
        print(f"  {key}: {counters[key]}")
    print(f"  live tickets: {len(router.live)}")
    return 0


def _cmd_replay_deadletter(args: argparse.Namespace) -> int:
    from repro.core.dataset import FOTDataset
    from repro.robustness.batch import validate_batch
    from repro.serve import DeadLetterStore

    store = DeadLetterStore(Path(args.directory))
    entries = store.entries()
    if not entries:
        print(f"no dead-lettered batches under {args.directory}")
        return 0
    accepted: list = []
    n_recovered = 0
    n_quarantined = 0
    still_poison = []
    for entry, records in store.iter_batches():
        validation = validate_batch(
            records,
            source=f"dead-letter#{entry.seq}",
            max_tickets=args.max_batch_tickets,
        )
        if validation.accepted:
            accepted.append(validation.dataset)
            n_recovered += validation.n_accepted
            n_quarantined += validation.n_quarantined
            print(
                f"  seq {entry.seq} ({entry.source}, parked as "
                f"{entry.reason}): recovered {validation.n_accepted} "
                f"tickets, quarantined {validation.n_quarantined}"
            )
            if args.drop:
                store.remove(entry.seq)
        else:
            still_poison.append(entry)
            print(
                f"  seq {entry.seq} ({entry.source}, parked as "
                f"{entry.reason}): still poison ({validation.verdict}: "
                f"{validation.reason})"
            )
    print(
        f"\nreplayed {len(entries)} batches: {len(accepted)} accepted "
        f"({n_recovered} tickets, {n_quarantined} quarantined), "
        f"{len(still_poison)} still poison"
    )
    if args.out and accepted:
        merged = FOTDataset.concat_many(accepted)
        core_io.save(merged, args.out)
        print(f"wrote {len(merged)} recovered tickets to {args.out}")
    return 1 if still_poison else 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.engine.telemetry import TelemetryError, read_telemetry

    try:
        runs = read_telemetry(args.path)
    except FileNotFoundError:
        print(f"error: no telemetry file at {args.path}", file=sys.stderr)
        return 2
    except TelemetryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not runs:
        print(f"no runs recorded in {args.path}")
        return 1
    selected = runs[-1:] if args.last else runs
    for i, run in enumerate(selected):
        ordinal = len(runs) if args.last else i + 1
        print(
            api.format_table(
                ["key", "value"],
                run.rows(),
                title=f"run {ordinal}/{len(runs)}: {run.kind}",
            )
        )
        if run.shards:
            print()
            print(
                api.format_table(
                    ["shard", "idc", "servers", "tickets", "est cost",
                     "order", "queue", "wall", "cpu"],
                    [
                        (s.index, s.idc, s.n_servers, s.n_tickets,
                         f"{s.estimated_cost:.0f}", s.dispatch_order,
                         s.queue_depth, f"{s.wall_seconds:.3f}s",
                         f"{s.cpu_seconds:.3f}s")
                        for s in run.shards
                    ],
                    title="per-shard execution",
                )
            )
        print()
    return 0


def _strip_separator(extra: Sequence[str]) -> Sequence[str]:
    """Drop the optional '--' REMAINDER separator."""
    return extra[1:] if extra and extra[0] == "--" else extra


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint import main as lint_main

    return lint_main(_strip_separator(args.lint_args))


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from repro.devtools.sanitize import main as sanitize_main

    return sanitize_main(_strip_separator(args.sanitize_args))


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=str,
        default="auto",
        metavar="N|auto|serial",
        help="worker processes for trace generation: 'auto' lets the "
        "adaptive planner choose, 'serial' forces in-process execution, "
        "an integer pins the pool size (output is bit-identical either way)",
    )
    parser.add_argument(
        "--shard-strategy",
        choices=("cost", "count"),
        default="cost",
        dest="shard_strategy",
        help="shard dispatch order: 'cost' hands out the most expensive "
        "data centers first (default), 'count' keeps natural order",
    )


def _add_telemetry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help="append one JSON run document (plan, stage and shard "
        "timings) per engine run to PATH",
    )


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache",
        action="store_true",
        default=False,
        help=f"memoize analysis results on disk under {CACHE_DIR}/",
    )
    group.add_argument(
        "--no-cache",
        action="store_false",
        dest="cache",
        help="recompute every analysis (default)",
    )


def _add_lenient_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine malformed lines instead of failing the load",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fouryears",
        description=(
            "Reproduction toolkit for 'What Can We Learn from Four Years "
            "of Data Center Hardware Failures?' (DSN 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("simulate", help="generate a synthetic FOT trace")
    gen.add_argument("--scale", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=20170626)
    gen.add_argument("--out", default="trace.jsonl")
    gen.add_argument("--inventory", default=None)
    _add_jobs_flag(gen)
    _add_telemetry_flag(gen)
    gen.set_defaults(func=_cmd_simulate)

    conv = sub.add_parser(
        "convert",
        help="convert a ticket dump between formats (csv/jsonl ⇄ "
        "columnar .fourcol); converting to columnar pays the text parse "
        "once so later loads memory-map in near-constant time",
    )
    conv.add_argument("src", help="source dump (.jsonl[.gz] / .csv[.gz] / .fourcol)")
    conv.add_argument("dst", help="destination (format chosen by suffix)")
    _add_lenient_flag(conv)
    conv.set_defaults(func=_cmd_convert)

    rep = sub.add_parser("report", help="print headline statistics")
    rep.add_argument("dataset")
    rep.add_argument("--inventory", default=None)
    _add_lenient_flag(rep)
    _add_cache_flags(rep)
    rep.set_defaults(func=_cmd_report)

    ana = sub.add_parser("analyze", help="run every paper analysis")
    ana.add_argument("dataset")
    ana.add_argument("--inventory", default=None)
    _add_lenient_flag(ana)
    _add_cache_flags(ana)
    ana.set_defaults(func=_cmd_analyze)

    val = sub.add_parser(
        "validate",
        help="audit a ticket dump: quarantine report + data-quality grade "
        "(exit 1 when lines were skipped or the grade is poor)",
    )
    val.add_argument("dataset")
    val.set_defaults(func=_cmd_validate)

    cor = sub.add_parser(
        "corrupt",
        help="deterministically corrupt a clean trace with FMS pathologies "
        "(chaos harness); writes the dump plus a machine-readable manifest",
    )
    cor.add_argument("dataset")
    cor.add_argument("--out", default="corrupted.jsonl")
    cor.add_argument("--seed", type=int, default=20170626)
    cor.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND[:INTENSITY]",
        help=f"corruption to inject (repeatable); kinds: {', '.join(CORRUPTION_KINDS)}. "
        "Default: every kind at --intensity",
    )
    cor.add_argument(
        "--intensity",
        type=float,
        default=0.05,
        help="fraction of eligible items affected for kinds without an "
        "explicit intensity (default 0.05)",
    )
    cor.add_argument("--manifest", default=None, help="manifest path (default: OUT.manifest.json)")
    cor.set_defaults(func=_cmd_corrupt)

    mine = sub.add_parser(
        "mine", help="cluster tickets into incidents (Section VII-B tool)"
    )
    mine.add_argument("dataset")
    mine.add_argument("--limit", type=int, default=20)
    mine.add_argument("--min-batch", type=int, default=25, dest="min_batch")
    mine.set_defaults(func=_cmd_mine)

    pred = sub.add_parser(
        "predict", help="evaluate the early-warning predictor (Section VII-A)"
    )
    pred.add_argument("dataset")
    pred.add_argument("--horizon", type=float, default=30.0)
    pred.set_defaults(func=_cmd_predict)

    cmp_ = sub.add_parser(
        "compare", help="compare two ticket dumps (real vs. synthetic, ...)"
    )
    cmp_.add_argument("left")
    cmp_.add_argument("right")
    cmp_.add_argument("--tolerance", type=float, default=0.5)
    cmp_.set_defaults(func=_cmd_compare)

    check = sub.add_parser(
        "selfcheck",
        help="generate a trace and validate it against the paper targets",
    )
    check.add_argument("--scale", type=float, default=0.1)
    check.add_argument("--seed", type=int, default=20170626)
    _add_jobs_flag(check)
    _add_telemetry_flag(check)
    check.set_defaults(func=_cmd_selfcheck)

    srv = sub.add_parser(
        "serve",
        help="run the streaming ticket-ingestion service "
        "(POST /ingest/<source>, GET /healthz, GET /metrics)",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8437)
    srv.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="stop after this many seconds (default: run until ^C)",
    )
    srv.add_argument(
        "--dataset", default=None,
        help="seed the live dataset from an existing dump",
    )
    srv.add_argument(
        "--dead-letter-dir", default=None, dest="dead_letter_dir",
        help="durable dead-letter store directory (default: in-memory)",
    )
    srv.add_argument(
        "--queue-watermark", type=int, default=64, dest="queue_watermark",
        help="bounded ingest queue capacity; beyond it submissions get "
        "HTTP 429 (default 64)",
    )
    srv.add_argument(
        "--max-batch-tickets", type=int, default=10_000,
        dest="max_batch_tickets",
        help="batches above this ticket count are dead-lettered as "
        "oversized (default 10000)",
    )
    srv.add_argument(
        "--refresh-every", type=int, default=0, dest="refresh_every",
        metavar="N",
        help="recompute the headline report every N accepted batches "
        "(0 disables; default 0)",
    )
    srv.add_argument(
        "--breaker-threshold", type=int, default=5, dest="breaker_threshold",
        help="consecutive failures before a source's circuit breaker "
        "opens (default 5)",
    )
    srv.add_argument(
        "--breaker-reset", type=float, default=30.0, dest="breaker_reset",
        help="seconds an open breaker waits before half-open probing "
        "(default 30)",
    )
    _add_cache_flags(srv)
    srv.set_defaults(func=_cmd_serve)

    rdl = sub.add_parser(
        "replay-deadletter",
        help="re-validate dead-lettered batches and recover what now "
        "passes (exit 1 if any batch is still poison)",
    )
    rdl.add_argument("directory", help="the service's --dead-letter-dir")
    rdl.add_argument(
        "--out", default=None,
        help="write recovered tickets to this dump (jsonl/csv)",
    )
    rdl.add_argument(
        "--drop", action="store_true",
        help="remove successfully replayed batches from the store",
    )
    rdl.add_argument(
        "--max-batch-tickets", type=int, default=10_000,
        dest="max_batch_tickets",
        help="size cap applied during re-validation (default 10000)",
    )
    rdl.set_defaults(func=_cmd_replay_deadletter)

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo-specific invariant checker "
        "(engines: ast, dataflow, effects, perf; see 'fouryears lint "
        "-- --help' for its own flags)",
    )
    lint.add_argument(
        "lint_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="arguments forwarded to python -m repro.devtools.lint",
    )
    lint.set_defaults(func=_cmd_lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="run all analyses under runtime immutability/fingerprint "
        "guards (see 'fouryears sanitize -- --help')",
    )
    sanitize.add_argument(
        "sanitize_args", nargs=argparse.REMAINDER, metavar="ARGS",
        help="arguments forwarded to python -m repro.devtools.sanitize",
    )
    sanitize.set_defaults(func=_cmd_sanitize)

    tele = sub.add_parser(
        "telemetry",
        help="render recorded execution telemetry (plan, stage and "
        "shard timings) from a --telemetry JSONL file",
    )
    tele.add_argument("path", help="telemetry JSONL file to render")
    tele.add_argument(
        "--last",
        action="store_true",
        help="show only the most recent run",
    )
    tele.set_defaults(func=_cmd_telemetry)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
