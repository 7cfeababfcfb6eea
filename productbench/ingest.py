"""The ``ingest_stream`` workload: an open-loop load generator and a
closed-loop replay against the ingestion service.

Batches are POSTed as JSON bodies through ``ServeApp.handle_async`` to
an ``IngestRouter`` in this process; no sockets are opened, so the
numbers describe the service, not the loopback stack.

* The open loop sends batch ``i`` at ``t0 + i * interval`` whether or
  not earlier batches are done, through at most ``nproc`` concurrent
  connections (the CPUs this process may use).  Each batch's latency
  runs from its due time until the router has accepted, quarantined or
  dead-lettered it, so a stall is charged to every batch it delays.
  Readers render the headline report over the live dataset on their
  own fixed schedule.  It runs ``OPEN_PASSES`` times.
* The closed loop replays the same bodies into a fresh router as fast
  as it takes them (each POST waits for the previous reply); tickets
  over wall time is the capacity.  It runs ``REPLAYS`` times.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.full_report import full_report
from repro.core.types import ComponentClass
from repro.robustness.chaos import corrupt_stream, default_stream_specs
from repro.serve.config import BreakerConfig, RetryPolicy, ServeConfig
from repro.serve.http import ServeApp
from repro.serve.router import IngestRouter
from repro.serve.store import TransientAppendError

#: Offered load of the open loop, in clean tickets per second: about a
#: quarter of the closed-loop capacity on the one CPU the benchmark
#: uses (~20k tickets/s).  With the headline reads and the refreshes
#: that keeps the CPU at most ~60 % busy, below saturation, where
#: latency would swing with every slow episode of a shared host; at half
#: of capacity the tail's spread across runs was twice the bound.
#: Fixed, so runs of different commits see the same offered load.
OFFERED_TPS = 5000
OFFERED_RATE_REASON = (
    "a quarter of one-CPU closed-loop capacity (~20k tickets/s): with "
    "reads the CPU stays below saturation"
)
#: open-loop passes per run, each into a fresh router; the latency
#: metrics are the median over passes of each pass's p50 and tail.  The
#: tail of one pass is its 11th-slowest batch, one of the ~20 a read
#: slowed, and moved by a tenth between runs; the middle of two moves
#: less.  Passes are not pooled: with twice the batches the tail would
#: be the 11th-slowest of 210, right where the ~10 batches held up by
#: the router's refreshes end.
OPEN_PASSES = 2
#: closed-loop replays per run; capacity is taken from their median.
#: A replay lasts ~2 s, about as long as a slow episode of a shared host
#: (see ``hostspeed``), so single replays of one stream read from 35k to
#: 43k tickets/s at reference speed; the median of five still moved by a
#: tenth between runs.
REPLAYS = 7
BATCH_TICKETS = 500
CHAOS_INTENSITY = 0.05
#: every Nth batch fails its first append once, so retries happen
FAULT_EVERY = 25
#: seconds between headline reads.  A read takes 0.2-0.6 s and slows
#: every batch it overlaps two- to threefold (the GIL).  Once a second,
#: reads overlapped 35-45 % of the batches, so the p50 sat on the edge
#: between slowed and unslowed batches and moved by a third between
#: runs; every two seconds about a fifth are slowed, which puts the p50
#: among the unslowed batches and the p90 tail among the slowed ones.
READ_PERIOD_S = 2.0
#: accepted batches between the router's own headline refreshes (the
#: value of the ``repro.serve`` quickstart).  A refresh holds up the ~5
#: batches queued behind it.  Every 50 batches, those made up ~10 % of a
#: run, so the p90 tail sat on the edge between them and the rest and
#: jumped between ~40 and ~120 ms from run to run.
REFRESH_EVERY = 100
SOURCES = 4
#: wait before re-sending a batch the service refused with 429
RETRY_429_S = 0.002

_CATEGORIES = ("d_fixing", "d_error", "d_falsealarm")
_CATEGORY_P = (0.703, 0.280, 0.017)
_COMPONENTS = tuple(c.value for c in ComponentClass)
_COMPONENT_P = (0.55, 0.04, 0.02, 0.02, 0.08, 0.05, 0.03, 0.04, 0.05, 0.02, 0.10)
_SOURCE_KINDS = ("syslog", "polling", "manual")
_SOURCE_P = (0.55, 0.35, 0.10)
_ERROR_TYPES = (
    "SMARTFail", "NotReady", "MediaError", "UncorrectableECC",
    "PSUFailure", "FanStall", "KernelPanic", "ManualReport",
)
_HORIZON = 4 * 365.25 * 86400.0


def synth_records(n: int, seed: int) -> List[Dict[str, object]]:
    """``n`` valid raw ticket records in error-time order: volume with
    the field mix of the paper trace, not its statistics.

    The same records as ``benchmarks/bench_perf_core.synth_records``,
    kept here so that changes to that bench never change this input."""
    rng = np.random.default_rng(seed)
    n_hosts = max(50, n // 10)
    hosts = rng.integers(0, n_hosts, size=n)
    times = np.sort(rng.uniform(0.0, _HORIZON, size=n))
    cats = rng.choice(len(_CATEGORIES), size=n, p=np.asarray(_CATEGORY_P))
    comps = rng.choice(len(_COMPONENTS), size=n, p=np.asarray(_COMPONENT_P))
    kinds = rng.choice(len(_SOURCE_KINDS), size=n, p=np.asarray(_SOURCE_P))
    types = rng.integers(0, len(_ERROR_TYPES), size=n)
    slots = rng.integers(0, 12, size=n)
    deployed = np.minimum(rng.uniform(0.0, 0.5 * _HORIZON, size=n), times)
    rt = rng.lognormal(mean=11.0, sigma=1.2, size=n)
    records = []
    for i, (host, t, cat, comp, kind, etype, slot, dep, r) in enumerate(zip(
        hosts.tolist(), times.tolist(), cats.tolist(), comps.tolist(),
        kinds.tolist(), types.tolist(), slots.tolist(), deployed.tolist(),
        rt.tolist(),
    )):
        category = _CATEGORIES[cat]
        closed = category != "d_error"
        records.append({
            "fot_id": i,
            "host_id": host,
            "hostname": f"host{host:07d}",
            "host_idc": f"dc{host % 24:02d}",
            "error_device": _COMPONENTS[comp],
            "error_type": _ERROR_TYPES[etype],
            "error_time": t,
            "error_position": host % 40,
            "error_detail": f"dev{slot}",
            "category": category,
            "source": _SOURCE_KINDS[kind],
            "product_line": f"line{host % 15:02d}",
            "deployed_at": dep,
            "device_slot": slot,
            "action": ("repair_order" if category == "d_fixing" else
                       "mark_false_alarm" if category == "d_falsealarm"
                       else ""),
            "operator_id": f"op{i % 37:02d}" if closed else "",
            "op_time": t + r if closed else "",
        })
    return records


@dataclass(frozen=True)
class Stream:
    """JSON request bodies, in send order, and what they carry."""

    bodies: Tuple[bytes, ...]
    tickets: int

    @property
    def batches(self) -> int:
        return len(self.bodies)


def build_stream(clean_tickets: int, seed: int) -> Stream:
    """Synthesize ``clean_tickets`` records, cut them into batches, run
    every stream corruptor over them and encode each batch as a body."""
    records = synth_records(clean_tickets, seed)
    batches = [
        records[i:i + BATCH_TICKETS]
        for i in range(0, len(records), BATCH_TICKETS)
    ]
    chaotic, _ = corrupt_stream(
        batches, default_stream_specs(CHAOS_INTENSITY), seed
    )
    return Stream(
        bodies=tuple(json.dumps(b).encode("utf-8") for b in chaotic),
        tickets=sum(len(b) for b in chaotic),
    )


class _FaultEveryNth:
    """Fail the first append of every Nth batch once (the retry wins)."""

    def __init__(self, every: int):
        self.every = every
        self.faulted: set = set()

    def __call__(self, batch) -> None:
        if batch.seq % self.every == 0 and batch.seq not in self.faulted:
            self.faulted.add(batch.seq)
            raise TransientAppendError(f"injected fault on seq={batch.seq}")


class _TimedRouter(IngestRouter):
    """An ``IngestRouter`` that notes when each batch reaches its
    terminal disposition (accepted, quarantined or dead-lettered)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.done_at: Dict[int, float] = {}

    async def _process(self, batch) -> None:
        try:
            await super()._process(batch)
        finally:
            self.done_at[batch.seq] = time.perf_counter()


def make_router(dead_letter_dir: Path) -> _TimedRouter:
    """A router with a durable dead-letter store under ``dead_letter_dir``
    (emptied first), fast retries and breakers that tolerate the chaos."""
    shutil.rmtree(dead_letter_dir, ignore_errors=True)
    return _TimedRouter(
        ServeConfig(
            queue_high_watermark=64,
            max_batch_tickets=BATCH_TICKETS * 3,
            refresh_interval_batches=REFRESH_EVERY,
            dead_letter_dir=dead_letter_dir,
            retry=RetryPolicy(attempts=3, base_seconds=0.001, max_seconds=0.01),
            breaker=BreakerConfig(failure_threshold=50, reset_seconds=0.05),
        ),
        append_fault=_FaultEveryNth(FAULT_EVERY),
    )


@dataclass
class PhaseResult:
    """What one pass of batches through a router produced."""

    started: float
    elapsed_s: float = 0.0
    #: ``(due time, latency)`` of every batch the service took
    latencies: List[Tuple[float, float]] = field(default_factory=list)
    read_latencies_s: List[float] = field(default_factory=list)
    rejected_429: int = 0
    errors_5xx: int = 0
    failed_batches: int = 0
    lag_max_s: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    snapshot: Dict[str, object] = field(default_factory=dict)
    refresh_s: List[float] = field(default_factory=list)


async def _post(app: ServeApp, source: str, body: bytes,
                result: PhaseResult) -> Optional[int]:
    """POST one batch until the service takes it; its router seq, or
    ``None`` when the service refused it for good."""
    while True:
        status, payload, _ = await app.handle_async(
            "POST", f"/ingest/{source}", body
        )
        if status == 202:
            return int(payload["seq"])
        if status == 429:
            result.rejected_429 += 1
            await asyncio.sleep(RETRY_429_S)
            continue
        if status >= 500:
            result.errors_5xx += 1
        result.failed_batches += 1
        return None


def _finish(router: _TimedRouter, result: PhaseResult) -> PhaseResult:
    result.snapshot = router.metrics_snapshot()
    result.counters = dict(result.snapshot["counters"])
    result.refresh_s = [
        stage.wall_seconds
        for run in router.telemetry.runs for stage in run.stages
        if stage.name == "refresh"
    ]
    return result


async def _reader(router: _TimedRouter, stop: asyncio.Event,
                  start: float, result: PhaseResult) -> None:
    """Every ``READ_PERIOD_S``, render the headline report over the live
    dataset for two dashboards in turn.  The first render's latency,
    from its due time, is the read latency; the second finds it cached."""
    loop = asyncio.get_running_loop()
    due = start + READ_PERIOD_S
    while True:
        delay = due - time.perf_counter()
        if delay > 0:
            try:
                await asyncio.wait_for(stop.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass
        if stop.is_set():
            return
        snapshot = router.live.current()
        if len(snapshot):
            render = functools.partial(
                full_report, snapshot, cache=router.cache, headline_only=True
            )
            await loop.run_in_executor(None, render)
            result.read_latencies_s.append(time.perf_counter() - due)
            # A second dashboard reads the same snapshot: a cache hit.
            await loop.run_in_executor(None, render)
        due += READ_PERIOD_S
        while due < time.perf_counter():
            due += READ_PERIOD_S


async def _open_loop(router: _TimedRouter, stream: Stream,
                     connections: int) -> PhaseResult:
    app = ServeApp(router)
    loop = asyncio.get_running_loop()
    interval = BATCH_TICKETS / OFFERED_TPS
    gate = asyncio.Semaphore(connections)
    router.start()
    start = time.perf_counter()
    result = PhaseResult(started=start)
    due = [start + i * interval for i in range(stream.batches)]
    seqs: List[Optional[int]] = [None] * stream.batches
    stop = asyncio.Event()
    reader = loop.create_task(_reader(router, stop, start, result))

    async def send(i: int) -> None:
        async with gate:
            seqs[i] = await _post(
                app, f"idc{i % SOURCES:02d}", stream.bodies[i], result
            )

    senders = []
    for i in range(stream.batches):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lag_max_s = max(result.lag_max_s, time.perf_counter() - due[i])
        senders.append(loop.create_task(send(i)))
    await asyncio.gather(*senders)
    await router.drain()
    result.elapsed_s = time.perf_counter() - start
    stop.set()
    await reader
    await router.stop(drain=False)
    result.latencies = [
        (due[i], router.done_at[seq] - due[i])
        for i, seq in enumerate(seqs) if seq is not None
    ]
    return _finish(router, result)


async def _closed_loop(router: _TimedRouter, stream: Stream) -> PhaseResult:
    app = ServeApp(router)
    router.start()
    start = time.perf_counter()
    result = PhaseResult(started=start)
    for i, body in enumerate(stream.bodies):
        await _post(app, f"idc{i % SOURCES:02d}", body, result)
    await router.drain()
    result.elapsed_s = time.perf_counter() - start
    await router.stop(drain=False)
    return _finish(router, result)


def open_loop(stream: Stream, dead_letter_dir: Path) -> PhaseResult:
    connections = len(os.sched_getaffinity(0))  # nproc
    return asyncio.run(_open_loop(
        make_router(dead_letter_dir), stream, connections
    ))


def closed_loop(stream: Stream, dead_letter_dir: Path) -> PhaseResult:
    return asyncio.run(_closed_loop(make_router(dead_letter_dir), stream))


def ledger_errors(result: PhaseResult, stream: Stream) -> List[str]:
    """Why the phase lost or mishandled tickets; empty when it did not."""
    c = result.counters
    errors = []
    if c["tickets_submitted"] != stream.tickets:
        errors.append(
            f"submitted {c['tickets_submitted']} != sent {stream.tickets}"
        )
    accounted = (c["tickets_accepted"] + c["tickets_quarantined"]
                 + c["tickets_dead_lettered"])
    if accounted != c["tickets_submitted"]:
        errors.append(
            f"accepted+quarantined+dead_lettered {accounted} != "
            f"submitted {c['tickets_submitted']}"
        )
    failures = result.snapshot["dead_letter"]["write_failures"]
    if failures:
        errors.append(f"{failures} dead-letter writes failed")
    if result.errors_5xx:
        errors.append(f"{result.errors_5xx} responses were 5xx")
    if result.failed_batches:
        errors.append(f"{result.failed_batches} batches were refused")
    return errors
