#!/usr/bin/env python3
"""The product benchmark: four workloads through product entry points.

Run from the root of a checkout::

    python3 productbench/run.py --workload analyze_paper --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``analyze_paper``, ``ingest_stream``, ``simulate_quarter``,
``lint_corpus`` (see ``BENCHMARK.json`` for why each exists).

With ``--trace 0`` the last line of output is a JSON object carrying
every end-to-end metric ``BENCHMARK.json`` declares; with ``--trace 1``
the layer functions are wrapped and it carries every per-layer metric
instead (a layer the workload never calls reads 0).  Spans of traced
runs are written to ``productbench/.work/spans/``.

End-to-end metrics, the same five for every workload:

* ``setup_s``: median of three set-ups, each a fresh interpreter
  importing the product plus building (or verifying) the inputs;
* ``peak_rss_mb``: peak resident memory of this process, which is
  fresh for every run;
* ``latency_p50_ms`` / ``latency_tail_ms``: latency of the workload's
  requests.  For ``ingest_stream`` a request is one POSTed batch, timed
  from its due time to its disposition under the fixed offered rate;
  for the others it is one whole pass (one ``analyze``, ``simulate`` or
  lint run).  The tail is the highest whole percentile with at least
  ten samples beyond it, or the slowest sample when there are ten or
  fewer.  ``ingest_stream`` takes both per open-loop pass and reports
  their median over its passes;
* ``throughput_per_s``: items one closed-loop pass handles per second
  of its median time: tickets (analyze, simulate, the ingest replay) or
  source files (lint).

Every time is converted to reference host speed (see ``hostspeed.py``);
the raw times are printed on the line above the result.

Exit codes: 0 with a result line; 2 when the product source is
missing; 3 when an input differs from its pin in ``pins.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from fixtures import InputMismatch, product_env
from hostspeed import HostSpeed, one_cpu

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 3


def declared() -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, per kind, as ``BENCHMARK.json`` declares."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _setup(workload, seed: int, seconds: float):
    """One set-up: a fresh interpreter imports the product, then this
    process builds the inputs.  Returns ``((start, seconds), inputs)``."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(workload.modules)],
        check=True, env=product_env(),
    )
    inputs = workload.prepare(seed, seconds, WORK)
    return (started, time.perf_counter() - started), inputs


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def main(argv: Optional[Sequence[str]] = None, sizes=None) -> int:
    """Run one workload and print its result line; ``sizes`` swaps in
    small inputs (the smoke test passes ``workloads.TINY``)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"productbench: no product source at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # The workloads import the product, so only once it is known present.
    from workloads import PAPER, WORKLOADS, tail_label, timings

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](sizes or PAPER)
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        with one_cpu() as cpu:
            workload.ensure(WORK)
            with HostSpeed() as speed:
                setups: List[Tuple[float, float]] = []
                for _ in range(SETUP_REPEATS):
                    inputs = None  # let the previous inputs go first
                    span, inputs = _setup(workload, args.seed, args.seconds)
                    setups.append(span)
                if args.trace:
                    outcome, layers = workload.trace(inputs, args.seconds, WORK)
                else:
                    outcome = workload.measure(inputs, args.seconds, WORK)
    except InputMismatch as exc:
        print(f"productbench: refusing to run: {exc}", file=sys.stderr)
        return 3

    print(f"workload {workload.name} seed {args.seed} on cpu {cpu}: setups "
          f"{', '.join(f'{s:.3f}' for _, s in setups)} s")
    for key, value in outcome.notes.items():
        print(f"  {key}: {value}")
    for error in outcome.errors:
        print(f"  ERROR: {error}")

    metric_units = declared()
    if args.trace:
        unknown = set(layers) - set(metric_units["per_layer"])
        if unknown:
            raise KeyError(f"per-layer metrics not declared: {sorted(unknown)}")
        spans = WORK / "spans"
        spans.mkdir(exist_ok=True)
        for i, tracer in enumerate(workload.tracers):
            for path in tracer.missing:
                print(f"  WARNING: trace target missing: {path}")
            tracer.write(spans / f"{workload.name}-{args.seed}-{i}.jsonl")
        metrics = {
            name: _metric(float(layers.get(name, 0.0)), unit)
            for name, unit in metric_units["per_layer"].items()
        }
    else:
        values = timings(outcome, setups, speed.normalize)
        raw = timings(outcome, setups, lambda start, seconds: seconds)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        samples = [len(group) for group in outcome.latencies]
        print(f"  latency samples: {' + '.join(map(str, samples))}, tail = "
              f"{tail_label(min(samples))}; host-speed probes: "
              f"{len(speed.units)}")
        print("  raw: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
        metrics = {
            name: _metric(values[name], unit)
            for name, unit in metric_units["end_to_end"].items()
        }

    print(json.dumps({
        "correct": not outcome.errors and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
