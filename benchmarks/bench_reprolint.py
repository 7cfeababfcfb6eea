"""Wall-time benchmark for reprolint.

Times one ``run_lint`` pass (the whole rule catalogue) over ``src/``,
over the full default tree (``src tests benchmarks``) and over a fixed
input, productbench's frozen copy of ``src/repro`` at commit 8d1c491
(``corpus``), prints the numbers, and records them in a ``reprolint``
section of ``BENCH_perf.json`` alongside the core-substrate timings.

The dataflow and effects analyses run every function to a fixpoint
against call-graph summaries, so the times of ``src`` and the tree grow
with the repo, while the corpus is the same input for every change.
Each target's fastest run is also split into phases: parsing, building
the ``DataflowProject`` (which holds the one call graph), the effect
summaries over it (``effect_summaries``), and the per-file passes
(``check_file``, ``analyze_module`` and the effect rules), each timed
by wrapping those functions from outside, as productbench's tracer
times layers; the rest is reading files, suppressions and
fingerprints.
The corpus archive is checked against its sha256 in
``productbench/pins.json`` and unpacked into a temporary directory.
The CI timing gate (``--check --budget 60``) keeps the lint of ``src/``
inside the budget that keeps the analysis usable::

    PYTHONPATH=src python benchmarks/bench_reprolint.py --check --budget 60

    # record timings into BENCH_perf.json
    PYTHONPATH=src python benchmarks/bench_reprolint.py --json --repeats 5
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import platform
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Sequence

from repro.devtools.lint import collect_files, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_PATH = REPO_ROOT / "BENCH_perf.json"
PINS_PATH = REPO_ROOT / "productbench" / "pins.json"

#: phase -> the (module, function) pairs whose calls it sums.
PHASES = {
    "parse": [("ast", "parse")],
    "dataflow_project": [("repro.devtools.dataflow", "DataflowProject")],
    "effect_summaries": [("repro.devtools.effect_rules", "effect_summaries")],
    "file_passes": [("repro.devtools.lint", "check_file"),
                    ("repro.devtools.dataflow", "analyze_module"),
                    ("repro.devtools.effect_rules", "check_module")],
}


@contextmanager
def phase_timer() -> Iterator[Dict[str, float]]:
    """Wrap every :data:`PHASES` function for the duration; yields the
    seconds spent in each phase so far."""
    seconds = dict.fromkeys(PHASES, 0.0)
    originals = []

    def timed(function, phase):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[phase] += time.perf_counter() - start
        return wrapper

    for phase, functions in PHASES.items():
        for module_name, attr in functions:
            module = importlib.import_module(module_name)
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, timed(getattr(module, attr), phase))
    try:
        yield seconds
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)


def extract_corpus(into: Path) -> Path:
    """Unpack the pinned lint corpus under ``into`` after checking its
    sha256; returns its ``src/repro``."""
    pin = json.loads(PINS_PATH.read_text(encoding="utf-8"))["lint_corpus"]
    archive = PINS_PATH.parent / pin["archive"]
    digest = hashlib.sha256(archive.read_bytes()).hexdigest()
    if digest != pin["sha256"]:
        raise SystemExit(f"lint corpus {archive.name}: sha256 {digest}, "
                         f"pinned {pin['sha256']}")
    with tarfile.open(archive, "r:gz") as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "repro"


def time_lint(paths: Sequence[Path], repeats: int) -> dict:
    targets = [str(p) for p in paths]
    best = float("inf")
    findings = 0
    phases: Dict[str, float] = {}
    for _ in range(repeats):
        with phase_timer() as spent:
            start = time.perf_counter()
            result = run_lint(targets,
                              baseline=REPO_ROOT / "reprolint-baseline.json")
            seconds = time.perf_counter() - start
        if seconds < best:
            best, phases = seconds, spent
        findings = len(result.new)
    return {"seconds": best, "files": len(collect_files(targets)),
            "new_findings": findings, "phases": phases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs (default 3)")
    parser.add_argument("--check", action="store_true",
                        help="fail when the lint of src/ exceeds "
                             "--budget seconds")
    parser.add_argument("--budget", type=float, default=60.0,
                        help="timing budget in seconds for --check "
                             "(default 60)")
    parser.add_argument("--json", action="store_true",
                        help="record timings in BENCH_perf.json")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        targets = {
            "src": [REPO_ROOT / "src"],
            "tree": [REPO_ROOT / name
                     for name in ("src", "tests", "benchmarks")],
            "corpus": [extract_corpus(Path(scratch))],
        }
        timings = {label: time_lint(paths, args.repeats)
                   for label, paths in targets.items()}

    print(f"{'target':<8} {'files':>6} {'seconds':>9}  "
          + "  ".join(f"{phase:>16}" for phase in PHASES))
    for label, entry in timings.items():
        print(f"{label:<8} {entry['files']:>6} {entry['seconds']:>9.3f}  "
              + "  ".join(f"{entry['phases'][phase]:>16.3f}"
                          for phase in PHASES))
    src_seconds = timings["src"]["seconds"]
    print(f"\nlint of src/: {src_seconds:.3f}s "
          f"(budget {args.budget:.0f}s)")

    if args.json:
        payload = json.loads(PERF_PATH.read_text(encoding="utf-8")) \
            if PERF_PATH.exists() else {"schema": 1, "runs": {}}
        payload["reprolint"] = {
            "python": platform.python_version(),
            "budget_seconds": args.budget,
            "targets": timings,
        }
        PERF_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
        print(f"recorded reprolint timings in {PERF_PATH.name}")

    if args.check and src_seconds > args.budget:
        print(f"FAIL: lint of src/ took {src_seconds:.1f}s "
              f"> budget {args.budget:.0f}s", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
