"""Wall-time benchmark for reprolint.

Times one ``run_lint`` pass (the whole rule catalogue) over ``src/``
and over the full default tree (``src tests benchmarks``), prints the
numbers, and records them in a ``reprolint`` section of
``BENCH_perf.json`` alongside the core-substrate timings.

The dataflow and effects analyses re-analyze every function against
call-graph summary fixpoints, so the pass's wall time is what grows
with the repo; the CI timing gate (``--check --budget 60``) keeps the
lint of ``src/`` inside the budget that keeps the analysis usable::

    PYTHONPATH=src python benchmarks/bench_reprolint.py --check --budget 60

    # record timings into BENCH_perf.json
    PYTHONPATH=src python benchmarks/bench_reprolint.py --json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

from repro.devtools.lint import collect_files, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
PERF_PATH = REPO_ROOT / "BENCH_perf.json"

#: (label, lint targets) timed.
TARGETS = (
    ("src", ("src",)),
    ("tree", ("src", "tests", "benchmarks")),
)


def time_lint(paths, repeats: int) -> dict:
    targets = [str(REPO_ROOT / p) for p in paths]
    best = float("inf")
    findings = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_lint(targets,
                          baseline=REPO_ROOT / "reprolint-baseline.json")
        best = min(best, time.perf_counter() - start)
        findings = len(result.new)
    return {"seconds": best, "files": len(collect_files(targets)),
            "new_findings": findings}


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

    timings = {label: time_lint(paths, args.repeats)
               for label, paths in TARGETS}

    print(f"{'target':<8} {'files':>6} {'seconds':>9}")
    for label, entry in timings.items():
        print(f"{label:<8} {entry['files']:>6} {entry['seconds']:>9.3f}")
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
