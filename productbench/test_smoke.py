"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q productbench/test_smoke.py

Checks that every workload ``BENCHMARK.json`` names runs and emits
exactly its declared metrics with their units, in both modes; that a
traced run leaves no function patched; and that the benchmark refuses
to run on inputs that differ from their pins or without the product.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import fixtures
import run
from tracer import bindings
from workloads import TARGETS, TINY, WORKLOADS

SPEC = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*argv: str):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv), sizes=TINY)
    lines = out.getvalue().splitlines()
    return code, (json.loads(lines[-1]) if code == 0 else None), lines


def test_benchmark_names_exactly_the_implemented_workloads():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_emits_every_declared_metric(workload, trace):
    before = bindings(TARGETS)
    code, result, lines = _run("--workload", workload, "--seed", "3",
                               "--seconds", "0.5", "--trace", trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)
    after = bindings(TARGETS)
    # Modules first imported during the run add bindings; none may change.
    assert {key: after.get(key) for key in before} == before, \
        "a traced function stayed patched"


def test_input_that_differs_from_its_pin_is_refused(monkeypatch):
    pins = json.loads(json.dumps(fixtures.PINS))
    pins["analyze_fixture"]["tiny"]["fingerprint"] = "0" * 64 + ":all"
    monkeypatch.setattr(fixtures, "PINS", pins)
    code, result, _ = _run("--workload", "analyze_paper", "--seed", "1",
                           "--seconds", "0.1")
    assert code == 3 and result is None


def test_fails_without_the_product_source():
    alone = run.WORK / "alone"
    shutil.rmtree(alone, ignore_errors=True)
    alone.mkdir(parents=True)
    try:
        shutil.copy(run.BENCH.parent / "BENCHMARK.json", alone)
        shutil.copytree(run.BENCH, alone / "productbench",
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "productbench/run.py", "--workload",
             "lint_corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=alone, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(alone, ignore_errors=True)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
