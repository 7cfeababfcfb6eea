"""Shared fixtures.

Trace generation is the expensive part of the suite, so the two traces
most tests need are generated once per session:

* ``tiny_trace`` — scale 0.01 (~hundreds of servers, ~3k tickets).
* ``small_trace`` — scale 0.04 (~7k servers, ~11k tickets), used by the
  statistical assertions that need volume.

The whole-tree reprolint run is the other expensive step, so it too runs
once per session (``repo_lint``) and each rule family's test module
reads its own findings from that one result.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.config import paper_scenario
from repro.devtools.lint import LintResult, run_lint
from repro.simulation.trace import SyntheticTrace, generate_trace


@pytest.fixture(scope="session")
def tiny_trace() -> SyntheticTrace:
    return generate_trace(paper_scenario(scale=0.01, seed=1234))


@pytest.fixture(scope="session")
def small_trace() -> SyntheticTrace:
    return generate_trace(paper_scenario(scale=0.04, seed=20170626))


@pytest.fixture(scope="session")
def tiny_dataset(tiny_trace):
    return tiny_trace.dataset


@pytest.fixture(scope="session")
def small_dataset(small_trace):
    return small_trace.dataset


@pytest.fixture(scope="session")
def repo_lint() -> LintResult:
    """The whole rule catalogue over ``src tests benchmarks``, with no
    baseline."""
    root = Path(__file__).resolve().parents[1]
    return run_lint([str(root / name) for name in ("src", "tests", "benchmarks")])


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
