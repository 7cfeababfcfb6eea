"""Shared fixtures.

Trace generation is the expensive part of the suite, so the two traces
most tests need are generated once per session:

* ``tiny_trace`` — scale 0.01 (~hundreds of servers, ~3k tickets).
* ``small_trace`` — scale 0.04 (~7k servers, ~11k tickets), used by the
  statistical assertions that need volume.

The whole-tree reprolint run is the other expensive step, so it too runs
once per session (``repo_lint``) and each rule family's test module
reads its own findings from that one result.  The same holds for the
lint of productbench's frozen corpus (``corpus_lint``).
"""

from __future__ import annotations

import tarfile
from pathlib import Path
from typing import Tuple

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


@pytest.fixture(scope="session")
def corpus_lint(tmp_path_factory) -> Tuple[Path, LintResult]:
    """``(root, result)``: productbench's frozen copy of ``src/repro``
    (commit 8d1c491, the ``lint_corpus`` workload's input) extracted
    under ``root``, and the whole rule catalogue over it, with no
    baseline."""
    archive = Path(__file__).resolve().parents[1] / "productbench" \
        / "corpus" / "src-8d1c491.tar.gz"
    root = tmp_path_factory.mktemp("lint_corpus")
    with tarfile.open(archive, "r:gz") as tar:
        tar.extractall(root, filter="data")
    return root, run_lint([str(root / "src" / "repro")])


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
