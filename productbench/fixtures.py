"""Pinned inputs: the ``analyze_paper`` trace and the ``lint_corpus``
sources.

``pins.json`` records what each input must be: the trace's content
fingerprint, ticket and inventory row counts, and the lint archive's
commit and sha256.  An input that differs from its pin stops the run
with :class:`InputMismatch`, so two commits are never compared on
different inputs — a simulator change cannot silently change what
``analyze_paper`` analyzes.

The trace is built once per checkout by ``repro.simulate`` in a child
process (so the benchmark process's peak memory is its own) and cached
under the work directory.  Run this module to build one by hand::

    python3 productbench/fixtures.py paper productbench/.work/fixtures/paper
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tarfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict

BENCH = Path(__file__).resolve().parent
PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))


class InputMismatch(RuntimeError):
    """An input differs from its pin; the run must not be compared."""


@dataclass(frozen=True)
class TraceFixture:
    trace: Path
    inventory: Path
    tickets: int


def build_trace(name: str, out: Path) -> None:
    """Simulate the pinned scenario and save it as a ``.fourcol`` trace
    plus an inventory CSV under ``out``."""
    import repro
    from repro.core.storage import save_columnar

    pin = PINS["analyze_fixture"][name]
    trace = repro.simulate(scale=pin["scale"], seed=pin["seed"])
    out.mkdir(parents=True, exist_ok=True)
    save_columnar(trace.dataset, out / "trace.fourcol")
    trace.inventory.save_csv(out / "inventory.csv")


def product_env() -> Dict[str, str]:
    """This environment with the checkout's ``src/`` on ``PYTHONPATH``,
    for child interpreters that import the product."""
    env = dict(os.environ)
    src = str(BENCH.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def ensure_trace(name: str, work: Path) -> TraceFixture:
    """The cached trace fixture ``name``, built first if missing."""
    root = work / "fixtures" / name
    if not (root / "inventory.csv").exists():
        tmp = root.with_name(root.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(Path(__file__)), name, str(tmp)],
            check=True, env=product_env(),
        )
        shutil.rmtree(root, ignore_errors=True)
        tmp.rename(root)
    return TraceFixture(
        trace=root / "trace.fourcol",
        inventory=root / "inventory.csv",
        tickets=PINS["analyze_fixture"][name]["tickets"],
    )


def verify_trace(name: str, fixture: TraceFixture) -> None:
    """Re-hash every blob of the trace and check it against its pin."""
    from repro.core.storage import load_columnar

    pin = PINS["analyze_fixture"][name]
    dataset = load_columnar(fixture.trace, verify=True)
    with fixture.inventory.open("rb") as fh:
        rows = sum(1 for _ in fh) - 1
    found = {
        "fingerprint": dataset.fingerprint(),
        "tickets": len(dataset),
        "inventory_rows": rows,
    }
    for key, value in found.items():
        if value != pin[key]:
            raise InputMismatch(
                f"analyze fixture {name!r}: {key} is {value!r}, pinned "
                f"{pin[key]!r}; the simulator's output changed.  Compare "
                f"no runs across this change; re-pin in pins.json on purpose."
            )


def extract_corpus(work: Path) -> Path:
    """Unpack the pinned lint corpus afresh; returns its ``src/repro``."""
    pin = PINS["lint_corpus"]
    archive = BENCH / pin["archive"]
    digest = hashlib.sha256(archive.read_bytes()).hexdigest()
    if digest != pin["sha256"]:
        raise InputMismatch(
            f"lint corpus {archive.name}: sha256 {digest}, pinned {pin['sha256']}"
        )
    root = work / "lint_corpus"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    with tarfile.open(archive, "r:gz") as tar:
        tar.extractall(root, filter="data")
    corpus = root / "src" / "repro"
    files = sum(1 for _ in corpus.rglob("*.py"))
    if files != pin["files"]:
        raise InputMismatch(
            f"lint corpus: {files} python files, pinned {pin['files']}"
        )
    return corpus


if __name__ == "__main__":
    build_trace(sys.argv[1], Path(sys.argv[2]))
