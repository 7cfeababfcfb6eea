"""Tests for the runtime sanitizer (:mod:`repro.devtools.sanitize`).

The sanitizer is the dynamic ground truth for the static RPL002/RPL003
rules: every store column must be frozen, and no guarded analysis may
drift the dataset's content fingerprint.  These tests check both the
happy path (real analyses are clean) and that the sanitizer actually
catches deliberate violations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columns import COLUMN_NAMES, ColumnStore, compute_fingerprint
from repro.core.dataset import FOTDataset
from repro.core.types import ComponentClass, FOTCategory
from repro.devtools.sanitize import (
    Sanitizer,
    SanitizerViolation,
    run_guarded_report,
)
from tests.test_ticket import make_ticket


def small_dataset_inline(n: int = 12) -> FOTDataset:
    """A throwaway dataset safe to mutate (session fixtures are shared)."""
    tickets = [
        make_ticket(
            fot_id=i,
            error_time=100.0 + 10.0 * i,
            category=FOTCategory.FIXING if i % 2 else FOTCategory.ERROR,
            op_time=(200.0 + 10.0 * i) if i % 2 else None,
            host_id=i % 5,
            host_idc=f"dc0{i % 3}",
            error_device=ComponentClass.HDD if i % 3 else ComponentClass.MEMORY,
            product_line="a" if i % 2 else "b",
        )
        for i in range(n)
    ]
    return FOTDataset(tickets)


def thaw(store: ColumnStore, name: str) -> np.ndarray:
    """Deliberately unfreeze one column (what the sanitizer must catch)."""
    column = store.column(name)
    column.setflags(write=True)  # reprolint: disable=RPL002 -- fixture creating the violation under test
    return column


# ---------------------------------------------------------------------------
# every column is frozen, on both build paths
# ---------------------------------------------------------------------------
def test_all_columns_frozen_from_tickets():
    dataset = small_dataset_inline()
    for name in COLUMN_NAMES:
        column = dataset.store.column(name)
        assert not column.flags.writeable, name
        with pytest.raises(ValueError):
            column[0] = column[0]  # reprolint: disable=RPL002 -- asserts the write raises


def test_all_columns_frozen_on_trace_build_path(tiny_dataset):
    # generate_trace goes through ColumnBuilder.build() in its shards and
    # concatenate() when it merges them; FOTDataset(tickets) above goes
    # through the builder alone.  Both must freeze.
    for name in COLUMN_NAMES:
        column = tiny_dataset.store.column(name)
        assert not column.flags.writeable, name


def test_view_and_concat_stay_frozen():
    dataset = small_dataset_inline()
    view = dataset.where(dataset.category_codes >= 0)
    sliced = dataset[2:7]
    for ds in (view, sliced):
        assert not ds.error_times.flags.writeable
        if ds._indices is not None:
            assert not ds._indices.flags.writeable


# ---------------------------------------------------------------------------
# Sanitizer mechanics
# ---------------------------------------------------------------------------
def test_clean_checkpoints_accumulate():
    dataset = small_dataset_inline()
    sanitizer = Sanitizer(dataset)
    sanitizer.checkpoint("a")
    value = sanitizer.guard(len, dataset)
    report = sanitizer.verify()
    assert value == len(dataset)
    assert report.clean
    assert report.guarded_calls == 1
    assert report.frozen_checks == 4  # a, before, after, final
    assert report.fingerprint_checks == 4
    assert "clean" in report.summary()


def test_detects_writeable_column():
    dataset = small_dataset_inline()
    sanitizer = Sanitizer(dataset, strict=False)
    thaw(dataset.store, "error_times")
    sanitizer.assert_frozen("probe")
    assert any("error_times" in v and "writeable" in v
               for v in sanitizer.report.violations)


def test_detects_content_drift_and_stale_memo():
    dataset = small_dataset_inline()
    # Prime the memoized fingerprint so the drift also makes it stale.
    assert dataset.store.fingerprint() == compute_fingerprint(dataset.store)
    sanitizer = Sanitizer(dataset, strict=False)
    column = thaw(dataset.store, "error_times")
    column[0] += 1.0  # deliberate: the violation under test
    column.setflags(write=False)
    sanitizer.assert_unchanged("probe")
    violations = sanitizer.report.violations
    assert any("content hash drifted" in v for v in violations)
    assert any("memoized store fingerprint is stale" in v for v in violations)


def test_strict_mode_raises_immediately():
    dataset = small_dataset_inline()
    sanitizer = Sanitizer(dataset, strict=True)
    thaw(dataset.store, "op_times")
    with pytest.raises(SanitizerViolation, match="op_times"):
        sanitizer.assert_frozen()


def test_verify_raises_even_in_lenient_mode():
    dataset = small_dataset_inline()
    sanitizer = Sanitizer(dataset, strict=False)
    thaw(dataset.store, "error_times")
    with pytest.raises(SanitizerViolation):
        sanitizer.verify()


def test_guard_flags_mutating_function():
    dataset = small_dataset_inline()
    sanitizer = Sanitizer(dataset, strict=False)

    def vandal(ds):
        column = thaw(ds.store, "error_times")
        column[0] += 5.0  # deliberate: the violation under test
        return "done"

    assert sanitizer.guard(vandal, dataset) == "done"
    assert not sanitizer.report.clean
    assert any("writeable" in v for v in sanitizer.report.violations)
    assert any("drifted" in v for v in sanitizer.report.violations)


# ---------------------------------------------------------------------------
# the real analyses are sanitizer-clean
# ---------------------------------------------------------------------------
def test_registry_and_full_report_are_clean(tiny_dataset):
    report = run_guarded_report(tiny_dataset)
    assert report.clean
    assert report.guarded_calls == 11  # 10 registry entries + full_report
    assert report.violations == []


def test_filtered_view_is_clean(tiny_dataset):
    # An index-backed view (mask keeps every row, so the analyses see the
    # same content) must pass the same guards, including the view-index
    # freeze and the view fingerprint.
    view = tiny_dataset.where(np.ones(len(tiny_dataset), dtype=bool))
    assert view._indices is not None
    report = run_guarded_report(view)
    assert report.clean
