"""DataQuality assessment, graceful degradation and the drift sweep."""

import json
import math

import numpy as np
import pytest

from repro.analysis import response
from repro.core.dataset import FOTDataset
from repro.core.types import ComponentClass, FOTCategory, OperatorAction
from repro.robustness import (
    DataQuality,
    InsufficientDataError,
    clean_response_times,
)
from repro.robustness.drift import HEADLINE_STATS, robustness_sweep
from tests.test_ticket import make_ticket


def _open_ticket(i, **kw):
    kw.setdefault("category", FOTCategory.ERROR)
    kw.setdefault("action", None)
    kw.setdefault("operator_id", None)
    kw.setdefault("op_time", None)
    return make_ticket(fot_id=i, host_id=i, error_time=float(i) * 1e5, **kw)


def _closed_ticket(i, **kw):
    kw.setdefault("category", FOTCategory.FIXING)
    kw.setdefault("action", OperatorAction.REPAIR_ORDER)
    kw.setdefault("op_time", float(i) * 1e5 + 3600.0)
    return make_ticket(fot_id=i, host_id=i, error_time=float(i) * 1e5, **kw)


class TestDatasetHelpers:
    def test_with_op_time_filters_open_tickets(self):
        ds = FOTDataset([_closed_ticket(0), _open_ticket(1), _closed_ticket(2)])
        kept = ds.with_op_time()
        assert len(kept) == 2
        assert not np.isnan(kept.op_times).any()

    def test_duplicate_suspect_mask_flags_reopens(self):
        base = _closed_ticket(0)
        reopen = make_ticket(
            fot_id=1, host_id=base.host_id, error_time=base.error_time + 600.0
        )
        unrelated = make_ticket(fot_id=2, host_id=99, error_time=base.error_time + 600.0)
        later = make_ticket(
            fot_id=3, host_id=base.host_id, error_time=base.error_time + 10 * 86400.0
        )
        ds = FOTDataset([base, reopen, unrelated, later])
        mask = ds.duplicate_suspect_mask(window_seconds=86400.0)
        assert mask.tolist() == [False, True, False, False]
        assert len(ds.where(~mask)) == 3

    def test_mask_respects_window(self):
        a = _closed_ticket(0)
        b = make_ticket(fot_id=1, host_id=a.host_id, error_time=a.error_time + 600.0)
        ds = FOTDataset([a, b])
        assert ds.duplicate_suspect_mask(window_seconds=1.0).sum() == 0


class TestAssess:
    def test_clean_dataset_is_ok(self, tiny_dataset):
        quality = DataQuality.assess(tiny_dataset)
        assert quality.grade == "ok"
        assert quality.n_tickets == len(tiny_dataset)
        assert quality.coverage["op_time"].fraction == 1.0
        assert quality.out_of_range_positions == 0

    def test_missing_op_time_degrades(self):
        tickets = [_closed_ticket(i) for i in range(10)]
        tickets += [_closed_ticket(i, op_time=None) for i in range(10, 14)]
        quality = DataQuality.assess(FOTDataset(tickets))
        assert quality.coverage["op_time"].fraction == pytest.approx(10 / 14)
        assert quality.grade == "degraded"
        assert any("op_time" in w for w in quality.warnings)

    def test_mostly_missing_op_time_is_poor(self):
        tickets = [_closed_ticket(i) for i in range(3)]
        tickets += [_closed_ticket(i, op_time=None) for i in range(3, 10)]
        assert DataQuality.assess(FOTDataset(tickets)).grade == "poor"

    def test_open_tickets_do_not_count_against_coverage(self):
        tickets = [_closed_ticket(0), *(_open_ticket(i) for i in range(1, 6))]
        quality = DataQuality.assess(FOTDataset(tickets))
        assert quality.coverage["op_time"].fraction == 1.0

    def test_duplicates_and_positions_counted(self):
        base = _closed_ticket(0)
        dupes = [
            make_ticket(
                fot_id=i, host_id=base.host_id, error_time=base.error_time + i * 60.0
            )
            for i in range(1, 4)
        ]
        weird = make_ticket(fot_id=9, host_id=9, error_position=0, error_time=0.0)
        object.__setattr__(weird, "error_position", 5000)
        quality = DataQuality.assess(FOTDataset([base, *dupes, weird]))
        assert quality.duplicate_suspects == 3
        assert quality.out_of_range_positions == 1
        assert quality.grade == "poor"

    def test_empty_dataset_is_poor(self):
        assert DataQuality.assess(FOTDataset([])).grade == "poor"

    def test_format_and_to_dict(self):
        tickets = [_closed_ticket(i, op_time=None) for i in range(4)]
        quality = DataQuality.assess(FOTDataset(tickets))
        quality.note_exclusion("response", "no op_time recorded", 4, 0)
        text = quality.format()
        assert "data quality: poor" in text
        assert "excluded by response" in text
        payload = json.loads(json.dumps(quality.to_dict()))
        assert payload["grade"] == "poor"
        assert payload["exclusions"][0]["n_excluded"] == 4

    def test_note_exclusion_ignores_zero(self):
        quality = DataQuality.assess(FOTDataset([_closed_ticket(0)]))
        quality.note_exclusion("response", "nothing", 0, 1)
        assert quality.exclusions == []


class TestGracefulDegradation:
    def _mixed(self):
        tickets = [_closed_ticket(i) for i in range(40)]
        tickets += [_closed_ticket(i, op_time=None) for i in range(40, 50)]
        return FOTDataset(tickets)

    def test_clean_response_times_reports_exclusions(self):
        ds = self._mixed()
        quality = DataQuality.assess(ds)
        rts = clean_response_times(ds, analysis="response", quality=quality)
        assert rts.size == 40
        (exclusion,) = quality.exclusions
        assert exclusion.n_excluded == 10 and exclusion.n_used == 40

    def test_audit_notes_response_exclusions_per_closed_category(self, tmp_path):
        from repro import api
        from repro.analysis.full_report import quality_notes
        from repro.core import io as core_io
        from repro.robustness import audit_dataset

        tickets = list(self._mixed())
        tickets += [_closed_ticket(i, category=FOTCategory.FALSE_ALARM,
                                   action=OperatorAction.MARK_FALSE_ALARM, op_time=None)
                    for i in range(50, 53)]
        tickets += [_open_ticket(i) for i in range(53, 60)]
        ds = FOTDataset(tickets)
        quality = audit_dataset(ds)
        assert [(e.analysis, e.n_excluded, e.n_used) for e in quality.exclusions] == [
            ("response", 10, 40), ("response", 3, 0)
        ]
        path = tmp_path / "dump.jsonl"
        core_io.save(ds, path)
        assert api.audit(path).quality.format() == quality.format()
        assert quality_notes(ds) == quality.format()

    def test_rt_distribution_survives_missing_op_time(self):
        ds = self._mixed()
        quality = DataQuality.assess(ds)
        dist = response.rt_distribution(ds, quality=quality)
        assert dist.n == 40
        assert quality.exclusions

    def test_all_open_raises_insufficient(self):
        ds = FOTDataset([_open_ticket(i) for i in range(5)])
        with pytest.raises(InsufficientDataError):
            response.response_times_seconds(ds)
        with pytest.raises(ValueError):  # subclass keeps old contract
            response.mttr_days(ds, FOTCategory.FIXING)


class TestRobustnessSweep:
    def test_drift_table_shape_and_content(self, tiny_dataset):
        kinds = ("duplicates", "drop_op_time", "bad_positions", "mislabel_category")
        table = robustness_sweep(
            tiny_dataset[:600], kinds=kinds, intensities=(0.2,), seed=7
        )
        assert len(table.runs) == 4
        assert set(table.clean_stats) == set(HEADLINE_STATS)
        assert len(table.cells) == 4 * len(HEADLINE_STATS)

        by_cell = {(c.kind, c.stat): c for c in table.cells}
        mislabel = by_cell[("mislabel_category", "fixing_share")]
        assert mislabel.corrupted_value != mislabel.clean_value
        duplicates = by_cell[("duplicates", "mtbf_minutes")]
        assert duplicates.corrupted_value < duplicates.clean_value

        text = table.format()
        assert "fixing_share" in text and "mislabel_category" in text

    def test_sweep_is_deterministic(self, tiny_dataset):
        subset = tiny_dataset[:300]
        kinds = ("duplicates", "truncate_fields")
        a = robustness_sweep(subset, kinds=kinds, intensities=(0.1,), seed=3)
        b = robustness_sweep(subset, kinds=kinds, intensities=(0.1,), seed=3)
        assert a.to_dict() == b.to_dict()

    def test_unanswerable_stat_becomes_nan(self):
        ds = FOTDataset(
            [_open_ticket(i, error_device=ComponentClass.HDD) for i in range(30)]
        )
        table = robustness_sweep(ds, kinds=("drop_op_time",), intensities=(0.1,), seed=1)
        assert math.isnan(table.clean_stats["median_rt_days"])
        assert "n/a" in table.format()
