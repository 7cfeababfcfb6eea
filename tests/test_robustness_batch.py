"""Batch-granular quarantine verdicts (``repro.robustness.batch``)."""

import math

import numpy as np
import pytest

from repro.robustness.batch import (
    ACCEPTED,
    ACCEPTED_WITH_QUARANTINE,
    ACCEPTING_VERDICTS,
    POISON_DIRTY,
    POISON_OVERSIZED,
    POISON_STRUCTURAL,
    VERDICTS,
    validate_batch,
)
from tests.serve_util import make_dirty_records, make_records


class TestVerdicts:
    def test_clean_batch_accepted(self):
        v = validate_batch(make_records(50))
        assert v.verdict == ACCEPTED
        assert v.accepted
        assert v.n_accepted == 50 and v.n_quarantined == 0
        assert len(v.dataset) == 50

    def test_minority_dirt_accepted_with_quarantine(self):
        records = make_records(40) + make_dirty_records(10, start=40)
        v = validate_batch(records)
        assert v.verdict == ACCEPTED_WITH_QUARANTINE
        assert v.accepted
        assert v.n_accepted == 40 and v.n_quarantined == 10

    def test_majority_dirt_is_poison(self):
        records = make_records(10) + make_dirty_records(40, start=10)
        v = validate_batch(records)
        assert v.verdict == POISON_DIRTY
        assert not v.accepted
        # A rejected batch contributes nothing to the quarantine ledger:
        # its tickets are dead-lettered whole, not double-counted.
        assert v.n_accepted == 0 and v.n_quarantined == 0

    def test_oversized_batch_rejected_unparsed(self):
        v = validate_batch(make_records(20), max_tickets=10)
        assert v.verdict == POISON_OVERSIZED
        assert not v.accepted
        assert "20" in v.reason

    def test_non_list_payload_is_structural(self):
        v = validate_batch({"not": "a list"})
        assert v.verdict == POISON_STRUCTURAL
        assert not v.accepted

    def test_majority_non_dict_rows_is_structural(self):
        records = make_records(5) + ["garbage"] * 15
        v = validate_batch(records)
        assert v.verdict == POISON_STRUCTURAL

    def test_minority_non_dict_rows_quarantined(self):
        records = make_records(20) + ["garbage", 42]
        v = validate_batch(records)
        assert v.verdict == ACCEPTED_WITH_QUARANTINE
        assert v.n_accepted == 20 and v.n_quarantined == 2

    def test_skips_come_in_line_order(self):
        records = [dict(make_records(1)[0], host_id="xx"), 5, *make_records(3, start=1)]
        v = validate_batch(records)
        assert v.verdict == ACCEPTED_WITH_QUARANTINE
        assert [(s.line, s.error_class) for s in v.quarantine.skips] == [
            (1, "bad_number"), (2, "bad_json")
        ]
        assert v.quarantine.skips[1].message == "record is not a JSON object"
        assert v.n_accepted == 3 and v.n_quarantined == 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_time_is_quarantined(self, value):
        records = make_records(3000)
        records[1234] = dict(records[1234], error_time=value)
        v = validate_batch(records)
        assert v.verdict == ACCEPTED_WITH_QUARANTINE
        assert [(s.line, s.error_class, s.message) for s in v.quarantine.skips] == [
            (1235, "bad_timestamp", f"error_time: {value!r} is not a timestamp")
        ]
        assert v.n_accepted == 2999
        assert np.isfinite(v.dataset.error_times).all()

    def test_empty_batch_accepted(self):
        v = validate_batch([])
        assert v.verdict == ACCEPTED
        assert v.n_accepted == 0 and len(v.dataset) == 0


class TestKnobs:
    def test_poison_fraction_knob(self):
        records = make_records(70) + make_dirty_records(30, start=70)
        assert validate_batch(records).accepted
        strict = validate_batch(records, poison_skip_fraction=0.2)
        assert strict.verdict == POISON_DIRTY

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_verdict_vocabulary_is_closed(self, verdict):
        assert (verdict in ACCEPTING_VERDICTS) == verdict.startswith("accepted")

    def test_source_tag_reaches_quarantine(self):
        v = validate_batch(
            make_records(5) + make_dirty_records(1, start=5), source="dc-a#3"
        )
        assert v.quarantine.source == "dc-a#3"
        assert v.quarantine.n_skipped == 1
