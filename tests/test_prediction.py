"""Failure prediction (the Section VII-A early-warning tool)."""

from collections import defaultdict
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import prediction
from repro.analysis.prediction import Warning_, warning_types
from repro.core.dataset import FOTDataset
from repro.core.failure_types import REGISTRY
from repro.core.timeutil import DAY
from repro.core.types import ComponentClass, FOTCategory
from tests.test_ticket import make_ticket


def warning_then_fatal(host=1, warn_at=10 * DAY, fatal_at=15 * DAY):
    return [
        make_ticket(fot_id=host * 10, host_id=host, error_time=warn_at,
                    error_type="SMARTFail"),
        make_ticket(fot_id=host * 10 + 1, host_id=host, error_time=fatal_at,
                    error_type="NotReady"),
    ]


class TestTypeSets:
    def test_disjoint_and_nonempty(self):
        warn = prediction.warning_types()
        fatal = prediction.fatal_types()
        assert warn and fatal
        assert not warn & fatal
        assert "SMARTFail" in warn
        assert "NotReady" in fatal


class TestIssueWarnings:
    def test_warning_ticket_triggers(self):
        ds = FOTDataset(warning_then_fatal())
        warnings = prediction.issue_warnings(ds)
        assert len(warnings) == 1
        assert warnings[0].host_id == 1
        assert warnings[0].component == "hdd"

    def test_fatal_tickets_do_not_trigger(self):
        ds = FOTDataset([
            make_ticket(fot_id=0, error_type="NotReady", error_time=5 * DAY)
        ])
        assert prediction.issue_warnings(ds) == []

    def test_min_warnings_threshold(self):
        tickets = [
            make_ticket(fot_id=i, host_id=1, error_type="SMARTFail",
                        error_time=i * DAY)
            for i in range(3)
        ]
        ds = FOTDataset(tickets)
        assert len(prediction.issue_warnings(ds, min_warnings=3)) == 1
        assert len(prediction.issue_warnings(ds, min_warnings=4)) == 0

    def test_dedup_window(self):
        tickets = [
            make_ticket(fot_id=i, host_id=1, error_type="SMARTFail",
                        error_time=i * DAY)
            for i in range(10)
        ]
        warnings = prediction.issue_warnings(
            FOTDataset(tickets), dedup_days=5.0
        )
        # Warnings at days 0 and 5 (day 1-4 suppressed), then 10 > range.
        assert len(warnings) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            prediction.issue_warnings(FOTDataset([make_ticket()]), min_warnings=0)


# ---------------------------------------------------------------------------
# reference: the ticket-walking issue_warnings, verbatim
# ---------------------------------------------------------------------------
def reference_issue_warnings(
    dataset: FOTDataset,
    *,
    min_warnings: int = 1,
    dedup_days: float = 14.0,
) -> List[Warning_]:
    if min_warnings < 1:
        raise ValueError("min_warnings must be >= 1")
    warn_set = warning_types()
    counts: Dict[Tuple[int, str], int] = defaultdict(int)
    last_issued: Dict[Tuple[int, str], float] = {}
    out: List[Warning_] = []
    for ticket in dataset.failures().sorted_by_time():
        if ticket.error_type not in warn_set:
            continue
        key = (ticket.host_id, ticket.error_device.value)
        counts[key] += 1
        if counts[key] < min_warnings:
            continue
        prev = last_issued.get(key)
        if prev is not None and ticket.error_time - prev < dedup_days * DAY:
            continue
        last_issued[key] = ticket.error_time
        out.append(
            Warning_(
                host_id=ticket.host_id,
                component=ticket.error_device.value,
                issued_at=ticket.error_time,
                trigger_fot_id=ticket.fot_id,
            )
        )
    return out


#: (class, type) pairs of three classes, warning and fatal types both.
_TYPED = [
    (entry.component, name) for name, entry in sorted(REGISTRY.items())
    if entry.component in (ComponentClass.HDD, ComponentClass.MEMORY,
                           ComponentClass.FAN)
]


@st.composite
def _tickets(draw):
    """Few hosts and classes on a whole-day grid, so times tie, keys
    repeat and gaps of exactly ``dedup_days`` days occur."""
    n = draw(st.integers(0, 40))
    tickets = []
    for fot_id in range(n):
        component, error_type = draw(st.sampled_from(_TYPED))
        day = draw(st.integers(0, 64))
        offset = draw(st.sampled_from([0.0, 0.0, 0.5, 3600.0]))
        tickets.append(make_ticket(
            fot_id=fot_id,
            host_id=draw(st.integers(1, 3)),
            error_device=component,
            error_type=error_type,
            error_time=day * DAY + offset,
            category=draw(st.sampled_from(list(FOTCategory))),
        ))
    return tickets


class TestIssueWarningsOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        tickets=_tickets(),
        min_warnings=st.integers(1, 3),
        dedup_days=st.sampled_from([0.0, 14.0, 30.0]),
    )
    def test_matches_ticket_walk(self, tickets, min_warnings, dedup_days):
        ds = FOTDataset(tickets)
        got = prediction.issue_warnings(
            ds, min_warnings=min_warnings, dedup_days=dedup_days
        )
        want = reference_issue_warnings(
            ds, min_warnings=min_warnings, dedup_days=dedup_days
        )
        assert got == want
        assert [tuple(map(type, (w.host_id, w.component, w.issued_at,
                                 w.trigger_fot_id))) for w in got] \
            == [(int, str, float, int)] * len(got)


class TestEvaluate:
    def test_hit_counted(self):
        ds = FOTDataset(warning_then_fatal())
        warnings = prediction.issue_warnings(ds)
        report = prediction.evaluate(ds, warnings, horizon_days=30)
        assert report.n_warnings == 1
        assert report.n_hits == 1
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.mean_lead_days == pytest.approx(5.0)

    def test_miss_when_fatal_outside_horizon(self):
        ds = FOTDataset(warning_then_fatal(fatal_at=100 * DAY))
        warnings = prediction.issue_warnings(ds)
        report = prediction.evaluate(ds, warnings, horizon_days=30)
        assert report.n_hits == 0
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_no_lookahead(self):
        # A fatal failure *before* the warning must not count as a hit.
        tickets = [
            make_ticket(fot_id=0, host_id=1, error_type="NotReady",
                        error_time=5 * DAY),
            make_ticket(fot_id=1, host_id=1, error_type="SMARTFail",
                        error_time=10 * DAY),
        ]
        ds = FOTDataset(tickets)
        report = prediction.evaluate(ds, prediction.issue_warnings(ds))
        assert report.n_hits == 0

    def test_cross_component_not_matched(self):
        tickets = [
            make_ticket(fot_id=0, host_id=1, error_type="SMARTFail",
                        error_time=5 * DAY),
            make_ticket(fot_id=1, host_id=1, error_type="DIMMUE",
                        error_time=8 * DAY,
                        error_device=__import__("repro.core.types", fromlist=["ComponentClass"]).ComponentClass.MEMORY),
        ]
        ds = FOTDataset(tickets)
        report = prediction.evaluate(ds, prediction.issue_warnings(ds))
        assert report.n_hits == 0

    def test_validation(self):
        ds = FOTDataset(warning_then_fatal())
        with pytest.raises(ValueError):
            prediction.evaluate(ds, [], horizon_days=0)
        report = prediction.evaluate(ds, [], horizon_days=10)
        with pytest.raises(ValueError):
            _ = report.precision


class TestOnTrace:
    def test_predictor_beats_chance(self, small_dataset):
        # Escalating repeat chains put real signal in the warnings: the
        # predictor's precision must beat the base rate of "a fatal
        # same-class failure happens on a random warned host anyway".
        report = prediction.predict_and_evaluate(
            small_dataset, min_warnings=2, horizon_days=30
        )
        assert report.n_warnings > 50
        assert report.precision > 0.03
        assert report.mean_lead_days > 1.0

    def test_stricter_trigger_raises_precision(self, small_dataset):
        loose = prediction.predict_and_evaluate(small_dataset, min_warnings=1)
        strict = prediction.predict_and_evaluate(small_dataset, min_warnings=3)
        assert strict.n_warnings < loose.n_warnings
        assert strict.precision >= loose.precision
