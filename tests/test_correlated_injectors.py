"""Correlated-pair, flapping and synchronous-group injectors."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.timeutil import DAY, PAPER_TRACE_SECONDS
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.simulation import calibration
from repro.simulation.correlated import (
    inject_correlated_pairs,
    inject_flapping_server,
    inject_synchronous_groups,
)
from tests.event_util import records


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(
        FleetConfig(n_datacenters=6, servers_per_dc=400, n_product_lines=20),
        np.random.default_rng(17),
    )


class TestCorrelatedPairs:
    @pytest.fixture(scope="class")
    def pairs(self, fleet):
        rng = np.random.default_rng(17)
        events, injections = inject_correlated_pairs(fleet, PAPER_TRACE_SECONDS, 0.3, rng)
        return records(events), injections

    def test_pairs_share_server_and_day(self, pairs):
        events, records = pairs
        by_tag = {}
        for e in events:
            by_tag.setdefault(e.tag, []).append(e)
        for batch in by_tag.values():
            assert len(batch) == 2
            assert batch[0].server_row == batch[1].server_row
            assert abs(batch[0].time - batch[1].time) < DAY

    def test_scaled_counts(self, pairs, fleet):
        events, records = pairs
        total_paper = sum(calibration.CORRELATED_PAIR_COUNTS.values())
        assert 0.15 * total_paper <= len(records) <= 0.6 * total_paper

    def test_misc_pairs_have_hardware_first(self, pairs):
        events, _ = pairs
        by_tag = {}
        for e in events:
            by_tag.setdefault(e.tag, []).append(e)
        for batch in by_tag.values():
            classes = {e.component for e in batch}
            if ComponentClass.MISC in classes:
                ordered = sorted(batch, key=lambda e: e.time)
                assert ordered[0].component is not ComponentClass.MISC

    def test_pair_classes_match_calibration(self, pairs):
        events, _ = pairs
        by_tag = {}
        for e in events:
            by_tag.setdefault(e.tag, []).append(e)
        allowed = {
            frozenset(pair) for pair in calibration.CORRELATED_PAIR_COUNTS
        }
        for batch in by_tag.values():
            assert frozenset(e.component for e in batch) in allowed


class TestFlappingServer:
    @pytest.fixture(scope="class")
    def flap(self, fleet):
        rng = np.random.default_rng(17)
        events, injection = inject_flapping_server(fleet, PAPER_TRACE_SECONDS, 1.0, rng)
        return records(events), injection

    def test_single_server(self, flap):
        events, record = flap
        assert record is not None
        assert len({e.server_row for e in events}) == 1

    def test_chain_length_matches_calibration(self, flap):
        events, _ = flap
        assert len(events) == calibration.BBU_SERVER_CHAIN

    def test_mixes_raid_and_hdd(self, flap):
        events, _ = flap
        classes = {e.component for e in events}
        assert classes == {ComponentClass.RAID_CARD, ComponentClass.HDD}

    def test_spans_months(self, flap):
        events, _ = flap
        times = np.array([e.time for e in events])
        assert times.max() - times.min() > 100 * DAY

    def test_small_scale_still_produces_extreme_server(self, fleet):
        rng = np.random.default_rng(3)
        events, record = inject_flapping_server(
            fleet, PAPER_TRACE_SECONDS, 0.01, rng
        )
        assert events.times.size >= 30


class TestSynchronousGroups:
    @pytest.fixture(scope="class")
    def sync(self, fleet):
        rng = np.random.default_rng(17)
        events, injections = inject_synchronous_groups(fleet, PAPER_TRACE_SECONDS, 1.0, rng)
        return records(events), injections

    def test_groups_created(self, sync):
        events, records = sync
        assert len(records) == calibration.SYNC_GROUPS

    def test_members_fail_within_jitter(self, sync):
        events, records = sync
        for record in records:
            batch = sorted(
                (e for e in events if e.tag == record.tag),
                key=lambda e: e.time,
            )
            # Group events pair up: same step -> within the jitter.
            by_type_step = {}
            for e in batch:
                by_type_step.setdefault(round(e.time // (DAY / 2)), []).append(e)
            multi = [v for v in by_type_step.values() if len(v) > 1]
            assert multi
            for group in multi:
                times = [e.time for e in group]
                assert max(times) - min(times) <= calibration.SYNC_JITTER_SECONDS

    def test_same_slot_same_type_across_members(self, sync):
        events, records = sync
        record = records[0]
        batch = [e for e in events if e.tag == record.tag]
        steps = {}
        for e in batch:
            steps.setdefault(round(e.time / 60), []).append(e)
        for group in steps.values():
            assert len({(e.forced_type, e.slot) for e in group}) == 1

    def test_members_are_cohort_neighbours(self, fleet, sync):
        _, records = sync
        for record in records:
            rows = list(record.server_rows)
            keys = zip(
                fleet.idc_codes[rows].tolist(),
                fleet.line_codes[rows].tolist(),
                fleet.generation_codes[rows].tolist(),
            )
            assert len(set(keys)) == 1
