"""Batch-failure injectors (Section V-A cases)."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.timeutil import DAY, HOUR, PAPER_TRACE_SECONDS
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.fleet.component import GENERATIONS
from repro.simulation.batch_events import (
    inject_batch_events,
    storm_prone_cohorts,
)
from tests.event_util import records


def cohort_keys(fleet, rows):
    """The distinct (DC, line, generation) codes of the servers at ``rows``."""
    rows = np.asarray(rows)
    return set(zip(
        fleet.idc_codes[rows].tolist(),
        fleet.line_codes[rows].tolist(),
        fleet.generation_codes[rows].tolist(),
    ))


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(
        FleetConfig(n_datacenters=6, servers_per_dc=500, n_product_lines=20),
        np.random.default_rng(9),
    )


@pytest.fixture(scope="module")
def injected(fleet):
    """The storms' events, one record each, and their ground truth."""
    rng = np.random.default_rng(9)
    events, storms = inject_batch_events(fleet, PAPER_TRACE_SECONDS, 0.3, rng)
    return records(events), storms


class TestStormProneCohorts:
    def test_cohorts_exist_and_are_homogeneous(self, fleet):
        cohorts = storm_prone_cohorts(fleet)
        assert cohorts
        for rows in cohorts:
            assert len(cohort_keys(fleet, rows)) == 1

    def test_sorted_by_preference(self, fleet):
        def batch_and_heavy(rows):
            lines = [fleet.product_lines[fleet.line_names[c]] for c in fleet.line_codes[rows]]
            gens = [GENERATIONS[g] for g in fleet.generation_codes[rows]]
            return [pl.is_batch and gen.storage_heavy for pl, gen in zip(lines, gens)]

        cohorts = storm_prone_cohorts(fleet)
        # The top cohort should be a batch line with storage-heavy
        # hardware whenever the fleet has one.
        if any(batch_and_heavy(np.arange(len(fleet)))):
            assert all(batch_and_heavy(cohorts[0]))


class TestInjection:
    def test_every_kind_injected(self, injected):
        _, records = injected
        kinds = {r.kind for r in records}
        assert {"smart_storm", "smart_storm_case1", "sas_batch",
                "pdu_outage", "misoperation"} <= kinds

    def test_events_tagged_and_match_records(self, injected):
        events, records = injected
        by_tag = {}
        for e in events:
            by_tag.setdefault(e.tag, []).append(e)
        for record in records:
            if record.n_events == 0:
                continue
            batch = by_tag[record.tag]
            assert len(batch) == record.n_events
            for e in batch:
                assert record.start <= e.time <= record.end + 1.0

    def test_smart_storms_are_hdd_smartfail(self, injected):
        events, _ = injected
        storms = [e for e in events if e.tag.startswith("smart_storm")]
        assert storms
        assert all(e.component is ComponentClass.HDD for e in storms)
        assert all(e.forced_type == "SMARTFail" for e in storms)

    def test_storm_within_one_cohort(self, fleet, injected):
        events, records = injected
        record = next(r for r in records if r.kind == "smart_storm_case1")
        rows = [e.server_row for e in events if e.tag == record.tag]
        assert len(cohort_keys(fleet, rows)) == 1

    def test_case1_window_is_evening(self, injected):
        _, records = injected
        record = next(r for r in records if r.kind == "smart_storm_case1")
        assert (record.start % DAY) == 21 * HOUR
        assert record.end - record.start == 6 * HOUR

    def test_pdu_outage_hits_one_pdu(self, fleet, injected):
        events, records = injected
        record = next(r for r in records if r.kind == "pdu_outage")
        rows = [e.server_row for e in events if e.tag == record.tag]
        pdus = set(fleet.pdu_ids[rows].tolist())
        assert len(pdus) == 1
        assert all(
            e.forced_type == "PSUInputLost"
            for e in events if e.tag == record.tag
        )

    def test_no_repeats_from_storms(self, injected):
        events, _ = injected
        assert all(e.suppress_repeat for e in events)

    def test_storm_slots_unique_per_storm(self, injected):
        events, records = injected
        record = next(r for r in records if r.kind == "smart_storm_case1")
        batch = [(e.server_row, e.slot) for e in events if e.tag == record.tag]
        assert len(batch) == len(set(batch))

    def test_sizes_scale(self, fleet):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        events_small, _ = inject_batch_events(fleet, PAPER_TRACE_SECONDS, 0.05, rng_a)
        events_big, _ = inject_batch_events(fleet, PAPER_TRACE_SECONDS, 0.5, rng_b)
        assert events_big.times.size > 2 * events_small.times.size
