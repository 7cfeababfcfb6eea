"""End-to-end trace generation: integration invariants."""

import hashlib
import json

import numpy as np
import pytest

import repro
from repro.config import ScenarioConfig, paper_scenario
from repro.core.types import ComponentClass, DetectionSource, FOTCategory
from repro.simulation.trace import generate_paper_trace, generate_trace


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_trace(paper_scenario(scale=0.01, seed=99))
        b = generate_trace(paper_scenario(scale=0.01, seed=99))
        assert len(a.dataset) == len(b.dataset)
        np.testing.assert_array_equal(a.dataset.error_times, b.dataset.error_times)
        np.testing.assert_array_equal(a.dataset.host_ids, b.dataset.host_ids)

    def test_different_seed_different_trace(self):
        a = generate_trace(paper_scenario(scale=0.01, seed=99))
        b = generate_trace(paper_scenario(scale=0.01, seed=100))
        assert len(a.dataset) != len(b.dataset) or not np.array_equal(
            a.dataset.error_times, b.dataset.error_times
        )


class TestStructure:
    def test_volume_near_target(self, tiny_trace):
        target = tiny_trace.config.scaled_target_failures
        assert 0.6 * target <= len(tiny_trace.dataset) <= 1.8 * target

    def test_every_host_exists_in_fleet(self, tiny_trace):
        fleet_hosts = set(int(h) for h in tiny_trace.fleet.host_ids)
        assert set(int(h) for h in tiny_trace.dataset.host_ids) <= fleet_hosts

    def test_ticket_ids_unique_and_ordered(self, tiny_trace):
        ids = [t.fot_id for t in tiny_trace.dataset]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)

    def test_times_within_horizon(self, tiny_trace):
        times = tiny_trace.dataset.error_times
        assert times.min() >= 0
        assert times.max() < tiny_trace.horizon_seconds

    def test_metadata_consistent_with_fleet(self, tiny_trace):
        fleet = tiny_trace.fleet
        row_of = {h: i for i, h in enumerate(fleet.host_ids.tolist())}
        hostnames, idcs, lines = fleet.hostnames(), fleet.idcs(), fleet.lines()
        for ticket in list(tiny_trace.dataset)[::50]:
            row = row_of[ticket.host_id]
            assert ticket.hostname == hostnames[row]
            assert ticket.host_idc == idcs[row]
            assert ticket.error_position == fleet.positions[row]
            assert ticket.product_line == lines[row]
            assert ticket.deployed_at == fleet.deployed_ats[row]

    def test_inventory_covers_fleet(self, tiny_trace):
        assert len(tiny_trace.inventory) == len(tiny_trace.fleet)

    def test_storm_and_injection_ground_truth_present(self, small_trace):
        assert small_trace.storms
        kinds = {r.kind for r in small_trace.storms}
        assert "pdu_outage" in kinds
        inj_kinds = {r.kind for r in small_trace.injections}
        assert "bbu_flapping" in inj_kinds
        assert "synchronous_group" in inj_kinds
        assert "correlated_pair" in inj_kinds

    def test_fms_stats_populated(self, tiny_trace):
        stats = tiny_trace.fms_stats
        assert stats["events_in"] >= len(tiny_trace.dataset)
        assert stats["repairs"] > 0


class TestGoldenOutput:
    """What the simulator emits for the two session traces, and the
    report rendered over them, pinned: a reordered draw or a changed
    default anywhere in fleet, simulation or FMS fails here, and so
    does a report that changes by one byte."""

    @pytest.mark.parametrize("fixture, fingerprint, inventory_sha256", [
        (
            "tiny_trace",
            "d64073f92dad26a1599fb2773b69470bf72295e2a3bba71ed8b58c9d37e7107f:all",
            "7f59af1d45d76e3ba4d2e627ab57abb152695b1ca985896c95dbb1622de3c77b",
        ),
        (
            "small_trace",
            "e653d5f23bb88425bd5dfd5869a5ad6599cbc6b35c9a579fee9b2f0dfb9c8885:all",
            "5384115f1d8967a8e84b6afa6149d5f6d37b6a8cc4a4229ef5edea5dcab4a209",
        ),
    ])
    def test_pinned(self, request, tmp_path, fixture, fingerprint, inventory_sha256):
        trace = request.getfixturevalue(fixture)
        assert trace.dataset.fingerprint() == fingerprint
        path = tmp_path / "inventory.csv"
        trace.inventory.save_csv(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == inventory_sha256

    @pytest.mark.parametrize("fixture, storms, injections", [
        (
            "tiny_trace",
            (53, 282, "44c283df6512b3bedef61c5ba0afe2d6fe2627fc587191adce75fc2eaa80b696"),
            (21, 82, "2a9b871e1cdc7c20c6e6ffe723bcd1662cf1a651f93493c998863230b2814ae8"),
        ),
        (
            "small_trace",
            (58, 767, "33e9f44be3b4c72d20cd639032d97613b0fddc4d687578a62b7a7ea53f0e73b6"),
            (34, 108, "04bcb11034aa3777bd0d4e43311d0fe40fdaee34af8f4a6cd611abc3023b9114"),
        ),
    ])
    def test_ground_truth_pinned(self, request, fixture, storms, injections):
        """The injected ground truth, which the fingerprint does not
        cover: (records, events, sha256 of the rows as compact JSON) for
        the storms and for the correlated/repeat injections."""
        trace = request.getfixturevalue(fixture)
        assert ground_truth_digest([
            [r.tag, r.kind, r.component.value, repr(r.start), repr(r.end), r.n_events]
            for r in trace.storms
        ]) == storms
        assert ground_truth_digest([
            [r.tag, r.kind, list(r.server_rows), r.n_events] for r in trace.injections
        ]) == injections


    @pytest.mark.parametrize("fixture, report_sha256", [
        ("tiny_trace", "0375357b34f96c43ae3ab158ad2b81a70bd6752a7f8c29fd62bbac576c47309a"),
        ("small_trace", "5f844ca2cbdd6272a4eab887d85a8d073c9dbe2e074b5619458219ac2cd26bec"),
    ])
    def test_report_pinned(self, request, fixture, report_sha256):
        """The full report with Table IV, every section rendered."""
        trace = request.getfixturevalue(fixture)
        report = repro.full_report(trace.dataset, inventory=trace.inventory)
        assert not [s.name for s in report if s.skipped]
        text = report.text()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == report_sha256, text


def ground_truth_digest(rows):
    """Record count, event count (each row's last cell) and the sha256
    of ``rows`` as compact JSON."""
    text = json.dumps(rows, separators=(",", ":"))
    return len(rows), sum(row[-1] for row in rows), hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def ticket_rows(small_trace):
    """``(tag, fleet row)`` of every ``small_trace`` ticket."""
    fleet = small_trace.fleet
    row_of = {host: row for row, host in enumerate(fleet.host_ids.tolist())}
    tags = np.array([t.detail["tag"] for t in small_trace.dataset])
    rows = np.array([row_of[h] for h in small_trace.dataset.host_ids.tolist()])
    return tags, rows


class TestGroundTruthRows:
    """Injected ground truth reaches the tickets of the servers it names,
    so fleet rows map to ticket columns end to end."""

    def test_injections_land_on_their_rows(self, small_trace, ticket_rows):
        tags, rows = ticket_rows
        assert small_trace.injections
        for record in small_trace.injections:
            hit = rows[tags == record.tag]
            assert hit.size, record.tag
            assert set(hit.tolist()) <= set(record.server_rows), record.tag

    @staticmethod
    def _storm_rows(small_trace, ticket_rows, kinds):
        tags, rows = ticket_rows
        storms = [
            r for r in small_trace.storms if r.kind in kinds and r.n_events
        ]
        assert storms
        for record in storms:
            hit = rows[tags == record.tag]
            assert hit.size, record.tag
            yield record.tag, hit

    def test_pdu_outage_tickets_share_one_pdu(self, small_trace, ticket_rows):
        pdus = small_trace.fleet.pdu_ids
        for tag, hit in self._storm_rows(small_trace, ticket_rows, {"pdu_outage"}):
            assert np.unique(pdus[hit]).size == 1, tag

    def test_smart_storm_tickets_share_one_cohort(self, small_trace, ticket_rows):
        fleet = small_trace.fleet
        kinds = {"smart_storm", "smart_storm_case1"}
        for tag, hit in self._storm_rows(small_trace, ticket_rows, kinds):
            cohorts = zip(
                fleet.idc_codes[hit].tolist(),
                fleet.line_codes[hit].tolist(),
                fleet.generation_codes[hit].tolist(),
            )
            assert len(set(cohorts)) == 1, tag


class TestContent:
    def test_all_categories_present(self, small_dataset):
        cats = {t.category for t in small_dataset}
        assert cats == set(FOTCategory)

    def test_all_major_components_present(self, small_dataset):
        classes = {t.error_device for t in small_dataset}
        assert ComponentClass.HDD in classes
        assert ComponentClass.MISC in classes
        assert ComponentClass.MEMORY in classes

    def test_sources_match_component(self, small_dataset):
        for ticket in list(small_dataset)[::101]:
            if ticket.error_device is ComponentClass.MISC:
                assert ticket.source is DetectionSource.MANUAL
            else:
                assert ticket.source.is_automatic

    def test_error_types_belong_to_class(self, small_dataset):
        from repro.core.failure_types import REGISTRY
        for ticket in list(small_dataset)[::101]:
            entry = REGISTRY[ticket.error_type]
            assert entry.component is ticket.error_device

    def test_error_tickets_have_no_response(self, small_dataset):
        errors = small_dataset.of_category(FOTCategory.ERROR)
        assert all(t.op_time is None for t in errors)

    def test_closed_tickets_have_response(self, small_dataset):
        fixing = small_dataset.of_category(FOTCategory.FIXING)
        assert all(t.op_time is not None for t in fixing)
        assert all(t.op_time >= t.error_time for t in fixing)


class TestScaling:
    def test_scaled_fleet_shrinks(self):
        cfg = paper_scenario(scale=0.05)
        fleet = cfg.scaled_fleet()
        assert fleet.servers_per_dc < cfg.fleet.servers_per_dc

    def test_tiny_scale_keeps_minimum_dcs(self):
        cfg = paper_scenario(scale=0.01)
        assert cfg.scaled_fleet().n_datacenters >= 6

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(scale=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(scale=1.5)

    def test_generate_paper_trace_wrapper(self):
        trace = generate_paper_trace(scale=0.01, seed=5)
        assert len(trace.dataset) > 500


class TestMonitoringRollout:
    """The Section VII-C limitation: FMS coverage ramps over time."""

    def _trace(self, rollout_years, seed=4242):
        from dataclasses import replace
        cfg = paper_scenario(scale=0.02, seed=seed)
        return generate_trace(
            replace(cfg, monitoring_rollout_years=rollout_years,
                    monitoring_initial_coverage=0.3)
        )

    def test_rollout_loses_early_automatic_tickets(self):
        full = self._trace(0.0)
        ramped = self._trace(2.0)
        assert len(ramped.dataset) < len(full.dataset)

    def test_loss_concentrates_early(self):
        from repro.core.timeutil import YEAR
        full = self._trace(0.0)
        ramped = self._trace(2.0)

        def year_counts(trace):
            times = trace.dataset.error_times
            return (
                int((times < YEAR).sum()),
                int((times >= 2.5 * YEAR).sum()),
            )

        full_early, full_late = year_counts(full)
        ramp_early, ramp_late = year_counts(ramped)
        early_keep = ramp_early / max(full_early, 1)
        late_keep = ramp_late / max(full_late, 1)
        assert early_keep < late_keep

    def test_manual_reports_survive(self):
        from repro.core.timeutil import YEAR
        ramped = self._trace(3.0)
        early = ramped.dataset.between(0.0, 0.5 * YEAR)
        misc = [t for t in early
                if t.error_device is ComponentClass.MISC]
        # Humans file tickets regardless of agent coverage.
        assert misc

    def test_config_validation(self):
        import dataclasses
        with pytest.raises(ValueError):
            dataclasses.replace(paper_scenario(), monitoring_rollout_years=-1.0)
        with pytest.raises(ValueError):
            dataclasses.replace(
                paper_scenario(), monitoring_initial_coverage=1.5
            )
