"""FMS pipeline: ticket lifecycle, categories, repeats."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.columns import COMPONENT_CODE
from repro.core.timeutil import DAY, YEAR
from repro.core.types import ComponentClass, DetectionSource, FOTCategory
from repro.fleet.builder import build_fleet
from repro.fms.pipeline import FMSPipeline, device_detail
from repro.simulation.events import EventColumns

HDD, RAID_CARD = COMPONENT_CODE[ComponentClass.HDD], COMPONENT_CODE[ComponentClass.RAID_CARD]


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(
        FleetConfig(n_datacenters=4, servers_per_dc=300, n_product_lines=15),
        np.random.default_rng(31),
    )


def run_pipeline(fleet, events, seed=1, horizon=1000 * DAY, lemons=None):
    rng = np.random.default_rng(seed)
    pipeline = FMSPipeline(fleet, horizon, rng, lemon_rows=lemons or set())
    return pipeline, pipeline.run(events, warranty_seconds=3.6 * YEAR)


def young_row(fleet) -> int:
    """A server deployed before t=0 (in warranty for early failures)."""
    return int(np.argmax(fleet.deployed_ats < 0))


class TestTicketCreation:
    def test_basic_fields(self, fleet):
        row = young_row(fleet)
        events = EventColumns.of([5 * DAY + max(0, fleet.deployed_ats[row])], row, HDD, 3)
        _, ds = run_pipeline(fleet, events)
        assert len(ds) == 1
        ticket = ds[0]
        assert ticket.host_id == fleet.host_ids[row]
        assert ticket.hostname == fleet.hostnames()[row]
        assert ticket.host_idc == fleet.idcs()[row]
        assert ticket.error_position == fleet.positions[row]
        assert ticket.product_line == fleet.lines()[row]
        assert ticket.deployed_at == fleet.deployed_ats[row]
        assert ticket.source is DetectionSource.SYSLOG
        assert ticket.error_type  # sampled from the class mix

    def test_forced_type_respected(self, fleet):
        row = young_row(fleet)
        t = 5 * DAY + max(0.0, fleet.deployed_ats[row])
        events = EventColumns.of([t], row, HDD, 0, "SMARTFail", "storm", suppress=True)
        _, ds = run_pipeline(fleet, events)
        assert ds[0].error_type == "SMARTFail"
        assert ds[0].detail["tag"] == "storm"

    def test_beyond_horizon_dropped(self, fleet):
        events = EventColumns.of([2000 * DAY], 0, HDD, 0)
        pipeline, ds = run_pipeline(fleet, events)
        assert len(ds) == 0
        assert pipeline.stats["dropped_beyond_horizon"] == 1

    def test_output_time_ordered(self, fleet, rng):
        rows = np.flatnonzero(fleet.deployed_ats < 0)[:50]
        events = EventColumns.of(
            rng.uniform(0, 900 * DAY, size=rows.size), rows, HDD, 0, suppress=True
        )
        _, ds = run_pipeline(fleet, events)
        times = ds.error_times
        assert np.all(np.diff(times) >= 0)


class TestCategories:
    def test_out_of_warranty_becomes_error(self, fleet):
        # A server deployed long before the epoch, failing late.
        old_row = int(np.argmin(fleet.deployed_ats))
        t = fleet.deployed_ats[old_row] + 3.7 * YEAR
        assert t < 1000 * DAY
        events = EventColumns.of([max(t, 0.0)], old_row, HDD, 0, suppress=True)
        _, ds = run_pipeline(fleet, events)
        ticket = ds[0]
        assert ticket.category is FOTCategory.ERROR
        # D_error tickets carry no operator response (Section II-A).
        assert ticket.op_time is None
        assert ticket.operator_id is None

    def test_in_warranty_becomes_fixing_with_response(self, fleet):
        row = young_row(fleet)
        t = max(fleet.deployed_ats[row], 0.0) + 30 * DAY
        # Run several times: false alarms are possible (1.7 %).
        events = EventColumns.of(t + np.arange(100), row, HDD, 0, suppress=True)
        _, ds = run_pipeline(fleet, events)
        fixing = ds.of_category(FOTCategory.FIXING)
        assert len(fixing) >= 90
        for ticket in fixing:
            assert ticket.op_time is not None
            assert ticket.operator_id is not None

    def test_false_alarm_rate(self, fleet):
        row = young_row(fleet)
        t0 = max(fleet.deployed_ats[row], 0.0) + 10 * DAY
        events = EventColumns.of(t0 + np.arange(6000) * 60.0, row, HDD, 0)
        pipeline, ds = run_pipeline(fleet, events)
        rate = len(ds.of_category(FOTCategory.FALSE_ALARM)) / len(ds)
        assert 0.008 <= rate <= 0.03


class TestRepeats:
    def test_lemon_grows_chain(self, fleet):
        row = young_row(fleet)
        t = max(fleet.deployed_ats[row], 0.0) + 10 * DAY
        events = EventColumns.of([t], row, RAID_CARD, 0)
        pipeline, ds = run_pipeline(fleet, events, lemons={row})
        # A lemon's first repair almost certainly spawns repeats.
        assert pipeline.stats["repeats_scheduled"] >= 1
        assert len(ds) > 1
        repeats = [x for x in ds if x.detail.get("tag") == "repeat"]
        assert repeats
        # Repeats stay on the same component; the type either recurs or
        # escalates from a warning to a fatal type of the same class.
        from repro.core.failure_types import REGISTRY

        first = ds[0]
        for rep in repeats:
            assert rep.device_slot == first.device_slot
            assert rep.error_device is first.error_device
            if rep.error_type != first.error_type:
                assert REGISTRY[rep.error_type].fatal

    def test_suppressed_events_never_repeat(self, fleet):
        row = young_row(fleet)
        t = max(fleet.deployed_ats[row], 0.0) + 10 * DAY
        events = EventColumns.of([t], row, RAID_CARD, 0, suppress=True)
        pipeline, _ = run_pipeline(fleet, events, lemons={row})
        assert pipeline.stats["repeats_scheduled"] == 0

    def test_stats_accounting(self, fleet, rng):
        rows = np.flatnonzero(fleet.deployed_ats < 0)[:100]
        events = EventColumns.of(rng.uniform(0, 500 * DAY, size=rows.size), rows, HDD, 0)
        pipeline, ds = run_pipeline(fleet, events)
        s = pipeline.stats
        assert s["events_in"] == len(ds) + s["dropped_beyond_horizon"]
        assert s["false_alarms"] + s["out_of_warranty"] + s["repairs"] == len(ds)


class TestDeviceDetail:
    @pytest.mark.parametrize(
        "component,slot,expected",
        [
            (ComponentClass.HDD, 0, "sda1"),
            (ComponentClass.HDD, 2, "sdc3"),
            (ComponentClass.FAN, 2, "fan_3"),
            (ComponentClass.POWER, 1, "psu_2"),
            (ComponentClass.RAID_CARD, 0, "raid_ctrl_0"),
            (ComponentClass.MISC, 0, "manual_report"),
        ],
    )
    def test_examples(self, component, slot, expected):
        assert device_detail(component, slot) == expected

    def test_all_classes_have_details(self):
        for cls in ComponentClass:
            assert device_detail(cls, 0)
