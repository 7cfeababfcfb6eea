"""Flash wear-out batch injection (the Section III-C correlated
wear-out observation)."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.timeutil import PAPER_TRACE_SECONDS
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.simulation.batch_events import inject_batch_events
from tests.event_util import records


@pytest.fixture(scope="module")
def injected():
    fleet = build_fleet(
        FleetConfig(n_datacenters=6, servers_per_dc=500, n_product_lines=20),
        np.random.default_rng(41),
    )
    rng = np.random.default_rng(41)
    events, storms = inject_batch_events(fleet, PAPER_TRACE_SECONDS, 0.3, rng)
    return fleet, records(events), storms


class TestFlashWearout:
    def test_flash_storms_injected(self, injected):
        _, _, records = injected
        flash = [r for r in records if r.kind == "flash_wearout"]
        assert flash

    def test_strikes_late_in_the_horizon(self, injected):
        _, _, records = injected
        for record in records:
            if record.kind != "flash_wearout":
                continue
            assert record.start >= 0.45 * PAPER_TRACE_SECONDS - 1

    def test_strikes_old_servers(self, injected):
        fleet, events, records = injected
        tags = {r.tag for r in records if r.kind == "flash_wearout"}
        rows = [e.server_row for e in events if e.tag in tags]
        if not rows:
            pytest.skip("flash storms empty at this seed")
        deployed = fleet.deployed_ats
        median_fleet = float(np.median(deployed))
        median_victims = float(np.median(deployed[rows]))
        assert median_victims <= median_fleet

    def test_forced_type_is_wear_related(self, injected):
        _, events, records = injected
        tags = {r.tag for r in records if r.kind == "flash_wearout"}
        for e in events:
            if e.tag in tags:
                assert e.component is ComponentClass.FLASH_CARD
                assert e.forced_type == "HighMaxBbRate"

    def test_burst_is_tight(self, injected):
        _, events, records = injected
        for record in records:
            if record.kind != "flash_wearout" or record.n_events < 2:
                continue
            times = [e.time for e in events if e.tag == record.tag]
            assert max(times) - min(times) <= 36 * 3600.0 + 1
