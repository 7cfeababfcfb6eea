"""Base failure process: budgets, shapes and attribution."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.columns import COMPONENT_CODE
from repro.core.timeutil import DAY, MONTH
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.fms.detectors import DetectionModel
from repro.simulation.base_process import draw_frailty, sample_base_failures
from repro.simulation import calibration


@pytest.fixture(scope="module")
def fleet():
    return build_fleet(
        FleetConfig(n_datacenters=4, servers_per_dc=300, n_product_lines=12),
        np.random.default_rng(3),
    )


@pytest.fixture(scope="module")
def events(fleet):
    rng = np.random.default_rng(3)
    frailty = draw_frailty(len(fleet), rng)
    budgets = {ComponentClass.HDD: 4000.0, ComponentClass.MEMORY: 300.0}
    return sample_base_failures(
        fleet, 720 * DAY, budgets, frailty, DetectionModel(), rng
    )


class TestFrailty:
    def test_mean_near_one(self, rng):
        frailty = draw_frailty(200_000, rng)
        assert frailty.mean() == pytest.approx(1.0, abs=0.05)

    def test_clipped(self, rng):
        frailty = draw_frailty(500_000, rng)
        assert frailty.max() <= calibration.FRAILTY_CLIP

    def test_heavy_tailed(self, rng):
        frailty = draw_frailty(100_000, rng)
        assert np.quantile(frailty, 0.99) > 10 * np.median(frailty)


class TestSampling:
    def test_budget_respected(self, fleet, events):
        hdd = int((events.components == COMPONENT_CODE[ComponentClass.HDD]).sum())
        mem = int((events.components == COMPONENT_CODE[ComponentClass.MEMORY]).sum())
        # Poisson + day effects: allow generous tolerance.
        assert 2400 <= hdd <= 6400
        assert 130 <= mem <= 600

    def test_times_within_horizon(self, events):
        times = events.times
        assert times.min() >= 0
        assert times.max() < 720 * DAY

    def test_no_failures_before_deployment(self, fleet, events):
        deployed = fleet.deployed_ats
        assert np.all(events.times >= deployed[events.rows])

    def test_slots_within_component_count(self, fleet, events):
        for cls in COMPONENT_CODE:
            of_class = events.components == COMPONENT_CODE[cls]
            count = fleet.counts_for(cls)[events.rows[of_class]]
            slots = events.slots[of_class]
            assert np.all((0 <= slots) & (slots < count))

    def test_tag_is_base(self, events):
        assert set(events.tags.tolist()) == {"base"}
        assert set(events.forced_types.tolist()) == {None}
        assert set(events.chain_ids.tolist()) == {None}
        assert not events.suppress.any()

    def test_zero_budget_skipped(self, fleet, rng):
        frailty = draw_frailty(len(fleet), rng)
        out = sample_base_failures(
            fleet, 400 * DAY, {ComponentClass.CPU: 0.0}, frailty,
            DetectionModel(), rng,
        )
        assert out.times.size == 0

    def test_frailty_shape_validated(self, fleet, rng):
        with pytest.raises(ValueError, match="frailty"):
            sample_base_failures(
                fleet, 400 * DAY, {ComponentClass.HDD: 10.0},
                np.ones(3), DetectionModel(), rng,
            )

    def test_short_horizon_rejected(self, fleet, rng):
        with pytest.raises(ValueError, match="month"):
            sample_base_failures(
                fleet, 10 * DAY, {ComponentClass.HDD: 10.0},
                draw_frailty(len(fleet), rng), DetectionModel(), rng,
            )


class TestStatisticalShape:
    def test_frail_servers_attract_failures(self, fleet, rng):
        frailty = np.ones(len(fleet))
        # Pick frail servers among those deployed well before the
        # horizon so they actually accrue exposure.
        eligible = np.flatnonzero(fleet.deployed_ats < 0)[:20]
        frailty[eligible] = 30.0
        events = sample_base_failures(
            fleet, 720 * DAY, {ComponentClass.HDD: 3000.0}, frailty,
            DetectionModel(), rng,
        )
        rows = events.rows
        frail_share = float(np.isin(rows, eligible).mean())
        # 20 servers with 30x weight out of ~1200 attract a large share.
        assert frail_share > 0.15

    def test_diurnal_hours_follow_detection_profile(self, events):
        hdd = events.components == COMPONENT_CODE[ComponentClass.HDD]
        hours = ((events.times[hdd] % DAY) // 3600).astype(int)
        night = float(np.isin(hours, [3, 4, 5, 6]).mean())
        day = float(np.isin(hours, [10, 11, 14, 15]).mean())
        # Log-based detection under diurnal workload: nights are quiet.
        assert day > 1.3 * night

    def test_misc_infant_spike(self, fleet, rng):
        frailty = draw_frailty(len(fleet), rng)
        events = sample_base_failures(
            fleet, 720 * DAY, {ComponentClass.MISC: 2000.0}, frailty,
            DetectionModel(), rng,
        )
        ages = (events.times - fleet.deployed_ats[events.rows]) / MONTH
        month0 = float((ages < 1).mean())
        # Month 0 hazard is 12x the steady level: a large share of misc
        # failures land in the deployment month (a steady hazard over a
        # 24-month horizon would put only ~4 % there; realized shares
        # fluctuate in the 0.12-0.19 band across seeds).
        assert month0 > 0.10
