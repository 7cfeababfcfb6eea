"""Detection model: sources and temporal profiles."""

import numpy as np
import pytest

from repro.core.timeutil import HOUR
from repro.core.types import ComponentClass, DetectionSource
from repro.fms.detectors import DetectionModel
from repro.simulation import calibration


@pytest.fixture(scope="module")
def model():
    return DetectionModel()


class TestSources:
    def test_misc_is_manual(self, model):
        assert model.source_for(ComponentClass.MISC) is DetectionSource.MANUAL

    def test_log_coupled_classes_use_syslog(self, model):
        for cls in (ComponentClass.HDD, ComponentClass.MEMORY,
                    ComponentClass.SSD, ComponentClass.FLASH_CARD):
            assert model.source_for(cls) is DetectionSource.SYSLOG

    def test_status_classes_use_polling(self, model):
        for cls in (ComponentClass.FAN, ComponentClass.POWER,
                    ComponentClass.MOTHERBOARD, ComponentClass.RAID_CARD):
            assert model.source_for(cls) is DetectionSource.POLLING


class TestHourProfiles:
    def test_profiles_normalized(self, model):
        for cls in ComponentClass:
            weights = model.hour_weights(cls)
            assert weights.shape == (24,)
            assert weights.sum() == pytest.approx(1.0)
            assert np.all(weights > 0)

    def test_workload_coupled_diurnal(self, model):
        weights = model.hour_weights(ComponentClass.HDD)
        # Detection follows workload: midday beats pre-dawn.
        assert weights[11] > 1.5 * weights[5]

    def test_manual_working_hours(self, model):
        weights = model.hour_weights(ComponentClass.MISC)
        assert weights[10] > 5 * weights[3]

    def test_polling_spikes_on_ticks(self, model):
        weights = model.hour_weights(ComponentClass.FAN)
        ticks = np.arange(0, 24, calibration.POLLING_PERIOD_HOURS)
        off = np.setdiff1d(np.arange(24), ticks)
        assert weights[ticks].mean() > 2 * weights[off].mean()

    def test_no_profile_is_uniform(self, model):
        # Figure 4: every plotted class rejects uniformity.
        for cls in ComponentClass:
            weights = model.hour_weights(cls)
            assert weights.max() / weights.min() > 1.1


class TestDowProfiles:
    def test_normalized(self, model):
        for cls in ComponentClass:
            weights = model.dow_weights(cls)
            assert weights.shape == (7,)
            assert weights.sum() == pytest.approx(1.0)

    def test_manual_weekend_dip(self, model):
        weights = model.dow_weights(ComponentClass.MISC)
        assert weights[:5].mean() > 2 * weights[5:].mean()

    def test_automatic_mild_weekend_dip(self, model):
        weights = model.dow_weights(ComponentClass.HDD)
        assert weights[:5].mean() > weights[5:].mean()
        assert weights[:5].mean() < 1.5 * weights[5:].mean()


class TestSampling:
    @pytest.mark.parametrize("cls", list(ComponentClass))
    def test_time_of_day_matches_numpy_choice(self, model, cls):
        """The per-class table draws what ``Generator.choice`` draws and
        leaves the generator where it leaves it."""
        weights = model.hour_weights(cls)
        for seed in range(200):
            for size in (0, 1, 2, 7, 50, 333):
                ours = np.random.default_rng(seed)
                numpys = np.random.default_rng(seed)
                got = model.sample_time_of_day(cls, size, ours)
                hours = numpys.choice(24, size=size, p=weights)
                want = hours * HOUR + numpys.uniform(0.0, HOUR, size=size)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert ours.bit_generator.state == numpys.bit_generator.state

    def test_sample_time_of_day_range(self, model, rng):
        samples = model.sample_time_of_day(ComponentClass.HDD, 5000, rng)
        assert samples.min() >= 0
        assert samples.max() < 86400

    def test_sample_follows_profile(self, model, rng):
        samples = model.sample_time_of_day(ComponentClass.MISC, 20_000, rng)
        hours = (samples // 3600).astype(int)
        counts = np.bincount(hours, minlength=24) / samples.size
        weights = model.hour_weights(ComponentClass.MISC)
        np.testing.assert_allclose(counts, weights, atol=0.012)
