"""Unit tests for hardware generations, servers and racks."""

import numpy as np
import pytest

from repro.config import SpatialProfile
from repro.core.columns import COMPONENT_CODE
from repro.core.types import ComponentClass, FOTCategory
from repro.fleet.component import GENERATIONS, ServerGeneration, generation
from repro.fleet.datacenter import DataCenter
from repro.fleet.fleet import Fleet
from repro.fleet.product_line import ProductLine
from repro.fleet.rack import slot_occupancy_weights, slot_risk_multipliers
from repro.fms.pipeline import FMSPipeline
from repro.simulation.events import EventColumns


class TestGenerations:
    def test_five_generations(self):
        assert len(GENERATIONS) == 5

    def test_lookup(self):
        assert generation("gen3").name == "gen3"
        with pytest.raises(KeyError, match="gen9"):
            generation("gen9")

    def test_counts_present_for_hardware(self):
        for gen in GENERATIONS:
            for cls in ComponentClass.hardware():
                assert gen.count(cls) >= 0
            assert gen.count(ComponentClass.MISC) == 1

    def test_storage_trend(self):
        # Newer generations trade HDDs for SSDs.
        assert GENERATIONS[0].count(ComponentClass.HDD) > GENERATIONS[-1].count(
            ComponentClass.HDD
        )
        assert GENERATIONS[0].count(ComponentClass.SSD) < GENERATIONS[-1].count(
            ComponentClass.SSD
        )

    def test_misc_count_rejected_in_spec(self):
        with pytest.raises(ValueError, match="MISC"):
            ServerGeneration("bad", {ComponentClass.MISC: 1}, "m", "fw")

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ServerGeneration("bad", {ComponentClass.HDD: -1}, "m", "fw")


def _dc(n_slots=40):
    return DataCenter("dc00", 2012, SpatialProfile("uniform"), n_slots=n_slots)


def _fleet(positions=(3, 4), generation_codes=(0, 4), deployed_ats=(-100.0, 500.0)):
    """A two-server fleet built column by column."""
    n = len(positions)
    return Fleet(
        [_dc()],
        [ProductLine("pl000", "online", 0.1, 0.0, 2)],
        host_ids=np.arange(n), idc_codes=np.zeros(n), rack_ids=np.zeros(n),
        positions=positions, pdu_ids=np.zeros(n), line_codes=np.zeros(n),
        generation_codes=generation_codes, deployed_ats=deployed_ats,
    )


class _AgeRecorder:
    """Operator stand-in recording the service age each repair sees."""

    def __init__(self):
        self.ages = []

    def close_fixing(self, component, line, time, age, is_lemon):
        self.ages.append(age)
        return time + 1.0, "op"


def _tickets(fleet, events, warranty_seconds, operators=None):
    pipeline = FMSPipeline(
        fleet, 1e9, np.random.default_rng(0), operators=operators or _AgeRecorder()
    )
    return pipeline.run(events, warranty_seconds=warranty_seconds)


def _events(*row_times):
    """HDD failures at each ``(row, time)``, repeats suppressed."""
    rows, times = zip(*row_times)
    return EventColumns.of(times, rows, COMPONENT_CODE[ComponentClass.HDD], 0, suppress=True)


class TestServer:
    def test_age(self):
        # Server 0 was deployed at -100 s, server 1 only at 500 s.
        operators = _AgeRecorder()
        _tickets(_fleet(), _events((0, 0.0), (1, 200.0)), 1e9, operators)
        assert operators.ages == [100.0, 0.0]

    def test_warranty(self):
        fleet = _fleet()
        ds = _tickets(fleet, _events((1, 600.0), (1, 601.0)), warranty_seconds=100.0)
        assert [t.category for t in ds] == [FOTCategory.FIXING, FOTCategory.ERROR]

    def test_component_count_delegates(self):
        fleet = _fleet(generation_codes=(0, 4))
        np.testing.assert_array_equal(fleet.counts_for(ComponentClass.HDD), [12, 6])
        np.testing.assert_array_equal(fleet.counts_for(ComponentClass.SSD), [0, 4])
        np.testing.assert_array_equal(fleet.counts_for(ComponentClass.MISC), [1, 1])

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            _fleet(positions=(3, -1))
        with pytest.raises(ValueError):
            _fleet(positions=(3, 40))


class TestRack:
    def test_requires_slots(self):
        with pytest.raises(ValueError):
            _dc(n_slots=0)


class TestSlotRisk:
    def test_uniform(self):
        mult = slot_risk_multipliers(SpatialProfile("uniform"), 40)
        np.testing.assert_allclose(mult, 1.0)

    def test_hotspot(self):
        profile = SpatialProfile("hotspot", hot_slots=((22, 2.0), (35, 3.0)))
        mult = slot_risk_multipliers(profile, 40)
        assert mult[22] == 2.0
        assert mult[35] == 3.0
        assert mult[0] == 1.0

    def test_hotspot_out_of_range_ignored(self):
        profile = SpatialProfile("hotspot", hot_slots=((99, 2.0),))
        mult = slot_risk_multipliers(profile, 40)
        np.testing.assert_allclose(mult, 1.0)

    def test_gradient(self):
        profile = SpatialProfile("gradient", gradient_top=3.0)
        mult = slot_risk_multipliers(profile, 40)
        assert mult[0] == 1.0
        assert mult[-1] == 3.0
        assert np.all(np.diff(mult) > 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SpatialProfile("vortex")


class TestOccupancy:
    def test_edges_lighter(self):
        w = slot_occupancy_weights(40, edge_vacancy=0.5)
        assert w[0] == 0.5 and w[1] == 0.5
        assert w[-1] == 0.5 and w[-2] == 0.5
        assert w[20] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            slot_occupancy_weights(40, edge_vacancy=1.5)
