"""Fleet builder: structural invariants of the assembled fleet."""

import numpy as np
import pytest

from repro.config import FleetConfig
from repro.core.timeutil import YEAR
from repro.core.types import ComponentClass
from repro.fleet.builder import build_fleet
from repro.fleet.component import GENERATIONS
from repro.fleet.fleet import Fleet


@pytest.fixture(scope="module")
def fleet() -> Fleet:
    config = FleetConfig(n_datacenters=8, servers_per_dc=400, n_product_lines=30)
    return build_fleet(config, np.random.default_rng(7))


class TestStructure:
    def test_datacenter_count(self, fleet):
        assert len(fleet.datacenters) == 8

    def test_total_servers_near_target(self, fleet):
        # Lognormal DC sizes, but the grand total should be in range.
        assert 0.5 * 8 * 400 <= len(fleet) <= 2.0 * 8 * 400

    def test_host_ids_unique_and_dense(self, fleet):
        ids = fleet.host_ids
        assert np.unique(ids).size == len(fleet)
        assert ids.min() == 0 and ids.max() == len(fleet) - 1

    def test_every_server_in_known_dc_and_line(self, fleet):
        dc_names = {dc.name for dc in fleet.datacenters}
        assert set(fleet.idcs()) <= dc_names
        assert set(fleet.lines()) <= set(fleet.product_lines)
        assert fleet.idc_codes.min() >= 0
        assert fleet.idc_codes.max() < len(fleet.datacenters)
        assert fleet.line_codes.min() >= 0
        assert fleet.line_codes.max() < len(fleet.line_names)

    def test_positions_within_rack(self, fleet):
        assert fleet.positions.min() >= 0
        assert fleet.positions.max() < 40

    def test_no_two_servers_share_a_slot(self, fleet):
        keys = set(zip(
            fleet.idc_codes.tolist(), fleet.rack_ids.tolist(), fleet.positions.tolist()
        ))
        assert len(keys) == len(fleet)

    def test_hostname_encodes_location(self, fleet):
        hostnames = fleet.hostnames()
        assert len(hostnames) == len(set(hostnames)) == len(fleet)
        for row in [0, len(fleet) // 2, len(fleet) - 1]:
            idc = fleet.datacenters[fleet.idc_codes[row]].name
            assert hostnames[row] == (
                f"{idc}-r{fleet.rack_ids[row]:03d}-s{fleet.positions[row]:02d}"
            )


class TestSpatialProfiles:
    def test_modern_dcs_uniform(self, fleet):
        for dc in fleet.datacenters:
            if dc.is_modern:
                assert dc.spatial_profile.kind == "uniform"

    def test_modern_fraction_respected(self, fleet):
        n_modern = sum(dc.is_modern for dc in fleet.datacenters)
        expected = round(FleetConfig().modern_dc_fraction * 8)
        assert n_modern == expected

    def test_legacy_have_nonuniform_profiles(self, fleet):
        legacy_kinds = {
            dc.spatial_profile.kind
            for dc in fleet.datacenters
            if not dc.is_modern
        }
        assert legacy_kinds <= {"gradient", "hotspot"}
        assert legacy_kinds

    def test_slot_risk_reflects_profiles(self, fleet):
        risk = fleet.slot_risk
        assert risk.min() >= 1.0
        # Some legacy DC must have elevated-risk servers.
        assert risk.max() > 1.5


class TestDeployment:
    def test_deployment_window(self, fleet):
        config = FleetConfig()
        lo = -config.oldest_wave_years * YEAR
        hi = config.newest_wave_years * YEAR + 15 * 86400.0
        deployed = fleet.deployed_ats
        assert deployed.min() >= lo
        assert deployed.max() <= hi

    def test_generation_matches_deploy_era(self, fleet):
        # Earliest deployments must be older generations than latest.
        order = np.argsort(fleet.deployed_ats)
        gens = fleet.generation_codes
        assert gens[order[0]] <= gens[order[-1]]
        assert gens.min() == 0

    def test_rack_deployed_together(self, fleet):
        # All servers of one rack share a wave (within the 14-day jitter)
        # and one PDU.
        by_rack = {}
        for idc, rack, pdu, t in zip(
            fleet.idc_codes.tolist(), fleet.rack_ids.tolist(),
            fleet.pdu_ids.tolist(), fleet.deployed_ats.tolist(),
        ):
            by_rack.setdefault((idc, rack), []).append((pdu, t))
        for servers in by_rack.values():
            times = [t for _, t in servers]
            assert max(times) - min(times) <= 15 * 86400.0
            assert len({pdu for pdu, _ in servers}) == 1


class TestProductLines:
    def test_zipf_sizes(self, fleet):
        sizes = sorted(np.bincount(fleet.line_codes).tolist(), reverse=True)
        # Heavily skewed: biggest line much bigger than median line.
        assert sizes[0] > 5 * max(1, sizes[len(sizes) // 2])

    def test_biggest_lines_are_batch(self, fleet):
        biggest = max(
            fleet.product_lines.values(), key=lambda pl: pl.expected_servers
        )
        assert biggest.workload == "batch"
        assert biggest.fault_tolerance > 0.8

    def test_line_attributes_valid(self, fleet):
        for pl in fleet.product_lines.values():
            assert pl.workload in ("batch", "online", "storage")
            assert 0 <= pl.fault_tolerance <= 1


class TestColumnarViews:
    def test_counts_match_objects(self, fleet):
        hdd = fleet.counts_for(ComponentClass.HDD)
        for i in [0, len(fleet) // 2, len(fleet) - 1]:
            gen = GENERATIONS[fleet.generation_codes[i]]
            assert hdd[i] == gen.count(ComponentClass.HDD)

    def test_idc_codes(self, fleet):
        codes = fleet.idc_codes
        idcs = fleet.idcs()
        for i in [0, len(fleet) - 1]:
            assert fleet.datacenters[codes[i]].name == idcs[i]

    def test_cohorts_partition_fleet(self, fleet):
        cohorts = fleet.cohorts()
        total = sum(rows.size for rows in cohorts.values())
        assert total == len(fleet)

    def test_lookups(self, fleet):
        dc = fleet.datacenters[0]
        assert fleet.datacenter(dc.name) is dc
        with pytest.raises(KeyError):
            fleet.datacenter("nope")
        with pytest.raises(KeyError):
            fleet.product_line("nope")


class TestInventoryExport:
    def test_inventory_matches_fleet(self, fleet):
        inv = fleet.to_inventory()
        assert len(inv) == len(fleet)
        np.testing.assert_array_equal(inv.host_ids, fleet.host_ids)
        np.testing.assert_array_equal(inv.positions, fleet.positions)
        # Paper-style: HDD/SSD/CPU counts reported, others defaulted.
        assert ComponentClass.HDD in inv.component_counts
        assert ComponentClass.MEMORY not in inv.component_counts
        assert np.all(inv.counts_for(ComponentClass.MEMORY) == 1)

    def test_servers_per_position(self, fleet):
        inv = fleet.to_inventory()
        per_pos = inv.servers_per_position()
        assert per_pos.sum() == len(fleet)
        dc = fleet.datacenters[0].name
        assert inv.servers_per_position(dc).sum() == np.sum(fleet.idc_codes == 0)

    def test_unknown_idc_rejected(self, fleet):
        with pytest.raises(ValueError):
            fleet.to_inventory().servers_per_position("dc99")
