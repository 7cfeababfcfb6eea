"""Spatial analyses (Table IV, Figure 8)."""

import numpy as np
import pytest

from repro.analysis import spatial
from repro.analysis.full_report import full_report
from repro.core.dataset import FOTDataset
from repro.core.timeutil import DAY
from repro.fleet.inventory import Inventory
from repro.robustness.quality import Exclusion
from tests.test_ticket import make_ticket


def _plus_server(inventory: Inventory, idc: str, slot: int) -> Inventory:
    """``inventory`` plus one server of ``idc`` at rack slot ``slot``."""
    return Inventory(
        np.append(inventory.host_ids, inventory.host_ids.max() + 1),
        [*inventory.idcs, idc],
        np.append(inventory.positions, slot),
        np.append(inventory.deployed_ats, 0.0),
        [*inventory.product_lines, inventory.product_lines[0]],
        {c: np.append(v, 1) for c, v in inventory.component_counts.items()},
    )


def _servers_where(inventory: Inventory, keep: np.ndarray) -> Inventory:
    """The servers of ``inventory`` where ``keep`` is true."""
    rows = np.flatnonzero(keep)
    return Inventory(
        inventory.host_ids[rows],
        [inventory.idcs[i] for i in rows],
        inventory.positions[rows],
        inventory.deployed_ats[rows],
        [inventory.product_lines[i] for i in rows],
        {c: v[rows] for c, v in inventory.component_counts.items()},
    )


def _in_range_failures(dataset: FOTDataset, idc: str) -> int:
    positions = dataset.failures().of_idc(idc).positions
    return int(((positions >= 0) & (positions <= 100)).sum())


class TestDeduplicateRepeats:
    def test_repeats_collapsed(self):
        tickets = [
            make_ticket(fot_id=i, error_time=float(i * DAY), host_id=1,
                        device_slot=0, error_type="SMARTFail")
            for i in range(5)
        ]
        deduped = spatial.deduplicate_repeats(FOTDataset(tickets))
        assert len(deduped) == 1
        # First occurrence is the one kept.
        assert deduped[0].error_time == 0.0

    def test_distinct_components_kept(self):
        tickets = [
            make_ticket(fot_id=0, host_id=1, device_slot=0),
            make_ticket(fot_id=1, host_id=1, device_slot=1, error_time=2000.0),
            make_ticket(fot_id=2, host_id=2, device_slot=0, error_time=3000.0),
        ]
        assert len(spatial.deduplicate_repeats(FOTDataset(tickets))) == 3


class TestRackPositionProfile:
    def test_profile_shapes(self, small_trace):
        idc = small_trace.dataset.idcs[0]
        profile = spatial.rack_position_profile(
            small_trace.dataset, small_trace.inventory, idc
        )
        assert profile.idc == idc
        assert profile.positions.size == profile.ratio.size
        assert profile.failures.sum() > 0
        # Server-level counting: at most one count per server.
        assert profile.failures.sum() <= profile.servers.sum()

    def test_ratio_nan_only_where_unoccupied(self, small_trace):
        idc = small_trace.dataset.idcs[0]
        profile = spatial.rack_position_profile(
            small_trace.dataset, small_trace.inventory, idc
        )
        occupied = profile.servers > 0
        assert not np.any(np.isnan(profile.ratio[occupied]))

    def test_granularity_failures_counts_more(self, small_trace):
        idc = small_trace.dataset.idcs[0]
        srv = spatial.rack_position_profile(
            small_trace.dataset, small_trace.inventory, idc,
            granularity="servers",
        )
        fail = spatial.rack_position_profile(
            small_trace.dataset, small_trace.inventory, idc,
            granularity="failures",
        )
        assert fail.failures.sum() >= srv.failures.sum()

    def test_bad_granularity(self, small_trace):
        with pytest.raises(ValueError):
            spatial.rack_position_profile(
                small_trace.dataset, small_trace.inventory,
                small_trace.dataset.idcs[0], granularity="racks",
            )
        with pytest.raises(ValueError, match="unknown granularity"):
            spatial.rack_position_tests(
                small_trace.dataset, small_trace.inventory, granularity="racks"
            )

    def test_unknown_idc(self, small_trace):
        with pytest.raises(ValueError):
            spatial.rack_position_profile(
                small_trace.dataset, small_trace.inventory, "dc99"
            )


class TestOutliers:
    def test_hot_slots_detected_in_hotspot_dc(self, small_trace):
        hotspot_dcs = [
            dc for dc in small_trace.fleet.datacenters
            if dc.spatial_profile.kind == "hotspot"
        ]
        if not hotspot_dcs:
            pytest.skip("no hotspot DC at this scale/seed")
        found_any = False
        powered = False
        for dc in hotspot_dcs:
            try:
                profile = spatial.rack_position_profile(
                    small_trace.dataset, small_trace.inventory, dc.name
                )
            except ValueError:
                continue
            if profile.failures.sum() >= 1500:
                powered = True
            outliers = set(profile.outlier_positions(n_sigma=1.5))
            if outliers & {22, 35}:
                found_any = True
        if not found_any and not powered:
            pytest.skip(
                "hotspot DCs too small at test scale for mu+2sigma power "
                "(the full-scale bench_fig8 covers this)"
            )
        # At least one hotspot DC shows its hot slots as anomalies
        # (the paper's DC A observation).
        assert found_any

    def test_outliers_empty_for_flat_profile(self):
        profile = spatial.RackPositionProfile(
            idc="dc00",
            positions=np.arange(10),
            failures=np.full(10, 5.0),
            servers=np.full(10, 50.0),
            ratio=np.full(10, 0.1),
            test=None,  # type: ignore[arg-type]
        )
        assert profile.outlier_positions() == []


class TestTableIV:
    def test_summary_buckets(self, small_trace):
        summary = spatial.rack_position_tests(
            small_trace.dataset, small_trace.inventory, min_failures=60
        )
        buckets = summary.bucket_counts()
        assert sum(buckets.values()) == summary.n_datacenters
        assert summary.n_datacenters >= 3

    def test_rejected_listing_consistent(self, small_trace):
        summary = spatial.rack_position_tests(
            small_trace.dataset, small_trace.inventory, min_failures=60
        )
        rejected = summary.rejected_at(0.05)
        buckets = summary.bucket_counts()
        assert len(rejected) == buckets["p<0.01"] + buckets["0.01<=p<0.05"]

    def test_min_failures_filter(self, small_trace):
        all_dcs = spatial.rack_position_tests(
            small_trace.dataset, small_trace.inventory, min_failures=1
        )
        filtered = spatial.rack_position_tests(
            small_trace.dataset, small_trace.inventory, min_failures=500
        )
        assert filtered.n_datacenters <= all_dcs.n_datacenters

    @pytest.mark.parametrize("slot", [-1, 500])
    def test_out_of_range_inventory_slot_excluded(self, small_trace, slot):
        # Counted, slot -1 makes np.bincount raise and slot 500 widens
        # the denominator; excluded and reported, Table IV is unchanged.
        dataset = small_trace.dataset
        clean = spatial.rack_position_tests(dataset, small_trace.inventory, min_failures=60)
        idc = sorted(clean.results)[0]
        dirty = spatial.rack_position_tests(
            dataset, _plus_server(small_trace.inventory, idc, slot),
            min_failures=60,
        )
        assert {k: r.p_value for k, r in dirty.results.items()} == {
            k: r.p_value for k, r in clean.results.items()
        }
        assert [
            (e.analysis, e.reason, e.n_excluded) for e in dirty.exclusions
        ] == [(
            f"spatial.rack_position_profile[{idc}]",
            "inventory rack position outside [0, 100]",
            1,
        )]

    def test_exclusions_reach_the_report(self, small_trace):
        dataset = small_trace.dataset
        idc = sorted(spatial.rack_position_tests(dataset, small_trace.inventory).results)[0]
        bad = _plus_server(small_trace.inventory, idc, -1)
        servers = int((small_trace.inventory.positions_in(idc) >= 0).sum())
        text = full_report(dataset, inventory=bad).text()
        assert (
            f"excluded by spatial.rack_position_profile[{idc}]: 1 tickets "
            f"(inventory rack position outside [0, 100]); {servers} used"
        ) in text
        assert "excluded by" not in full_report(
            dataset, inventory=small_trace.inventory
        ).text()

    def test_dc_missing_from_inventory_is_reported(self, small_trace):
        dataset, inventory = small_trace.dataset, small_trace.inventory
        clean = spatial.rack_position_tests(dataset, inventory)
        idc = sorted(clean.results)[1]
        keep = np.array([name != idc for name in inventory.idcs])
        dirty = spatial.rack_position_tests(dataset, _servers_where(inventory, keep))
        assert dirty.results == {k: r for k, r in clean.results.items() if k != idc}
        assert list(dirty.exclusions) == [Exclusion(
            f"spatial.rack_position_tests[{idc}]",
            f"no servers in data center {idc!r}",
            _in_range_failures(dataset, idc),
            0,
        )]

    def test_dc_with_failures_at_an_emptied_slot_is_reported(self, small_trace):
        dataset, inventory = small_trace.dataset, small_trace.inventory
        clean = spatial.rack_position_tests(dataset, inventory)
        idc = sorted(clean.results)[-1]
        slot = int(np.bincount(dataset.failures().of_idc(idc).positions).argmax())
        keep = np.array([
            not (name == idc and pos == slot)
            for name, pos in zip(inventory.idcs, inventory.positions)
        ])
        dirty = spatial.rack_position_tests(dataset, _servers_where(inventory, keep))
        assert dirty.results == {k: r for k, r in clean.results.items() if k != idc}
        assert list(dirty.exclusions) == [Exclusion(
            f"spatial.rack_position_tests[{idc}]",
            "failures reported at positions with zero servers",
            _in_range_failures(dataset, idc),
            0,
        )]
