"""Inventory table: exposure math and CSV round-trip."""

import re
import warnings

import numpy as np
import pytest

from repro.core.timeutil import MONTH
from repro.core.types import ComponentClass
from repro.fleet.inventory import Inventory


def simple_inventory() -> Inventory:
    return Inventory(
        host_ids=[0, 1, 2],
        idcs=["dc00", "dc00", "dc01"],
        positions=[3, 5, 3],
        deployed_ats=[0.0, -12 * MONTH, 6 * MONTH],
        product_lines=["a", "a", "b"],
        component_counts={ComponentClass.HDD: [12, 12, 6]},
    )


class TestConstruction:
    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="idcs"):
            Inventory([0, 1], ["dc00"], [0, 1], [0.0, 0.0], ["a", "a"])

    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError, match="component counts"):
            Inventory(
                [0], ["dc00"], [0], [0.0], ["a"],
                {ComponentClass.HDD: [1, 2]},
            )

    def test_host_index(self):
        inv = simple_inventory()
        assert inv.host_index[1] == 1


class TestCountsFor:
    def test_reported_class(self):
        inv = simple_inventory()
        np.testing.assert_array_equal(
            inv.counts_for(ComponentClass.HDD), [12, 12, 6]
        )

    def test_unreported_class_defaults_to_one(self):
        # The paper: "for other components, we assume that the component
        # count per server is similar, and use the number of servers".
        inv = simple_inventory()
        np.testing.assert_array_equal(
            inv.counts_for(ComponentClass.MOTHERBOARD), [1, 1, 1]
        )


class TestExposure:
    def test_month_zero_exposure(self):
        inv = simple_inventory()
        window = (0.0, 24 * MONTH)
        exposure = inv.component_month_exposure(
            ComponentClass.HDD, 3, *window
        )
        # Server 0: month 0 inside window (12 HDDs).  Server 1: its
        # month 0 was a year before the window.  Server 2: month 0
        # starts at +6 months, inside (6 HDDs).
        assert exposure[0] == pytest.approx(18.0)

    def test_partial_overlap_is_fractional(self):
        inv = Inventory([0], ["dc00"], [0], [-0.5 * MONTH], ["a"],
                        {ComponentClass.HDD: [10]})
        exposure = inv.component_month_exposure(
            ComponentClass.HDD, 2, 0.0, 24 * MONTH
        )
        # Month 0 of service (from -0.5 to +0.5 months) half-overlaps.
        assert exposure[0] == pytest.approx(5.0)
        assert exposure[1] == pytest.approx(10.0)

    def test_window_validation(self):
        inv = simple_inventory()
        with pytest.raises(ValueError):
            inv.component_month_exposure(ComponentClass.HDD, 3, 10.0, 5.0)

    def test_total_exposure_bounded_by_window(self):
        inv = simple_inventory()
        months = 60
        window = (0.0, 12 * MONTH)
        exposure = inv.component_month_exposure(
            ComponentClass.HDD, months, *window
        )
        # Total component-months cannot exceed components * window-months.
        assert exposure.sum() <= 30 * 12 + 1e-9


class TestCSV:
    def test_round_trip(self, tmp_path):
        inv = Inventory(
            host_ids=[0, 1, 2, -(2**63), 2**63 - 1, 5, 6, 7],
            idcs=["dc00", "dc00", "dc01", "a,b", 'q"uote', "a#b", "new\nline", "é漢"],
            positions=[3, 5, 3, 0, 2**31 - 1, -(2**31), 1, 2],
            deployed_ats=[
                0.0, -12 * MONTH, -0.0, float("nan"), float("inf"),
                float("-inf"), 5e-324, 1 / 3,
            ],
            product_lines=["a", "a\r\nb", "", " sp ", "#", ",", '"', "ü"],
            component_counts={
                ComponentClass.HDD: [12, 12, 6, 0, 2**31 - 1, -(2**31), 1, 1],
                ComponentClass.CPU: [2] * 8,
            },
        )
        path = tmp_path / "inventory.csv"
        inv.save_csv(path)
        loaded = Inventory.load_csv(path)
        assert len(loaded) == 8
        for name in ("host_ids", "positions", "deployed_ats"):
            want, got = getattr(inv, name), getattr(loaded, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name  # bit-exact
        assert loaded.idcs == inv.idcs
        assert loaded.product_lines == inv.product_lines
        assert list(loaded.component_counts) == [ComponentClass.CPU, ComponentClass.HDD]
        for cls, want in inv.component_counts.items():
            assert loaded.component_counts[cls].dtype == want.dtype
            np.testing.assert_array_equal(loaded.component_counts[cls], want)

    @pytest.mark.parametrize(
        "row",
        [
            "0,dc00,3,0.0,pl",  # missing the n_hdd field
            "0,dc00,2147483648,0.0,pl,1",  # position beyond int32
            "0,dc00,x,0.0,pl,1",  # non-numeric position
            "1_0,dc00,3,0.0,pl,1",  # Python's int() takes it; save_csv never writes it
        ],
    )
    def test_malformed_row_names_the_file(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"host_id,idc,position,deployed_at,product_line,n_hdd\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            Inventory.load_csv(path)

    def test_empty_body_and_blank_lines_load_silently(self, tmp_path):
        path = tmp_path / "inventory.csv"
        header = "host_id,idc,position,deployed_at,product_line\r\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path.write_text(header, newline="")
            assert len(Inventory.load_csv(path)) == 0
            path.write_text(header + "\r\n0,dc00,3,1.5,a\r\n\r\n1,dc01,4,2.5,b\r\n", newline="")
            loaded = Inventory.load_csv(path)
        assert loaded.idcs == ["dc00", "dc01"]
        np.testing.assert_array_equal(loaded.positions, [3, 4])

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("host_id,idc\n0,dc00\n")
        with pytest.raises(ValueError, match="missing columns"):
            Inventory.load_csv(path)

    def test_idc_names(self):
        assert simple_inventory().idc_names() == ["dc00", "dc01"]


class TestServersPerPosition:
    def test_per_dc_counts(self):
        inv = simple_inventory()
        np.testing.assert_array_equal(inv.servers_per_position("dc00"), [0, 0, 0, 1, 0, 1])
        np.testing.assert_array_equal(inv.servers_per_position("dc01"), [0, 0, 0, 1])
        np.testing.assert_array_equal(inv.positions_in("dc00"), [3, 5])

    def test_dc_codes_built_on_first_lookup(self):
        # simulate builds an Inventory per trace and never asks for
        # per-DC counts, so construction must not intern the DC names.
        inv = simple_inventory()
        assert inv._idc_codes is None
        inv.servers_per_position()
        assert inv._idc_codes is None
        inv.servers_per_position("dc01")
        assert inv._idc_codes is not None
