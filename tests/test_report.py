"""Report rendering helpers, and the full report over scarce data."""

import numpy as np
import pytest

import repro
from repro.analysis import report
from repro.core.types import FOTCategory


class TestFormatTable:
    def test_alignment_and_content(self):
        text = report.format_table(
            ["name", "value"],
            [("alpha", 1.0), ("beta", 22.5)],
            title="Demo",
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "name" in lines[2]
        assert "alpha" in text and "22.50" in text

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            report.format_table(["a", "b"], [("only-one",)])

    def test_small_floats_use_sig_digits(self):
        text = report.format_table(["v"], [(0.00123,)])
        assert "0.00123" in text


class TestFormatters:
    def test_percent(self):
        assert report.format_percent(0.8184) == "81.84 %"
        assert report.format_percent(0.5, digits=0) == "50 %"

    def test_comparison_table(self):
        text = report.comparison_table(
            [("hdd share", "81.84 %", "80.12 %")], title="Table II"
        )
        assert "paper" in text and "measured" in text
        assert "81.84" in text

    def test_sparkline_length(self):
        line = report.sparkline(np.arange(200), width=60)
        assert len(line) <= 60

    def test_sparkline_peaks(self):
        line = report.sparkline([0.0, 0.0, 1.0, 0.0])
        assert line[2] == "█"

    def test_sparkline_empty_rejected(self):
        with pytest.raises(ValueError):
            report.sparkline([])

    def test_profile_rendering(self):
        text = report.format_profile(
            ["Mon", "Tue"], [0.6, 0.4], title="DOW"
        )
        assert "Mon" in text and "60.00 %" in text
        assert "#" in text

    def test_cdf_series_rendering(self):
        xs = np.array([1.0, 10.0, 100.0])
        ps = np.array([0.2, 0.7, 1.0])
        text = report.format_cdf_series(
            {"data": (xs, ps)}, probes=[5.0, 50.0], unit="min"
        )
        assert "5min" in text
        assert "0.200" in text


def _scarce_views(ds):
    """Views of a trace too small for some report sections."""
    failures = ds.failures()
    return {
        "false_alarms": ds.of_category(FOTCategory.FALSE_ALARM),
        "empty": ds.where(np.zeros(len(ds), dtype=bool)),
        "first_failure": failures[:1],
        "first_2_failures": failures[:2],
        "first_50_failures": failures[:50],
        "d_error_only": ds.of_category(FOTCategory.ERROR),
    }


class TestFullReportOnScarceData:
    """A section the data cannot sustain is recorded as skipped; the
    report itself never aborts."""

    @pytest.mark.parametrize("view, skipped", [
        ("false_alarms", {"table_ii", "mtbf", "fig7", "table_vi", "fig9", "table_iv"}),
        ("empty", {"table_i", "table_ii", "mtbf", "fig7", "table_v", "table_vi",
                   "fig9", "table_iv"}),
        ("first_failure", {"mtbf", "fig3", "table_iv"}),
        ("first_2_failures", {"fig3", "table_iv"}),
        ("first_50_failures", {"fig3", "table_iv"}),
        ("d_error_only", {"fig7", "fig9"}),
    ])
    def test_sections_skipped(self, tiny_trace, view, skipped):
        data = _scarce_views(tiny_trace.dataset)[view]
        full = repro.full_report(data, inventory=tiny_trace.inventory)
        assert {s.name for s in full if s.skipped} == skipped
        assert all(s.body for s in full)
