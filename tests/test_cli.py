"""CLI integration tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.scale == 0.05
        assert args.out == "trace.jsonl"


class TestGenerateAnalyze:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cli")
        trace = out_dir / "trace.jsonl"
        inventory = out_dir / "inventory.csv"
        code = main([
            "simulate", "--scale", "0.01", "--seed", "7",
            "--out", str(trace), "--inventory", str(inventory),
        ])
        assert code == 0
        return trace, inventory

    def test_generate_writes_files(self, generated):
        trace, inventory = generated
        assert trace.exists() and trace.stat().st_size > 0
        assert inventory.exists() and inventory.stat().st_size > 0

    def test_report(self, generated, capsys):
        trace, _ = generated
        assert main(["report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "MTBF" in out

    def test_analyze_with_inventory(self, generated, capsys):
        trace, inventory = generated
        assert main(["analyze", str(trace), "--inventory", str(inventory)]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "Table IV" in out
        assert "RT (D_fixing)" in out

    def test_analyze_without_inventory(self, generated, capsys):
        trace, _ = generated
        assert main(["analyze", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "Table IV" not in out  # spatial needs the inventory

    def test_mine(self, generated, capsys):
        trace, _ = generated
        assert main(["mine", str(trace), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "incidents" in out
        assert "kind" in out

    def test_predict(self, generated, capsys):
        trace, _ = generated
        assert main(["predict", str(trace), "--horizon", "30"]) == 0
        out = capsys.readouterr().out
        assert "precision" in out
        assert "mean lead" in out

    def test_compare_self(self, generated, capsys):
        trace, _ = generated
        assert main(["compare", str(trace), str(trace)]) == 0
        out = capsys.readouterr().out
        assert "compatible" in out
        assert "share:d_fixing" in out


class TestSelfcheck:
    def test_selfcheck_passes_on_calibrated_generator(self, capsys):
        code = main(["selfcheck", "--scale", "0.05", "--seed", "20170626"])
        out = capsys.readouterr().out
        assert "targets within tolerance" in out
        assert code == 0, out
