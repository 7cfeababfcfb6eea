"""Deterministic corruption harness tests."""

import json

import pytest

from repro.core import io as core_io
from repro.robustness.chaos import (
    CORRUPTION_KINDS,
    ChaosManifest,
    CorruptionSpec,
    corrupt_dataset,
    corrupt_records,
    default_specs,
)

SEED = 20170626


@pytest.fixture(scope="module")
def records(tiny_dataset):
    return list(core_io.iter_records(tiny_dataset[:400], include_detail=False))


class TestCorruptionSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption kind"):
            CorruptionSpec("bit_rot")

    @pytest.mark.parametrize("intensity", [-0.1, 1.5])
    def test_intensity_bounds(self, intensity):
        with pytest.raises(ValueError, match="intensity"):
            CorruptionSpec("duplicates", intensity)

    def test_parse(self):
        spec = CorruptionSpec.parse("clock_skew:0.25")
        assert spec.kind == "clock_skew" and spec.intensity == 0.25
        assert CorruptionSpec.parse("duplicates").intensity == 0.05

    def test_default_specs_cover_all_kinds(self):
        assert tuple(s.kind for s in default_specs(0.1)) == CORRUPTION_KINDS


class TestDeterminism:
    def test_same_seed_same_output(self, records):
        out_a, man_a = corrupt_records(records, default_specs(0.1), seed=SEED)
        out_b, man_b = corrupt_records(records, default_specs(0.1), seed=SEED)
        assert out_a == out_b
        assert man_a.to_json() == man_b.to_json()

    def test_different_seed_differs(self, records):
        out_a, _ = corrupt_records(records, default_specs(0.1), seed=SEED)
        out_b, _ = corrupt_records(records, default_specs(0.1), seed=SEED + 1)
        assert out_a != out_b

    def test_input_records_not_mutated(self, records):
        snapshot = json.dumps(records, sort_keys=True)
        corrupt_records(records, default_specs(0.2), seed=SEED)
        assert json.dumps(records, sort_keys=True) == snapshot


class TestCorruptors:
    def _one(self, records, kind, intensity=0.1):
        return corrupt_records(records, [CorruptionSpec(kind, intensity)], seed=SEED)

    def test_duplicates_grow_output(self, records):
        out, manifest = self._one(records, "duplicates")
        assert len(out) > len(records)
        assert manifest.n_output == len(out)
        ids = [r["fot_id"] for r in out]
        assert len(set(ids)) == len(ids)  # fresh fot_ids, same underlying event

    def test_clock_skew_shifts_whole_idcs(self, records):
        out, manifest = self._one(records, "clock_skew", 0.5)
        (injection,) = manifest.injections
        offsets = injection["offsets"]
        assert offsets  # at least one DC skewed
        by_key = {(r["fot_id"]): r for r in records}
        for rec in out:
            offset = offsets.get(rec["host_idc"], 0.0)
            original = by_key[rec["fot_id"]]
            expected = max(0.0, float(original["error_time"]) + offset)
            assert float(rec["error_time"]) == pytest.approx(expected)

    def test_drop_op_time_blanks_closed_rows(self, records):
        out, manifest = self._one(records, "drop_op_time", 0.3)
        (injection,) = manifest.injections
        dropped = sum(
            1
            for before, after in zip(records, out)
            if before.get("op_time") not in (None, "") and after.get("op_time") in (None, "")
        )
        assert dropped == injection["n_affected"] > 0

    def test_truncate_fields_blanks_required_values(self, records):
        out, manifest = self._one(records, "truncate_fields", 0.2)
        (injection,) = manifest.injections
        blanked = sum(
            1
            for before, after in zip(records, out)
            if any(after.get(k) in ("", None) and before.get(k) not in ("", None) for k in after)
        )
        assert blanked == injection["n_affected"] > 0

    def test_bad_positions_out_of_range(self, records):
        out, _ = self._one(records, "bad_positions", 0.2)
        bad = [r for r in out if not 0 <= int(r["error_position"]) <= 100]
        assert bad

    def test_mislabel_category_keeps_valid_labels(self, records):
        out, manifest = self._one(records, "mislabel_category", 0.2)
        (injection,) = manifest.injections
        changed = sum(
            1 for before, after in zip(records, out) if before["category"] != after["category"]
        )
        assert changed == injection["n_affected"] > 0
        assert all(r["category"].startswith("d_") for r in out)

    def test_zero_intensity_is_noop(self, records):
        for kind in CORRUPTION_KINDS:
            out, manifest = self._one(records, kind, 0.0)
            assert out == records, kind
            assert manifest.n_output == len(records)


class TestManifest:
    def test_manifest_is_machine_readable(self, records):
        out, manifest = corrupt_records(records, default_specs(0.1), seed=SEED)
        payload = json.loads(manifest.to_json())
        assert payload["seed"] == SEED
        assert payload["n_input"] == len(records)
        assert payload["n_output"] == len(out)
        assert [i["kind"] for i in payload["injections"]] == list(CORRUPTION_KINDS)

    def test_kinds_helper(self):
        manifest = ChaosManifest(
            seed=1, n_input=2, n_output=2,
            injections=[{"kind": "duplicates"}, {"kind": "clock_skew"}],
        )
        assert manifest.kinds() == ["duplicates", "clock_skew"]


class TestCorruptDataset:
    def test_round_trips_through_quarantine(self, tiny_dataset):
        subset = tiny_dataset[:300]
        corrupted, manifest = corrupt_dataset(subset, default_specs(0.1), seed=SEED)
        assert manifest.n_input == 300
        numbered = list(enumerate(corrupted, start=1))
        dataset, report = core_io.parse_records(numbered, strict=False, source="chaos")
        assert report.lines_seen == len(corrupted)
        assert len(dataset) + report.n_skipped == len(corrupted)
        assert report.n_skipped > 0  # truncation really breaks rows
