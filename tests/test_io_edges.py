"""Malformed-input edges, gzip transport and crash-safe saves."""

import dataclasses
import gzip
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import io as core_io
from repro.core.dataset import FOTDataset
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from tests.test_io import tickets_equal
from tests.test_ticket import make_ticket


class TestMalformedEdges:
    def _jsonl_with(self, tmp_path, **overrides):
        (record,) = core_io.iter_records(FOTDataset([make_ticket()]))
        record.update(overrides)
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps(record) + "\n")
        return path

    def test_bad_enum_value(self, tmp_path):
        path = self._jsonl_with(tmp_path, category="d_wat")
        with pytest.raises(ValueError, match="line 1"):
            core_io.load_jsonl(path)

    def test_bad_action_value(self, tmp_path):
        path = self._jsonl_with(tmp_path, action="explode")
        with pytest.raises(ValueError, match="line 1"):
            core_io.load_jsonl(path)

    def test_non_numeric_error_time(self, tmp_path):
        path = self._jsonl_with(tmp_path, error_time="soon")
        with pytest.raises(ValueError, match="error_time"):
            core_io.load_jsonl(path)

    def test_non_numeric_host_id(self, tmp_path):
        path = self._jsonl_with(tmp_path, host_id="server-nine")
        with pytest.raises(ValueError, match="host_id"):
            core_io.load_jsonl(path)

    def test_missing_csv_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("fot_id,host_id\n1,2\n")
        with pytest.raises(ValueError, match="missing columns"):
            core_io.load_csv(path)

    def test_blank_lines_skipped_jsonl(self, tmp_path, tiny_dataset):
        path = tmp_path / "t.jsonl"
        core_io.save_jsonl(tiny_dataset[:4], path)
        body = path.read_text().splitlines()
        path.write_text("\n".join([body[0], "", body[1], "  ", body[2], body[3], ""]) + "\n")
        assert len(core_io.load_jsonl(path)) == 4

    def test_float_like_int_fields_accepted(self, tmp_path):
        path = self._jsonl_with(tmp_path, error_position=5.0)
        assert core_io.load_jsonl(path)[0].error_position == 5


# ----------------------------------------------------------------------
# property test: JSONL <-> CSV round trip
# ----------------------------------------------------------------------
_name = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-_", min_size=1, max_size=12
)
_time = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def _tickets(draw):
    error_time = draw(_time)
    closed = draw(st.booleans())
    action = draw(st.sampled_from(list(OperatorAction))) if closed else None
    return make_ticket(
        fot_id=draw(st.integers(min_value=0, max_value=2**40)),
        host_id=draw(st.integers(min_value=0, max_value=2**40)),
        hostname=draw(_name),
        host_idc=draw(_name),
        error_device=draw(st.sampled_from(list(ComponentClass))),
        error_type=draw(_name),
        error_time=error_time,
        error_position=draw(st.integers(min_value=0, max_value=100)),
        error_detail=draw(_name),
        category=action.category if action else draw(st.sampled_from(list(FOTCategory))),
        source=draw(st.sampled_from(list(DetectionSource))),
        product_line=draw(_name),
        deployed_at=draw(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)),
        device_slot=draw(st.integers(min_value=0, max_value=64)),
        action=action,
        operator_id=draw(_name) if closed else None,
        op_time=error_time + draw(_time) if closed else None,
    )


class TestRoundTripProperty:
    @given(tickets=st.lists(_tickets(), min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_jsonl_csv_round_trip(self, tickets, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("prop")
        original = FOTDataset(tickets)
        jsonl = tmp_path / "t.jsonl"
        csv_path = tmp_path / "t.csv"
        core_io.save_jsonl(original, jsonl)
        via_jsonl = core_io.load_jsonl(jsonl)
        core_io.save_csv(via_jsonl, csv_path)
        via_csv = core_io.load_csv(csv_path)
        assert len(via_csv) == len(original)
        for a, b in zip(original, via_csv):
            assert tickets_equal(a, b)
            assert a.error_position == b.error_position
            assert a.device_slot == b.device_slot
            assert a.deployed_at == b.deployed_at
            assert a.source == b.source
            assert a.action == b.action


class TestGzip:
    @pytest.mark.parametrize("name", ["t.jsonl.gz", "t.csv.gz"])
    def test_round_trip(self, tmp_path, tiny_dataset, name):
        subset = tiny_dataset[:30]
        path = tmp_path / name
        core_io.save(subset, path)
        with path.open("rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"  # really gzip on disk
        loaded = core_io.load(path)
        assert len(loaded) == 30
        for a, b in zip(subset, loaded):
            assert tickets_equal(a, b)

    def test_gzip_output_is_deterministic(self, tmp_path, tiny_dataset):
        subset = tiny_dataset[:20]
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        core_io.save(subset, a)
        core_io.save(subset, b)
        assert a.read_bytes() == b.read_bytes()

    def test_gzip_smaller_than_plain(self, tmp_path, tiny_dataset):
        subset = tiny_dataset[:200]
        plain, packed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
        core_io.save(subset, plain)
        core_io.save(subset, packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_quarantine_mode_through_gzip(self, tmp_path, tiny_dataset):
        path = tmp_path / "t.jsonl.gz"
        core_io.save(tiny_dataset[:3], path)
        with gzip.open(path, "at", encoding="utf-8") as fh:
            fh.write("broken line\n")
        dataset, report = core_io.load(path, strict=False)
        assert len(dataset) == 3
        assert report.n_skipped == 1

    def test_unknown_suffix_rejected_with_hint(self, tmp_path, tiny_dataset):
        with pytest.raises(ValueError, match=r"did you mean '\.jsonl'"):
            core_io.save(tiny_dataset, tmp_path / "t.json")
        with pytest.raises(ValueError, match="unsupported"):
            core_io.load(tmp_path / "t.parquet.gz")


class _CrashOnWrite(dict):
    """A field value both writers choke on: JSON lists the items of a
    non-empty dict, CSV takes its ``str()``."""

    def items(self):
        raise RuntimeError("simulated crash mid-write")

    def __str__(self):
        raise RuntimeError("simulated crash mid-write")


def _exploding_dataset(dataset):
    """Writes one ticket, then dies — models a crash mid-save."""
    tickets = list(dataset)
    tickets[1] = dataclasses.replace(tickets[1], hostname=_CrashOnWrite(crash=True))
    return FOTDataset(tickets)


class TestAtomicSave:
    def test_failed_save_preserves_previous_dump(self, tmp_path, tiny_dataset):
        path = tmp_path / "t.jsonl"
        core_io.save_jsonl(tiny_dataset[:5], path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="mid-write"):
            core_io.save_jsonl(_exploding_dataset(tiny_dataset[:5]), path)
        assert path.read_bytes() == before  # old dump intact, not truncated

    def test_failed_save_leaves_no_file(self, tmp_path, tiny_dataset):
        path = tmp_path / "fresh.csv"
        with pytest.raises(RuntimeError):
            core_io.save_csv(_exploding_dataset(tiny_dataset[:5]), path)
        assert not path.exists()

    @pytest.mark.parametrize("name", ["t.jsonl", "t.csv", "t.jsonl.gz", "t.csv.gz"])
    def test_no_temp_files_left_behind(self, tmp_path, tiny_dataset, name):
        path = tmp_path / name
        core_io.save(tiny_dataset[:5], path)
        with pytest.raises(RuntimeError):
            core_io.save(_exploding_dataset(tiny_dataset[:5]), path)
        assert [p.name for p in tmp_path.iterdir()] == [name]
