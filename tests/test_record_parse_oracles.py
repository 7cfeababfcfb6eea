"""Oracles for the column-wise record parse and the column-built save.

The row-at-a-time code that ``repro.core.io`` and
``repro.core.columns`` replaced is kept below verbatim as the
reference: ``_parse_fields`` with its field parsers, ``parse_records``,
``ColumnBuilder`` (with ``_Interner``) and ``_ticket_to_record``, plus
the JSONL and CSV readers around them.  The alias tables and the writers
the rewrite left as they were are imported.

Over Hypothesis records with the ``synth_records`` field mix and
per-field perturbations, every record-level chaos corruptor, mixed
clean/dirty batches, CSV round trips, inputs longer than one chunk and
JSONL files mixing bad JSON with bad fields, the new parser must equal
the reference in every column (dtype and bytes; object columns as
lists), every table, every quarantine entry in order, ``n_loaded``, the
``BatchValidation`` verdict and reason, and the strict-mode message;
the save side must write the reference's bytes.  Four defect classes
the reference crashes on, misfiles or accepts (out-of-range integers,
non-object JSON lines, non-finite timestamps, a ``detail`` that is not
a JSON object) are asserted against their new outcome instead, and so
are three silent coercions it made (a JSON boolean in an integer or
timestamp field, a fractional JSON number in an integer field, an array
or object in a string field); where Hypothesis draws one of the last
five, :func:`expected_parse_records` checks that record's new outcome
and the reference's, and compares the rest of the batch with the
reference.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Type, TypeVar
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import io as core_io
from repro.core import storage
from repro.core.columns import (
    ACTION_CODE,
    CATEGORY_CODE,
    COLUMN_NAMES,
    COMPONENT_CODE,
    FALSY,
    SCHEMA,
    SOURCE_CODE,
    TABLE_NAMES,
    ColumnStore,
)
from repro.core.dataset import FOTDataset
from repro.core.io import CSV_FIELDS, LoadResult, _ENUM_ALIASES, _norm_label
from repro.core.ticket import FOT
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from repro.robustness import batch as batch_module
from repro.robustness import quarantine as q
from repro.robustness.chaos import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    corrupt_dataset,
    corrupt_records,
    default_specs,
)
from repro.robustness.quarantine import QuarantineReport, RowError
from repro.robustness.batch import validate_batch

from datetime import datetime, timezone
from enum import Enum

_E = TypeVar("_E", bound=Enum)


# ----------------------------------------------------------------------
# reference: the row-at-a-time parser, builder and record writer
# ----------------------------------------------------------------------
class _Repairs:
    """Per-line repair collector; ``None`` stands for strict mode."""

    def __init__(self, report: QuarantineReport, line: int) -> None:
        self.report = report
        self.line = line

    def note(self, repair: str, field: str, original: object, fixed: object) -> None:
        self.report.record_repair(self.line, repair, field, original, fixed)


def _require(record: Dict[str, object], key: str) -> object:
    if key not in record or record[key] in ("", None):
        raise RowError(q.MISSING_FIELD, f"missing required field {key!r}", key)
    return record[key]


def _parse_int(value: object, field: str) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        pass
    try:
        as_float = float(value)  # type: ignore[arg-type]
        if as_float.is_integer():
            return int(as_float)
    except (TypeError, ValueError):
        pass
    raise RowError(q.BAD_NUMBER, f"{field}: {value!r} is not an integer", field)


def _parse_enum(
    enum_cls: Type[_E], value: object, field: str, repairs: Optional[_Repairs]
) -> _E:
    text = str(value)
    try:
        return enum_cls(text)
    except ValueError:
        pass
    if repairs is not None:
        key = _norm_label(text)
        try:
            fixed = enum_cls(key)
        except ValueError:
            aliases, repair_kind = _ENUM_ALIASES[enum_cls]
            fixed = aliases.get(key)
            if fixed is None:
                raise RowError(
                    q.BAD_ENUM,
                    f"{field}: {text!r} is not a valid {enum_cls.__name__}",
                    field,
                ) from None
        else:
            _, repair_kind = _ENUM_ALIASES[enum_cls]
        repairs.note(repair_kind, field, text, fixed.value)
        return fixed
    raise RowError(
        q.BAD_ENUM, f"{field}: {text!r} is not a valid {enum_cls.__name__}", field
    )


def _parse_timestamp(
    value: object, field: str, repairs: Optional[_Repairs]
) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        pass
    if repairs is not None and isinstance(value, str):
        text = value.strip().replace("T", " ")
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError:
            pass
        else:
            if stamp.tzinfo is None:
                stamp = stamp.replace(tzinfo=timezone.utc)
            seconds = stamp.timestamp()
            repairs.note(q.TIMESTAMP_COERCED, field, value, seconds)
            return seconds
    raise RowError(
        q.BAD_TIMESTAMP, f"{field}: {value!r} is not a timestamp", field
    )


def _ticket_to_record(ticket: FOT, include_detail: bool) -> Dict[str, object]:
    record: Dict[str, object] = {
        "fot_id": ticket.fot_id,
        "host_id": ticket.host_id,
        "hostname": ticket.hostname,
        "host_idc": ticket.host_idc,
        "error_device": ticket.error_device.value,
        "error_type": ticket.error_type,
        "error_time": ticket.error_time,
        "error_position": ticket.error_position,
        "error_detail": ticket.error_detail,
        "category": ticket.category.value,
        "source": ticket.source.value,
        "product_line": ticket.product_line,
        "deployed_at": ticket.deployed_at,
        "device_slot": ticket.device_slot,
        "action": ticket.action.value if ticket.action else "",
        "operator_id": ticket.operator_id or "",
        "op_time": "" if ticket.op_time is None else ticket.op_time,
    }
    if include_detail:
        record["detail"] = ticket.detail
    return record


def _parse_fields(
    record: Dict[str, object], repairs: Optional[_Repairs]
) -> Dict[str, object]:
    """Parse one record into validated FOT field values, raising
    :class:`RowError` on any unrecoverable defect.  With ``repairs`` set
    (quarantining mode) the recoverable defects are repaired in place
    and recorded.  The returned dict feeds either ``FOT(**fields)`` or
    :meth:`~repro.core.columns.ColumnBuilder.append` — the loaders use
    the latter, building columns directly without intermediate tickets."""
    error_time = _parse_timestamp(_require(record, "error_time"), "error_time", repairs)
    if error_time < 0:
        raise RowError(
            q.NEGATIVE_TIME, f"error_time: {error_time!r} is negative", "error_time"
        )

    op_raw = record.get("op_time")
    op_time: Optional[float] = (
        None if op_raw in ("", None) else _parse_timestamp(op_raw, "op_time", repairs)
    )
    if op_time is not None and op_time < error_time:
        if repairs is not None:
            repairs.note(q.OP_TIME_DROPPED, "op_time", op_time, "")
            op_time = None
        else:
            raise RowError(
                q.INCONSISTENT_TIMES,
                f"op_time {op_time!r} precedes error_time {error_time!r}",
                "op_time",
            )

    slot_raw = record.get("device_slot", 0) or 0
    try:
        device_slot = _parse_int(slot_raw, "device_slot")
    except RowError:
        if repairs is None:
            raise
        repairs.note(q.SLOT_DEFAULTED, "device_slot", slot_raw, 0)
        device_slot = 0

    action_raw = record.get("action") or ""
    return dict(
        fot_id=_parse_int(_require(record, "fot_id"), "fot_id"),
        host_id=_parse_int(_require(record, "host_id"), "host_id"),
        hostname=str(_require(record, "hostname")),
        host_idc=str(_require(record, "host_idc")),
        error_device=_parse_enum(
            ComponentClass, _require(record, "error_device"), "error_device", repairs
        ),
        error_type=str(_require(record, "error_type")),
        error_time=error_time,
        error_position=_parse_int(
            _require(record, "error_position"), "error_position"
        ),
        error_detail=str(record.get("error_detail", "") or ""),
        category=_parse_enum(
            FOTCategory, _require(record, "category"), "category", repairs
        ),
        source=_parse_enum(
            DetectionSource, _require(record, "source"), "source", repairs
        ),
        product_line=str(_require(record, "product_line")),
        deployed_at=_parse_timestamp(
            _require(record, "deployed_at"), "deployed_at", repairs
        ),
        device_slot=device_slot,
        action=_parse_enum(OperatorAction, action_raw, "action", repairs)
        if action_raw
        else None,
        operator_id=str(record["operator_id"]) if record.get("operator_id") else None,
        op_time=op_time,
        detail=dict(record.get("detail") or {}),  # type: ignore[arg-type]
    )


def parse_records(
    numbered: Iterable[Tuple[int, Dict[str, object]]],
    *,
    strict: bool = True,
    source: str = "<records>",
    report: Optional[QuarantineReport] = None,
) -> Union[FOTDataset, LoadResult]:
    """Parse ``(line_number, record)`` pairs into a dataset.

    Strict mode raises on the first defect; quarantining mode skips the
    defective line, records it, and keeps going.  Pass ``report`` to
    accumulate into an existing :class:`QuarantineReport` (the JSONL
    loader uses this so bad-JSON skips land in the same report).
    """
    if report is None:
        report = QuarantineReport(source)
    builder = ColumnBuilder()
    for line_no, record in numbered:
        if strict:
            try:
                builder.append(**_parse_fields(record, repairs=None))
            except RowError as exc:
                raise ValueError(
                    f"line {line_no}: malformed ticket record: {exc}"
                ) from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"line {line_no}: malformed ticket record: {exc}"
                ) from exc
            continue
        repairs = _Repairs(report, line_no)
        try:
            builder.append(**_parse_fields(record, repairs))
        except RowError as exc:
            report.record_skip(line_no, exc.error_class, str(exc), exc.field)
        except (KeyError, TypeError, ValueError) as exc:
            report.record_skip(line_no, q.BAD_NUMBER, str(exc))
    report.n_loaded += len(builder)
    dataset = FOTDataset.from_store(builder.build())
    if strict:
        return dataset
    return LoadResult(dataset, report)


class _Interner:
    """Append-side string interning: value -> dense int code."""

    __slots__ = ("index", "table")

    def __init__(self) -> None:
        self.index: Dict[str, int] = {}
        self.table: List[str] = []

    def intern(self, value: str) -> int:
        code = self.index.get(value)
        if code is None:
            code = len(self.table)
            self.index[value] = code
            self.table.append(value)
        return code


class ColumnBuilder:
    """Accumulates ticket fields row by row and builds a
    :class:`ColumnStore` — the zero-``FOT`` emission path used by the
    loaders and the FMS pipeline."""

    def __init__(self) -> None:
        self._fot_ids: List[int] = []
        self._host_ids: List[int] = []
        self._error_times: List[float] = []
        self._op_times: List[float] = []
        self._deployed_ats: List[float] = []
        self._positions: List[int] = []
        self._device_slots: List[int] = []
        self._category_codes: List[int] = []
        self._component_codes: List[int] = []
        self._source_codes: List[int] = []
        self._action_codes: List[int] = []
        self._hostnames: List[str] = []
        self._error_details: List[str] = []
        self._details: List[dict] = []
        self._idc = _Interner()
        self._product_line = _Interner()
        self._error_type = _Interner()
        self._operator_id = _Interner()
        self._idc_codes: List[int] = []
        self._product_line_codes: List[int] = []
        self._error_type_codes: List[int] = []
        self._operator_id_codes: List[int] = []

    def __len__(self) -> int:
        return len(self._fot_ids)

    def append(
        self,
        *,
        fot_id: int,
        host_id: int,
        hostname: str,
        host_idc: str,
        error_device: ComponentClass,
        error_type: str,
        error_time: float,
        error_position: int,
        error_detail: str,
        category: FOTCategory,
        source: DetectionSource,
        product_line: str,
        deployed_at: float,
        device_slot: int = 0,
        action: Optional[OperatorAction] = None,
        operator_id: Optional[str] = None,
        op_time: Optional[float] = None,
        detail: Optional[dict] = None,
    ) -> None:
        """Append one ticket's fields (same invariants as
        :class:`~repro.core.ticket.FOT`; validation happens before any
        column is touched, so a raise leaves the builder consistent)."""
        error_time = float(error_time)
        if error_time < 0:
            raise ValueError(f"error_time must be >= 0, got {error_time}")
        if op_time is not None:
            op_time = float(op_time)
            if op_time < error_time:
                raise ValueError(
                    "op_time must not precede error_time "
                    f"({op_time} < {error_time})"
                )
        category_code = CATEGORY_CODE[category]
        component_code = COMPONENT_CODE[error_device]
        source_code = SOURCE_CODE[source]
        action_code = -1 if action is None else ACTION_CODE[action]

        self._fot_ids.append(int(fot_id))
        self._host_ids.append(int(host_id))
        self._hostnames.append(hostname)
        self._idc_codes.append(self._idc.intern(host_idc))
        self._component_codes.append(component_code)
        self._error_type_codes.append(self._error_type.intern(error_type))
        self._error_times.append(error_time)
        self._positions.append(int(error_position))
        self._error_details.append(error_detail)
        self._category_codes.append(category_code)
        self._source_codes.append(source_code)
        self._product_line_codes.append(self._product_line.intern(product_line))
        self._deployed_ats.append(float(deployed_at))
        self._device_slots.append(int(device_slot))
        self._action_codes.append(action_code)
        self._operator_id_codes.append(
            -1 if operator_id is None else self._operator_id.intern(operator_id)
        )
        self._op_times.append(np.nan if op_time is None else op_time)
        self._details.append({} if detail is None else detail)

    def append_ticket(self, ticket: FOT) -> None:
        self.append(
            fot_id=ticket.fot_id,
            host_id=ticket.host_id,
            hostname=ticket.hostname,
            host_idc=ticket.host_idc,
            error_device=ticket.error_device,
            error_type=ticket.error_type,
            error_time=ticket.error_time,
            error_position=ticket.error_position,
            error_detail=ticket.error_detail,
            category=ticket.category,
            source=ticket.source,
            product_line=ticket.product_line,
            deployed_at=ticket.deployed_at,
            device_slot=ticket.device_slot,
            action=ticket.action,
            operator_id=ticket.operator_id,
            op_time=ticket.op_time,
            detail=ticket.detail,
        )

    def build(self) -> ColumnStore:
        n = len(self)
        arrays: Dict[str, np.ndarray] = {
            "fot_ids": np.asarray(self._fot_ids, dtype=np.int64),
            "host_ids": np.asarray(self._host_ids, dtype=np.int64),
            "error_times": np.asarray(self._error_times, dtype=np.float64),
            "op_times": np.asarray(self._op_times, dtype=np.float64),
            "deployed_ats": np.asarray(self._deployed_ats, dtype=np.float64),
            "positions": np.asarray(self._positions, dtype=np.int32),
            "device_slots": np.asarray(self._device_slots, dtype=np.int32),
            "category_codes": np.asarray(self._category_codes, dtype=np.int8),
            "component_codes": np.asarray(self._component_codes, dtype=np.int8),
            "source_codes": np.asarray(self._source_codes, dtype=np.int8),
            "action_codes": np.asarray(self._action_codes, dtype=np.int8),
            "idc_codes": np.asarray(self._idc_codes, dtype=np.int32),
            "product_line_codes": np.asarray(
                self._product_line_codes, dtype=np.int32
            ),
            "error_type_codes": np.asarray(self._error_type_codes, dtype=np.int32),
            "operator_id_codes": np.asarray(
                self._operator_id_codes, dtype=np.int32
            ),
        }
        for name, values in (
            ("hostnames", self._hostnames),
            ("error_details", self._error_details),
            ("details", self._details),
        ):
            column = np.empty(n, dtype=object)
            for i, value in enumerate(values):
                column[i] = value
            column.setflags(write=False)
            arrays[name] = column
        tables = {
            "idc": tuple(self._idc.table),
            "product_line": tuple(self._product_line.table),
            "error_type": tuple(self._error_type.table),
            "operator_id": tuple(self._operator_id.table),
        }
        return ColumnStore.from_columns(n, arrays, tables)


def _iter_jsonl(
    path: Path, report: Optional[QuarantineReport]
) -> Iterable[Tuple[int, Dict[str, object]]]:
    with contextlib.closing(core_io._open_read(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                if report is None:
                    raise ValueError(f"line {line_no}: invalid JSON: {exc}") from exc
                report.record_skip(line_no, q.BAD_JSON, f"invalid JSON: {exc}")


def load_jsonl(path, *, strict=True):
    path = Path(path)
    if strict:
        return parse_records(_iter_jsonl(path, None), strict=True, source=str(path))
    report = QuarantineReport(str(path))
    return parse_records(
        _iter_jsonl(path, report), strict=False, source=str(path), report=report
    )


def load_csv(path, *, strict=True, parse=parse_records):
    path = Path(path)
    with contextlib.closing(core_io._open_read(path)) as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or [])
        if not strict:
            missing -= core_io.OPTIONAL_CSV_FIELDS
        if missing:
            raise ValueError(f"CSV is missing columns: {sorted(missing)}")
        numbered = ((line_no, row) for line_no, row in enumerate(reader, start=2))
        if strict:
            return parse(numbered, strict=True, source=str(path))
        return parse(numbered, strict=False, source=str(path))


def save_jsonl(dataset: FOTDataset, path) -> None:
    core_io.write_jsonl_records(
        (_ticket_to_record(t, include_detail=True) for t in dataset), path
    )


def save_csv(dataset: FOTDataset, path) -> None:
    core_io.write_csv_records(
        (_ticket_to_record(t, include_detail=False) for t in dataset), path
    )


# ----------------------------------------------------------------------
# comparison helpers
# ----------------------------------------------------------------------
def assert_same_dataset(new: FOTDataset, ref: FOTDataset) -> None:
    """Every column's dtype and bytes (object columns as lists) and
    every table, in order."""
    new_store, ref_store = new.store, ref.store
    assert new_store.n == ref_store.n
    for name in TABLE_NAMES:
        assert new_store.table(name) == ref_store.table(name), name
    for name in COLUMN_NAMES:
        got, want = new_store.column(name), ref_store.column(name)
        assert got.dtype == want.dtype, name
        if got.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


def assert_same_report(new: QuarantineReport, ref: QuarantineReport) -> None:
    assert new.skips == ref.skips
    assert new.repairs == ref.repairs
    assert new.n_loaded == ref.n_loaded


def _strict(load, *args):
    """The strict-mode dataset, or the message it raised."""
    try:
        return load(*args, strict=True)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_same_strict(new, ref) -> None:
    if isinstance(ref, str) or isinstance(new, str):
        assert new == ref
    else:
        assert_same_dataset(new, ref)


# ----------------------------------------------------------------------
# the cells five fixes change: non-finite timestamps, non-object details,
# booleans as numbers, fractional numbers as integers, arrays and objects
# as strings
# ----------------------------------------------------------------------
_TIMESTAMP_FIELDS = ("error_time", "deployed_at", "op_time")


def _non_finite(value: object) -> bool:
    try:
        return not math.isfinite(float(value))  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):
        return False


#: Per text kind, the JSON types the last three fixes reject, and the
#: skip.  Of a float they reject only a finite fractional one: ``int()``
#: truncated it.
_TYPE_FIXES = {
    "int": ((bool, float), q.BAD_NUMBER, "is not an integer"),
    "time": ((bool,), q.BAD_TIMESTAMP, "is not a timestamp"),
    "str": ((list, dict), q.BAD_JSON, "is not a string"),
}


def _truncated(value: object) -> bool:
    """Whether ``int()`` truncates ``value``: a finite fractional float."""
    return type(value) is float and math.isfinite(value) and not value.is_integer()


def _fix_messages(record: object) -> List[Tuple[str, str, str]]:
    """The ``(error class, field, message)`` skips the five fixes may
    file for ``record``: one per non-finite timestamp, one for a truthy
    ``detail`` that is not a dict, and one per present boolean number,
    fractional integer or array/object string (a falsy value in a
    ``FALSY`` field is absent)."""
    if not isinstance(record, dict):
        return []
    out = [
        (q.BAD_TIMESTAMP, field, f"{field}: {record[field]!r} is not a timestamp")
        for field in _TIMESTAMP_FIELDS
        if _non_finite(record.get(field))
    ]
    detail = record.get("detail")
    if detail and not isinstance(detail, dict):
        out.append((q.BAD_JSON, "detail", f"detail: {detail!r} is not a JSON object"))
    for field in SCHEMA:
        types, error_class, text = _TYPE_FIXES.get(field.text, ((), "", ""))
        value = record.get(field.name)
        rejected = type(value) in types and (type(value) is not float or _truncated(value))
        if rejected and (value or field.absent != FALSY):
            out.append((error_class, field.name, f"{field.name}: {value!r} {text}"))
    return out


def _columns(dataset: FOTDataset) -> List[Tuple[str, object]]:
    store = dataset.store
    return [(name, store.table(name)) for name in TABLE_NAMES] + [
        (name, store.column(name).tolist() if store.column(name).dtype == object
         else (store.column(name).dtype.str, store.column(name).tobytes()))
        for name in COLUMN_NAMES
    ]


def _alone(parse, pair: Tuple[int, object], strict: bool):
    """What ``parse`` makes of one numbered record on its own."""
    if strict:
        result = _strict(parse, [pair])
        return result if isinstance(result, str) else _columns(result)
    dataset, report = parse([pair], strict=False)
    skips = [(s.line, s.error_class, s.field, s.message) for s in report.skips]
    return skips, report.repairs, _columns(dataset)


def _split_fixed(numbered, strict: bool):
    """The records whose outcome alone the five fixes change, and the
    rest.  Each of the former must get the fix's outcome from the new
    parser, and must have been accepted or misfiled by the reference.
    In quarantining mode a record whose one change is a repaired true or
    fractional ``device_slot`` stays with the rest, as the text slot
    (``"True"``, ``"2.5"``) the reference repairs the same way."""
    fixed, kept = [], []
    for pair in numbered:
        messages = _fix_messages(pair[1])
        new = _alone(core_io.parse_records, pair, strict) if messages else None
        ref = _alone(parse_records, pair, strict) if messages else None
        if new == ref:
            kept.append(pair)
            continue
        line = pair[0]
        if strict:
            assert new in [
                f"ValueError: line {line}: malformed ticket record: {message}"
                for _, _, message in messages
            ], new
            assert not isinstance(ref, str) or ref != new  # accepted or misfiled
            fixed.append(pair)
            continue
        slot = pair[1].get("device_slot")
        if slot is True or _truncated(slot):
            # a true or fractional slot is repaired like any other
            # non-integer slot, which the reference repairs with the same
            # original text
            as_text = (line, dict(pair[1], device_slot=str(slot)))
            ref = _alone(parse_records, as_text, strict)
            if new == ref:
                kept.append(as_text)
                continue
        new_skips, new_repairs, new_columns = new
        ref_skips, ref_repairs, _ = ref
        assert [skip[1:] for skip in new_skips] in [[m] for m in messages], new_skips
        assert new_skips[0][0] == line and new_columns == _columns(FOTDataset())
        assert ref_repairs[:len(new_repairs)] == new_repairs
        # the reference loaded the record or filed it elsewhere
        assert not ref_skips or ref_skips[0][1:] != new_skips[0][1:], ref_skips
        fixed.append(pair)
    return fixed, kept


def expected_parse_records(numbered, *, strict=True, source="<records>", report=None):
    """The reference :func:`parse_records`, except for the records the
    fixes change: those get the new parser's outcome, each checked
    on its own by :func:`_split_fixed`, in line order with the rest."""
    numbered = list(numbered)
    fixed, kept = _split_fixed(numbered, strict)
    if strict:
        if fixed:
            # a defect before the first fixed record still raises first
            parse_records([pair for pair in kept if pair[0] < fixed[0][0]], strict=True)
            core_io.parse_records(fixed[:1], strict=True)
        return parse_records(kept, strict=True)
    if report is None:
        report = QuarantineReport(source)
    result = parse_records(kept, strict=False, source=source, report=report)
    for pair in fixed:
        core_io.parse_records([pair], strict=False, report=report)
    report.skips.sort(key=lambda skip: skip.line)
    report.repairs.sort(key=lambda repair: repair.line)
    return result


def assert_same_parse(records: List[object]) -> None:
    """The new parser, over a list (one pass) and over an iterator (in
    chunks), against the reference."""
    numbered = list(enumerate(records, start=1))
    ref, ref_report = expected_parse_records(numbered, strict=False, source="s")
    ref_strict = _strict(expected_parse_records, numbered)
    for pairs in (lambda: numbered, lambda: iter(numbered)):
        new, new_report = core_io.parse_records(pairs(), strict=False, source="s")
        assert_same_dataset(new, ref)
        assert_same_report(new_report, ref_report)
        assert_same_strict(_strict(core_io.parse_records, pairs()), ref_strict)


def assert_same_validation(records: List[object]) -> None:
    new = validate_batch(records)
    with mock.patch.object(batch_module, "parse_records", expected_parse_records):
        ref = validate_batch(records)
    assert (new.verdict, new.reason) == (ref.verdict, ref.reason)
    assert_same_dataset(new.dataset, ref.dataset)
    assert_same_report(new.quarantine, ref.quarantine)


# ----------------------------------------------------------------------
# inputs: the synth_records field mix, perturbed field by field
# ----------------------------------------------------------------------
_HORIZON = 4 * 365.25 * 86400.0
_ERROR_TYPES = ["SMARTFail", "NotReady", "MediaError", "UncorrectableECC", "PSUFailure"]
_MISSING = object()

#: Values a perturbation may put in any field: bool, integral and
#: non-integral floats, numeric strings, ISO timestamps, alias and
#: case-variant labels, blanks, containers, NaN, negative numbers.
_VALUES = [
    True, False, 0, 7.0, 2.5, "12", "1000.5", " 42 ", "3.0",
    "2015-03-02T10:00:00", "2015-03-03 10:00:00", "soon",
    "", None, _MISSING, [1, 2], {"a": 1}, [["a", 1]], "abc", math.nan,
    -5.0, -1, "Fixing", "D_FIXING", "disk", "HDD", "log", "RO", "Repair",
    "mark-false-alarm", "warp_core",
]


@st.composite
def clean_records(draw, fot_id: int) -> Dict[str, object]:
    host = draw(st.integers(0, 5000))
    t = draw(st.floats(0.0, _HORIZON))
    category = draw(st.sampled_from([c.value for c in FOTCategory]))
    closed = category != "d_error"
    slot = draw(st.integers(0, 11))
    record = {
        "fot_id": fot_id,
        "host_id": host,
        "hostname": f"host{host:07d}",
        "host_idc": f"dc{host % 24:02d}",
        "error_device": draw(st.sampled_from([c.value for c in ComponentClass])),
        "error_type": draw(st.sampled_from(_ERROR_TYPES)),
        "error_time": t,
        "error_position": host % 40,
        "error_detail": f"dev{slot}",
        "category": category,
        "source": draw(st.sampled_from([s.value for s in DetectionSource])),
        "product_line": f"line{host % 15:02d}",
        "deployed_at": draw(st.floats(0.0, max(t, 0.0))),
        "device_slot": slot,
        "action": ("repair_order" if category == "d_fixing" else
                   "mark_false_alarm" if category == "d_falsealarm" else ""),
        "operator_id": f"op{fot_id % 37:02d}" if closed else "",
        "op_time": t + draw(st.floats(0.0, 1e7)) if closed else "",
    }
    if draw(st.booleans()):
        record["detail"] = {"tag": draw(st.sampled_from(["repeat", "storm"]))}
    return record


@st.composite
def perturbed_records(draw, fot_id: int) -> Dict[str, object]:
    """A clean record with up to three fields perturbed."""
    record = draw(clean_records(fot_id))
    fields = [*CSV_FIELDS, "detail"]
    for _ in range(draw(st.integers(0, 3))):
        field = draw(st.sampled_from(fields))
        value = record.get(field)
        choice = draw(st.sampled_from([
            "constant", "str", "float", "half", "upper", "iso_of", "before_error",
        ]))
        if choice == "constant":
            new = draw(st.sampled_from(_VALUES))
        elif choice == "str":
            new = str(value)
        elif choice == "float" and isinstance(value, (int, float)):
            new = float(value)
        elif choice == "half" and isinstance(value, (int, float)):
            new = value + 0.5
        elif choice == "upper" and isinstance(value, str):
            new = value.upper().replace("_", " ")
        elif choice == "iso_of" and isinstance(value, float) and math.isfinite(value):
            new = datetime.fromtimestamp(value, tz=timezone.utc).isoformat()
        elif choice == "before_error" and isinstance(record.get("error_time"), float):
            new = record["error_time"] - 10.0  # type: ignore[operator]
        else:
            new = draw(st.sampled_from(_VALUES))
        if new is _MISSING:
            record.pop(field, None)
        else:
            record[field] = new
    return record


@st.composite
def batches(draw, max_size: int = 25) -> List[Dict[str, object]]:
    """Clean and dirty records mixed."""
    n = draw(st.integers(1, max_size))
    return [
        draw(perturbed_records(i) if draw(st.booleans()) else clean_records(i))
        for i in range(n)
    ]


_SETTINGS = settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ----------------------------------------------------------------------
# the parse
# ----------------------------------------------------------------------
class TestParseOracle:
    @_SETTINGS
    @given(batches())
    def test_mixed_batches(self, records):
        assert_same_parse(records)

    @_SETTINGS
    @given(batches())
    def test_batch_validation(self, records):
        assert_same_validation(records)

    @settings(max_examples=40, deadline=None)
    @given(batches(max_size=12))
    def test_csv_round_trip(self, tmp_path_factory, records):
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        core_io.write_csv_records(records, path)
        new, new_report = core_io.load_csv(path, strict=False)
        ref, ref_report = load_csv(path, strict=False, parse=expected_parse_records)
        assert_same_dataset(new, ref)
        assert_same_report(new_report, ref_report)
        assert_same_strict(
            _strict(core_io.load_csv, path),
            _strict(partial(load_csv, parse=expected_parse_records), path),
        )

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_chaos_corruptors(self, tiny_dataset, kind):
        records = [_ticket_to_record(t, include_detail=True) for t in tiny_dataset[:600]]
        corrupted, _ = corrupt_records(records, [CorruptionSpec(kind, 0.2)], seed=7)
        assert_same_parse(corrupted)
        assert_same_validation(corrupted)

    def test_all_chaos_corruptors_through_csv(self, tiny_dataset, tmp_path):
        records = [_ticket_to_record(t, include_detail=False) for t in tiny_dataset[:600]]
        corrupted, _ = corrupt_records(records, default_specs(0.1), seed=11)
        assert_same_parse(corrupted)
        path = tmp_path / "chaos.csv"
        core_io.write_csv_records(corrupted, path)
        new, new_report = core_io.load_csv(path, strict=False)
        ref, ref_report = load_csv(path, strict=False)
        assert_same_dataset(new, ref)
        assert_same_report(new_report, ref_report)


def _long_input(tiny_dataset) -> List[Dict[str, object]]:
    """Longer than one chunk, with dirty rows on both sides of the
    chunk boundaries."""
    base = [_ticket_to_record(t, include_detail=True) for t in tiny_dataset]
    records = [dict(r, fot_id=i) for i, r in enumerate(base * 3)]
    assert len(records) > 2 * core_io._CHUNK
    dirt = {
        5: {"category": "Fixing"},
        core_io._CHUNK - 1: {"error_time": "2015-03-02T10:00:00"},
        core_io._CHUNK: {"host_id": "server-nine"},
        core_io._CHUNK + 1: {"error_device": "warp_core"},
        2 * core_io._CHUNK: {"hostname": ""},
        len(records) - 1: {"op_time": 1.0},
    }
    for i, change in dirt.items():
        records[i] = dict(records[i], **change)
    return records


class TestChunks:
    def test_longer_than_a_chunk(self, tiny_dataset):
        assert_same_parse(_long_input(tiny_dataset))

    @pytest.mark.parametrize("at", [3, 4000, 4096, 4097, 8400])
    def test_iterator_error_surfaces_after_earlier_rows(self, tiny_dataset, at):
        records = _long_input(tiny_dataset)

        def numbered():
            for i, record in enumerate(records):
                if i == at:
                    raise OSError("disk gone")
                yield i + 1, record

        outcomes = []
        for parse in (core_io.parse_records, parse_records):
            report = QuarantineReport("s")
            with pytest.raises(OSError, match="disk gone"):
                parse(numbered(), strict=False, report=report)
            try:
                parse(numbered(), strict=True)
            except (OSError, ValueError) as exc:
                strict = f"{type(exc).__name__}: {exc}"
            outcomes.append((report.skips, report.repairs, strict))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("order", ["field_first", "json_first"])
    def test_bad_json_interleaves_with_field_skips(self, tiny_dataset, tmp_path, order):
        records = [_ticket_to_record(t, include_detail=True) for t in tiny_dataset[:40]]
        lines = [json.dumps(r) for r in records * 120]
        bad_field = json.dumps(dict(records[0], category="d_wat"))
        pairs = [bad_field, "{not json"] if order == "field_first" else ["{not json", bad_field]
        for at in (7, core_io._CHUNK - 1, core_io._CHUNK + 3):
            lines[at:at] = [*pairs, ""]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n")
        new, new_report = core_io.load_jsonl(path, strict=False)
        ref, ref_report = load_jsonl(path, strict=False)
        assert_same_dataset(new, ref)
        assert_same_report(new_report, ref_report)
        assert [s.line for s in new_report.skips] == sorted(s.line for s in new_report.skips)
        assert_same_strict(_strict(core_io.load_jsonl, path), _strict(load_jsonl, path))


# ----------------------------------------------------------------------
# the save side
# ----------------------------------------------------------------------
def _datasets(tiny_dataset, tmp_path) -> Dict[str, FOTDataset]:
    text = tmp_path / "t.jsonl"
    save_jsonl(tiny_dataset, text)
    dirty, _ = corrupt_records(
        [_ticket_to_record(t, include_detail=True) for t in tiny_dataset[:300]],
        default_specs(0.1), seed=3,
    )
    return {
        "simulated": tiny_dataset,
        "view": tiny_dataset.failures().take(np.arange(0, 400, 3)),
        "text_loaded": core_io.load_jsonl(text),
        "repaired": core_io.parse_records(
            list(enumerate(dirty, start=1)), strict=False
        ).dataset,
        "tickets": FOTDataset(list(tiny_dataset[:50])),
        "empty": tiny_dataset.take(np.arange(0)),
    }


class TestSaveOracle:
    @pytest.mark.parametrize("suffix", [".jsonl", ".csv", ".jsonl.gz", ".csv.gz"])
    def test_bytes_equal_reference(self, tiny_dataset, tmp_path, suffix):
        reference_save = save_jsonl if suffix.startswith(".jsonl") else save_csv
        for name, dataset in _datasets(tiny_dataset, tmp_path).items():
            new, ref = tmp_path / f"new{suffix}", tmp_path / f"ref{suffix}"
            core_io.save(dataset, new)
            reference_save(dataset, ref)
            assert new.read_bytes() == ref.read_bytes(), name

    def test_columnar_store_saves_without_materializing(self, tiny_dataset, tmp_path):
        root = tmp_path / "t.fourcol"
        storage.save_columnar(tiny_dataset, root)
        loaded = storage.load_columnar(root)
        core_io.save_jsonl(loaded, tmp_path / "new.jsonl")
        core_io.save_csv(loaded, tmp_path / "new.csv")
        assert loaded.store.n_materialized == 0
        save_jsonl(storage.load_columnar(root), tmp_path / "ref.jsonl")
        save_csv(storage.load_columnar(root), tmp_path / "ref.csv")
        for name in ("jsonl", "csv"):
            assert (tmp_path / f"new.{name}").read_bytes() == (
                tmp_path / f"ref.{name}"
            ).read_bytes()

    @pytest.mark.parametrize("include_detail", [True, False])
    def test_corrupt_dataset(self, tiny_dataset, include_detail):
        dataset = tiny_dataset[:500]
        specs = default_specs(0.1)
        new, new_manifest = corrupt_dataset(dataset, specs, 5, include_detail)
        records = [_ticket_to_record(t, include_detail) for t in dataset]
        ref, ref_manifest = corrupt_records(records, specs, 5)
        assert [json.dumps(r) for r in new] == [json.dumps(r) for r in ref]
        assert new_manifest.to_json() == ref_manifest.to_json()


# ----------------------------------------------------------------------
# the two defect classes the reference crashes on or misfiles
# ----------------------------------------------------------------------
def _clean() -> Dict[str, object]:
    return {
        "fot_id": 1, "host_id": 7, "hostname": "h", "host_idc": "dc00",
        "error_device": "hdd", "error_type": "SMARTFail", "error_time": 1000.0,
        "error_position": 5, "error_detail": "sda", "category": "d_fixing",
        "source": "syslog", "product_line": "pl", "deployed_at": 0.0,
        "device_slot": 2, "action": "repair_order", "operator_id": "op1",
        "op_time": 2000.0,
    }


_OUT_OF_RANGE = [
    ("fot_id", 2**70),
    ("host_id", 1e30),
    ("error_position", 2**40),
    ("device_slot", 2**33),
    ("fot_id", math.inf),
    ("host_id", -math.inf),
    ("error_position", math.inf),
    ("device_slot", math.inf),
]


class TestOutOfRangeIntegers:
    @pytest.mark.parametrize("field,value", _OUT_OF_RANGE)
    def test_quarantined_as_bad_number(self, field, value):
        numbered = list(enumerate([_clean(), dict(_clean(), **{field: value}), _clean()], 1))
        with pytest.raises(OverflowError):
            parse_records(numbered, strict=False)  # the reference crashes
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert len(dataset) == report.n_loaded == 2
        assert [(s.line, s.error_class, s.field) for s in report.skips] == [
            (2, q.BAD_NUMBER, field)
        ]
        assert report.skips[0].message == f"{field}: {value!r} is out of range"
        assert not report.repairs  # a slot out of range is not defaulted
        with pytest.raises(ValueError) as info:
            core_io.parse_records(numbered, strict=True)
        assert str(info.value) == (
            f"line 2: malformed ticket record: {field}: {value!r} is out of range"
        )

    @pytest.mark.parametrize("field,value", _OUT_OF_RANGE)
    def test_batch_is_quarantined_not_dead_lettered(self, field, value):
        result = validate_batch([_clean(), dict(_clean(), **{field: value})])
        assert result.verdict == batch_module.ACCEPTED_WITH_QUARANTINE
        assert result.n_accepted == 1 and result.n_quarantined == 1

    @pytest.mark.parametrize("field", ["fot_id", "host_id", "error_position", "device_slot"])
    def test_json_infinity(self, tmp_path, field):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_clean()) + "\n" + json.dumps(dict(_clean(), **{field: math.inf})) + "\n"
        )
        assert "Infinity" in path.read_text()
        dataset, report = core_io.load_jsonl(path, strict=False)
        assert len(dataset) == 1
        assert [(s.line, s.error_class) for s in report.skips] == [(2, q.BAD_NUMBER)]
        with pytest.raises(ValueError, match=rf"^line 2: malformed ticket record: {field}: inf"):
            core_io.load_jsonl(path)

    @pytest.mark.parametrize("field", ["error_time", "deployed_at", "op_time"])
    def test_timestamp_past_float_range(self, field):
        numbered = [(1, dict(_clean(), **{field: 10**400}))]
        with pytest.raises(OverflowError):
            parse_records(numbered, strict=False)  # the reference crashes
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert len(dataset) == 0
        assert [(s.error_class, s.field) for s in report.skips] == [(q.BAD_TIMESTAMP, field)]

    def test_column_bounds_accepted(self):
        edge = dict(_clean(), fot_id=2**63 - 1, host_id=-(2**63), error_position=2**31 - 1,
                    device_slot=-(2**31))
        numbered = [(1, edge)]
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert report.clean and len(dataset) == 1
        assert_same_dataset(dataset, parse_records(numbered, strict=True))


class TestNonObjectRecords:
    _LINES = ("5", '"abc"', "[1, 2]", "null")

    def test_jsonl_lines_are_bad_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        clean = json.dumps(_clean())
        path.write_text("\n".join([clean, *self._LINES, clean]) + "\n")
        dataset, report = core_io.load_jsonl(path, strict=False)
        assert len(dataset) == 2
        assert [(s.line, s.error_class, s.message) for s in report.skips] == [
            (line, q.BAD_JSON, "record is not a JSON object") for line in (2, 3, 4, 5)
        ]
        # the reference files them as field defects
        _, ref_report = load_jsonl(path, strict=False)
        assert [s.error_class for s in ref_report.skips] == [
            q.BAD_NUMBER, q.MISSING_FIELD, q.MISSING_FIELD, q.BAD_NUMBER
        ]
        with pytest.raises(ValueError) as info:
            core_io.load_jsonl(path)
        assert str(info.value) == "line 2: record is not a JSON object"

    def test_parse_records_takes_any_record(self):
        records = [_clean(), 5, "abc", [1, 2], None, _clean()]
        dataset, report = core_io.parse_records(list(enumerate(records, 1)), strict=False)
        assert len(dataset) == report.n_loaded == 2
        assert [(s.line, s.error_class) for s in report.skips] == [
            (line, q.BAD_JSON) for line in (2, 3, 4, 5)
        ]
        with pytest.raises(ValueError, match=r"^line 2: record is not a JSON object$"):
            core_io.parse_records(list(enumerate(records, 1)))


_NON_FINITE = [math.nan, math.inf, -math.inf, "nan", "inf", "-Infinity"]


class TestNonFiniteTimestamps:
    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("field", _TIMESTAMP_FIELDS)
    def test_quarantined_as_bad_timestamp(self, field, value):
        numbered = list(enumerate([_clean(), dict(_clean(), **{field: value}), _clean()], 1))
        ref, ref_report = parse_records(numbered, strict=False)
        if field == "error_time" and float(value) < 0:
            assert [(s.line, s.error_class) for s in ref_report.skips] == [(2, q.NEGATIVE_TIME)]
        else:  # the reference loads it
            assert len(ref) == 3 and not ref_report.skips
        message = f"{field}: {value!r} is not a timestamp"
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert len(dataset) == report.n_loaded == 2
        assert [(s.line, s.error_class, s.field, s.message) for s in report.skips] == [
            (2, q.BAD_TIMESTAMP, field, message)
        ]
        with pytest.raises(ValueError) as info:
            core_io.parse_records(numbered, strict=True)
        assert str(info.value) == f"line 2: malformed ticket record: {message}"

    @pytest.mark.parametrize("suffix", [".jsonl", ".csv"])
    def test_text_dumps(self, tmp_path, suffix):
        path = tmp_path / f"t{suffix}"
        core_io.write_records(
            [dict(_clean(), error_time=math.nan), dict(_clean(), deployed_at=math.inf),
             dict(_clean(), op_time=-math.inf), _clean()],
            path,
        )
        assert ("NaN" if suffix == ".jsonl" else "nan") in path.read_text()
        dataset, report = core_io.load(path, strict=False)
        assert len(dataset) == 1
        assert [(s.error_class, s.field) for s in report.skips] == [
            (q.BAD_TIMESTAMP, field) for field in _TIMESTAMP_FIELDS
        ]
        with pytest.raises(ValueError, match="malformed ticket record: error_time: "):
            core_io.load(path)


_NON_OBJECT_DETAILS = ["x", 5, 2.5, True, [1, 2], ["ab"], [[1, 2]], [["a", 1]]]


class TestNonObjectDetail:
    @pytest.mark.parametrize("detail", _NON_OBJECT_DETAILS)
    def test_quarantined_as_bad_json(self, detail):
        numbered = list(enumerate([_clean(), dict(_clean(), detail=detail), _clean()], 1))
        ref, ref_report = parse_records(numbered, strict=False)
        # the reference misfiles it as a bad number or loads it as a dict
        assert [s.error_class for s in ref_report.skips] in ([q.BAD_NUMBER], [])
        assert len(ref) == 3 - len(ref_report.skips)
        message = f"detail: {detail!r} is not a JSON object"
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert len(dataset) == report.n_loaded == 2
        assert [(s.line, s.error_class, s.field, s.message) for s in report.skips] == [
            (2, q.BAD_JSON, "detail", message)
        ]
        with pytest.raises(ValueError) as info:
            core_io.parse_records(numbered, strict=True)
        assert str(info.value) == f"line 2: malformed ticket record: {message}"

    @pytest.mark.parametrize("detail", [None, "", 0, False, [], {}])
    def test_falsy_detail_is_a_fresh_empty_dict(self, detail):
        numbered = list(enumerate([dict(_clean(), detail=detail)] * 2, 1))
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert report.clean
        first, second = dataset.store.column("details").tolist()
        assert first == second == {} and first is not second


class TestTypedValues:
    """A JSON boolean is no integer or timestamp, a fractional number is
    no integer, and an array or object is no string: each is a skip,
    where the reference loaded 0/1, the truncated number or the value's
    Python repr."""

    @pytest.mark.parametrize(
        "field,value,error_class,text",
        [
            ("fot_id", True, q.BAD_NUMBER, "is not an integer"),
            ("error_position", False, q.BAD_NUMBER, "is not an integer"),
            ("error_time", True, q.BAD_TIMESTAMP, "is not a timestamp"),
            ("op_time", False, q.BAD_TIMESTAMP, "is not a timestamp"),
            ("deployed_at", True, q.BAD_TIMESTAMP, "is not a timestamp"),
            ("hostname", [1, 2], q.BAD_JSON, "is not a string"),
            ("host_idc", [], q.BAD_JSON, "is not a string"),
            ("error_detail", {"a": 1}, q.BAD_JSON, "is not a string"),
            ("operator_id", ["op"], q.BAD_JSON, "is not a string"),
            ("fot_id", 2.5, q.BAD_NUMBER, "is not an integer"),
            ("host_id", 7.9, q.BAD_NUMBER, "is not an integer"),
            ("error_position", 3.25, q.BAD_NUMBER, "is not an integer"),
        ],
    )
    def test_skipped(self, field, value, error_class, text):
        numbered = list(enumerate([_clean(), dict(_clean(), **{field: value}), _clean()], 1))
        ref, _ = parse_records(numbered, strict=False)
        assert len(ref) == 3  # the reference coerced it
        message = f"{field}: {value!r} {text}"
        dataset, report = core_io.parse_records(numbered, strict=False)
        assert len(dataset) == report.n_loaded == 2
        assert [(s.line, s.error_class, s.field, s.message) for s in report.skips] == [
            (2, error_class, field, message)
        ]
        with pytest.raises(ValueError) as info:
            core_io.parse_records(numbered, strict=True)
        assert str(info.value) == f"line 2: malformed ticket record: {message}"

    def test_error_time_true_with_blank_op_time(self):
        record = dict(_clean(), error_time=True, op_time="")
        _, report = core_io.parse_records([(1, record)], strict=False)
        assert [s.message for s in report.skips] == ["error_time: True is not a timestamp"]

    @pytest.mark.parametrize("field,value", [
        ("device_slot", False), ("error_detail", []), ("operator_id", {}), ("action", False),
    ])
    def test_falsy_value_in_falsy_field_is_absent(self, field, value):
        dataset, report = core_io.parse_records(
            [(1, dict(_clean(), **{field: value}))], strict=False
        )
        assert report.clean and len(dataset) == 1

    def test_true_slot_is_defaulted(self):
        record = dict(_clean(), device_slot=True)
        dataset, report = core_io.parse_records([(1, record)], strict=False)
        assert dataset.store.column("device_slots").tolist() == [0]
        assert [(r.repair, r.field, r.original) for r in report.repairs] == [
            (q.SLOT_DEFAULTED, "device_slot", "True")
        ]
        with pytest.raises(ValueError, match="^line 1: malformed ticket record: "
                           "device_slot: True is not an integer$"):
            core_io.parse_records([(1, record)], strict=True)

    def test_fractional_slot_is_defaulted(self):
        record = dict(_clean(), device_slot=1.5)
        ref, _ = parse_records([(1, record)], strict=False)
        assert ref.store.column("device_slots").tolist() == [1]  # the reference truncated it
        dataset, report = core_io.parse_records([(1, record)], strict=False)
        assert dataset.store.column("device_slots").tolist() == [0]
        assert [(r.repair, r.field, r.original) for r in report.repairs] == [
            (q.SLOT_DEFAULTED, "device_slot", "1.5")
        ]
        with pytest.raises(ValueError, match="^line 1: malformed ticket record: "
                           "device_slot: 1.5 is not an integer$"):
            core_io.parse_records([(1, record)], strict=True)

    @pytest.mark.parametrize("field", ["fot_id", "host_id", "error_position", "device_slot"])
    def test_fractional_number_among_clean_rows(self, field):
        """The column pass finds the one fractional number of a column
        whose values are all above 1."""
        records = [dict(_clean(), fot_id=100 + i, host_id=50 + i, error_position=3 + i % 5,
                        device_slot=2 + i % 3) for i in range(40)]
        records[17][field] = records[17][field] + 0.5
        dataset, report = core_io.parse_records(list(enumerate(records, 1)), strict=False)
        value = records[17][field]
        if field == "device_slot":
            assert [(r.line, r.repair, r.original) for r in report.repairs] == [
                (18, q.SLOT_DEFAULTED, str(value))
            ]
            assert len(dataset) == 40
        else:
            assert [(s.line, s.message) for s in report.skips] == [
                (18, f"{field}: {value!r} is not an integer")
            ]
            assert len(dataset) == 39

    def test_number_in_string_field_still_loads(self):
        dataset, report = core_io.parse_records([(1, dict(_clean(), hostname=123))], strict=False)
        assert report.clean and dataset.store.column("hostnames").tolist() == ["123"]
