"""Serialization of FOT datasets.

Three formats are supported.  The text formats, each optionally
gzip-compressed (``.jsonl.gz`` / ``.csv.gz``), are for interchange:

* **JSONL** — one JSON object per ticket, lossless (including the
  free-form ``detail`` dict).
* **CSV** — flat columns matching the paper's field names, for loading a
  real ticket dump into the toolkit; the ``detail`` dict is dropped.

The native format is **columnar** (a ``.fourcol`` directory, see
:mod:`repro.core.storage`): content-addressed binary column blobs under
a versioned manifest, loaded by memory-mapping rather than parsing, so
open time is near-constant in dataset size.  ``fouryears convert``
turns a text dump into a columnar dataset once; analyses then open it
in milliseconds.

Loading has two modes:

* **strict (default)** — validate every field and raise ``ValueError``
  with the offending line number, so a malformed real-world dump fails
  loudly instead of skewing statistics.
* **quarantining** (``strict=False``) — route malformed lines and
  applied repairs (timestamp coercion, category/component aliasing,
  dropped inconsistent ``op_time``) into a
  :class:`~repro.robustness.quarantine.QuarantineReport` and return it
  alongside the dataset as a :class:`LoadResult`.  Every input line is
  accounted for: it is either a loaded ticket or a quarantine entry.

All ``save*`` functions are crash-safe: they write to a temporary file
in the destination directory and atomically rename, so an interrupted
``fouryears simulate`` never leaves a truncated dump behind.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import io as _stdio
import json
import os
import tempfile
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    Literal,
    NamedTuple,
    Optional,
    TextIO,
    Tuple,
    Type,
    TypeVar,
    Union,
    overload,
)

from repro.core.columns import ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.storage import (
    COLUMNAR_SUFFIX,
    StorageError,
    StorageFormatError,
    StorageIntegrityError,
    StorageVersionError,
    is_columnar,
    load_columnar,
    save_columnar,
)
from repro.core.ticket import FOT
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from repro.robustness import quarantine as q
from repro.robustness.quarantine import QuarantineReport, RowError

CSV_FIELDS = [
    "fot_id",
    "host_id",
    "hostname",
    "host_idc",
    "error_device",
    "error_type",
    "error_time",
    "error_position",
    "error_detail",
    "category",
    "source",
    "product_line",
    "deployed_at",
    "device_slot",
    "action",
    "operator_id",
    "op_time",
]

#: Columns a CSV dump may omit entirely in quarantining mode — fields the
#: FOT schema treats as optional (open tickets carry no action/op_time).
OPTIONAL_CSV_FIELDS = frozenset(
    ["error_detail", "device_slot", "action", "operator_id", "op_time"]
)

SUPPORTED_SUFFIXES = (".jsonl", ".csv", ".jsonl.gz", ".csv.gz", COLUMNAR_SUFFIX)


class LoadResult(NamedTuple):
    """What a quarantining (``strict=False``) load returns."""

    dataset: FOTDataset
    quarantine: QuarantineReport


# ----------------------------------------------------------------------
# alias tables for quarantining repairs
# ----------------------------------------------------------------------
def _norm_label(text: str) -> str:
    return text.strip().lower().replace("-", "_").replace(" ", "_")


CATEGORY_ALIASES: Dict[str, FOTCategory] = {
    "fixing": FOTCategory.FIXING,
    "dfixing": FOTCategory.FIXING,
    "fix": FOTCategory.FIXING,
    "repair": FOTCategory.FIXING,
    "repaired": FOTCategory.FIXING,
    "error": FOTCategory.ERROR,
    "derror": FOTCategory.ERROR,
    "decommission": FOTCategory.ERROR,
    "decommissioned": FOTCategory.ERROR,
    "false_alarm": FOTCategory.FALSE_ALARM,
    "falsealarm": FOTCategory.FALSE_ALARM,
    "dfalsealarm": FOTCategory.FALSE_ALARM,
    "d_false_alarm": FOTCategory.FALSE_ALARM,
    "fa": FOTCategory.FALSE_ALARM,
}

COMPONENT_ALIASES: Dict[str, ComponentClass] = {
    "disk": ComponentClass.HDD,
    "hard_disk": ComponentClass.HDD,
    "hard_drive": ComponentClass.HDD,
    "harddisk": ComponentClass.HDD,
    "harddrive": ComponentClass.HDD,
    "sata": ComponentClass.HDD,
    "solid_state_drive": ComponentClass.SSD,
    "nvme": ComponentClass.SSD,
    "raid": ComponentClass.RAID_CARD,
    "raidcard": ComponentClass.RAID_CARD,
    "flash": ComponentClass.FLASH_CARD,
    "flashcard": ComponentClass.FLASH_CARD,
    "mem": ComponentClass.MEMORY,
    "dimm": ComponentClass.MEMORY,
    "dram": ComponentClass.MEMORY,
    "ram": ComponentClass.MEMORY,
    "mainboard": ComponentClass.MOTHERBOARD,
    "mobo": ComponentClass.MOTHERBOARD,
    "system_board": ComponentClass.MOTHERBOARD,
    "processor": ComponentClass.CPU,
    "cooling_fan": ComponentClass.FAN,
    "psu": ComponentClass.POWER,
    "power_supply": ComponentClass.POWER,
    "backboard": ComponentClass.HDD_BACKBOARD,
    "hdd_back_board": ComponentClass.HDD_BACKBOARD,
    "misc": ComponentClass.MISC,
    "manual": ComponentClass.MISC,
    "other": ComponentClass.MISC,
}

SOURCE_ALIASES: Dict[str, DetectionSource] = {
    "log": DetectionSource.SYSLOG,
    "sys_log": DetectionSource.SYSLOG,
    "poll": DetectionSource.POLLING,
    "polling_agent": DetectionSource.POLLING,
    "human": DetectionSource.MANUAL,
    "operator": DetectionSource.MANUAL,
    "manual_report": DetectionSource.MANUAL,
}

ACTION_ALIASES: Dict[str, OperatorAction] = {
    "ro": OperatorAction.REPAIR_ORDER,
    "repair": OperatorAction.REPAIR_ORDER,
    "repairorder": OperatorAction.REPAIR_ORDER,
    "decom": OperatorAction.DECOMMISSION,
    "decommissioned": OperatorAction.DECOMMISSION,
    "false_alarm": OperatorAction.MARK_FALSE_ALARM,
    "falsealarm": OperatorAction.MARK_FALSE_ALARM,
    "markfalsealarm": OperatorAction.MARK_FALSE_ALARM,
}

_ENUM_ALIASES = {
    FOTCategory: (CATEGORY_ALIASES, q.CATEGORY_ALIASED),
    ComponentClass: (COMPONENT_ALIASES, q.COMPONENT_ALIASED),
    DetectionSource: (SOURCE_ALIASES, q.SOURCE_ALIASED),
    OperatorAction: (ACTION_ALIASES, q.ACTION_ALIASED),
}


# ----------------------------------------------------------------------
# field parsers (raise RowError with a stable error class)
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


_E = TypeVar("_E", bound=Enum)


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


def _build_ticket(record: Dict[str, object], repairs: Optional[_Repairs]) -> FOT:
    """Parse one record into an FOT (single-ticket convenience path)."""
    return FOT(**_parse_fields(record, repairs))  # type: ignore[arg-type]


def _record_to_ticket(record: Dict[str, object], line: int) -> FOT:
    """Strict single-record parse (kept for backwards compatibility)."""
    try:
        return _build_ticket(record, repairs=None)
    except RowError as exc:
        raise ValueError(f"line {line}: malformed ticket record: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"line {line}: malformed ticket record: {exc}") from exc


@overload
def parse_records(
    numbered: Iterable[Tuple[int, Dict[str, object]]],
    *,
    strict: Literal[True] = ...,
    source: str = ...,
    report: Optional[QuarantineReport] = ...,
) -> FOTDataset: ...


@overload
def parse_records(
    numbered: Iterable[Tuple[int, Dict[str, object]]],
    *,
    strict: Literal[False],
    source: str = ...,
    report: Optional[QuarantineReport] = ...,
) -> LoadResult: ...


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


# ----------------------------------------------------------------------
# suffix dispatch and (de)compression
# ----------------------------------------------------------------------
def _format_of(path: Path) -> str:
    """The logical format (``.jsonl`` / ``.csv`` / ``.fourcol``) behind
    a path, looking through a trailing ``.gz``.  A directory that holds
    a columnar manifest counts as columnar regardless of its name."""
    suffixes = path.suffixes
    if suffixes and suffixes[-1] == ".gz":
        base = suffixes[-2] if len(suffixes) >= 2 else ""
    else:
        base = suffixes[-1] if suffixes else ""
    if base == COLUMNAR_SUFFIX or is_columnar(path):
        return COLUMNAR_SUFFIX
    if base in (".jsonl", ".csv"):
        return base
    hint = " (did you mean '.jsonl'?)" if base == ".json" else ""
    raise ValueError(
        f"unsupported dataset format: {path.suffix!r}{hint}; "
        f"supported suffixes: {', '.join(SUPPORTED_SUFFIXES)}"
    )


def _is_gzip(path: Path) -> bool:
    return path.suffix == ".gz"


def _open_read(path: Path) -> TextIO:
    if _is_gzip(path):
        return gzip.open(path, "rt", encoding="utf-8")
    return path.open("r", encoding="utf-8", newline="")


@contextlib.contextmanager
def _atomic_write(path: Path, newline: str) -> Iterator[TextIO]:
    """Crash-safe writer: stage into a temp file next to ``path`` and
    atomically rename on success, so readers never observe a truncated
    dump.  Gzip output is byte-deterministic (no mtime/name in header)."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        if _is_gzip(path):
            raw = os.fdopen(fd, "wb")
            try:
                gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                fh = _stdio.TextIOWrapper(gz, encoding="utf-8", newline=newline)
                try:
                    yield fh
                finally:
                    fh.flush()
                    fh.detach()
                    gz.close()
            finally:
                raw.close()
        else:
            fh = os.fdopen(fd, "w", encoding="utf-8", newline=newline)
            try:
                yield fh
            finally:
                fh.close()
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl_records(records: Iterable[Dict[str, object]], path: Union[str, Path]) -> None:
    """Write raw record dicts as JSONL (atomic; used by the chaos
    harness to emit corrupted dumps the loaders can chew on)."""
    with _atomic_write(Path(path), newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=False))
            fh.write("\n")


def save_jsonl(dataset: FOTDataset, path: Union[str, Path]) -> None:
    """Write one JSON object per ticket (lossless)."""
    write_jsonl_records(
        (_ticket_to_record(t, include_detail=True) for t in dataset), path
    )


def _iter_jsonl(
    path: Path, report: Optional[QuarantineReport]
) -> Iterator[Tuple[int, Dict[str, object]]]:
    with contextlib.closing(_open_read(path)) as fh:
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


@overload
def load_jsonl(
    path: Union[str, Path], *, strict: Literal[True] = ...
) -> FOTDataset: ...


@overload
def load_jsonl(path: Union[str, Path], *, strict: Literal[False]) -> LoadResult: ...


def load_jsonl(
    path: Union[str, Path], *, strict: bool = True
) -> Union[FOTDataset, LoadResult]:
    """Load a JSONL ticket dump written by :func:`save_jsonl`.

    With ``strict=False``, returns ``(dataset, quarantine)`` instead of
    raising on malformed lines.
    """
    path = Path(path)
    if strict:
        return parse_records(_iter_jsonl(path, None), strict=True, source=str(path))
    report = QuarantineReport(str(path))
    return parse_records(
        _iter_jsonl(path, report), strict=False, source=str(path), report=report
    )


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------
def write_csv_records(records: Iterable[Dict[str, object]], path: Union[str, Path]) -> None:
    """Write raw record dicts as CSV (atomic; ``detail`` is dropped)."""
    with _atomic_write(Path(path), newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=CSV_FIELDS, restval="", extrasaction="ignore"
        )
        writer.writeheader()
        for record in records:
            writer.writerow(record)


def save_csv(dataset: FOTDataset, path: Union[str, Path]) -> None:
    """Write a flat CSV (drops the ``detail`` dict)."""
    write_csv_records(
        (_ticket_to_record(t, include_detail=False) for t in dataset), path
    )


@overload
def load_csv(
    path: Union[str, Path], *, strict: Literal[True] = ...
) -> FOTDataset: ...


@overload
def load_csv(path: Union[str, Path], *, strict: Literal[False]) -> LoadResult: ...


def load_csv(
    path: Union[str, Path], *, strict: bool = True
) -> Union[FOTDataset, LoadResult]:
    """Load a CSV ticket dump written by :func:`save_csv` (or a real
    dump exported with the same column names).

    With ``strict=False``, returns ``(dataset, quarantine)``; columns in
    :data:`OPTIONAL_CSV_FIELDS` may then be absent entirely.
    """
    path = Path(path)
    with contextlib.closing(_open_read(path)) as fh:
        reader = csv.DictReader(fh)
        missing = set(CSV_FIELDS) - set(reader.fieldnames or [])
        if not strict:
            missing -= OPTIONAL_CSV_FIELDS
        if missing:
            raise ValueError(f"CSV is missing columns: {sorted(missing)}")
        numbered = ((line_no, row) for line_no, row in enumerate(reader, start=2))
        if strict:
            return parse_records(numbered, strict=True, source=str(path))
        return parse_records(numbered, strict=False, source=str(path))


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
def save(dataset: FOTDataset, path: Union[str, Path]) -> None:
    """Dispatch on file suffix (``.jsonl[.gz]`` / ``.csv[.gz]`` /
    ``.fourcol``)."""
    path = Path(path)
    fmt = _format_of(path)
    if fmt == COLUMNAR_SUFFIX:
        save_columnar(dataset, path)
    elif fmt == ".jsonl":
        save_jsonl(dataset, path)
    else:
        save_csv(dataset, path)


@overload
def load(path: Union[str, Path], *, strict: Literal[True] = ...) -> FOTDataset: ...


@overload
def load(path: Union[str, Path], *, strict: Literal[False]) -> LoadResult: ...


def load(
    path: Union[str, Path], *, strict: bool = True
) -> Union[FOTDataset, LoadResult]:
    """Dispatch on file suffix (``.jsonl[.gz]`` / ``.csv[.gz]`` /
    ``.fourcol``).

    Columnar datasets are validated structurally at write time, so
    ``strict=False`` simply returns an empty quarantine report alongside
    the dataset — a corrupt columnar file raises a typed
    :class:`~repro.core.storage.StorageError` in either mode.
    """
    path = Path(path)
    fmt = _format_of(path)
    if fmt == COLUMNAR_SUFFIX:
        dataset = load_columnar(path)
        if strict:
            return dataset
        report = QuarantineReport(str(path))
        report.n_loaded = len(dataset)
        return LoadResult(dataset, report)
    if fmt == ".jsonl":
        return load_jsonl(path) if strict else load_jsonl(path, strict=False)
    return load_csv(path) if strict else load_csv(path, strict=False)


def write_records(records: Iterable[Dict[str, object]], path: Union[str, Path]) -> None:
    """Write raw record dicts, dispatching on file suffix — the chaos
    harness's output path (records may be deliberately malformed)."""
    path = Path(path)
    fmt = _format_of(path)
    if fmt == COLUMNAR_SUFFIX:
        raise ValueError(
            "raw record dicts cannot be written as columnar; parse them "
            "into a dataset first, then save_columnar()"
        )
    if fmt == ".jsonl":
        write_jsonl_records(records, path)
    else:
        write_csv_records(records, path)


__all__ = [
    "CSV_FIELDS",
    "OPTIONAL_CSV_FIELDS",
    "SUPPORTED_SUFFIXES",
    "COLUMNAR_SUFFIX",
    "LoadResult",
    "StorageError",
    "StorageFormatError",
    "StorageVersionError",
    "StorageIntegrityError",
    "is_columnar",
    "save_columnar",
    "load_columnar",
    "CATEGORY_ALIASES",
    "COMPONENT_ALIASES",
    "SOURCE_ALIASES",
    "ACTION_ALIASES",
    "parse_records",
    "save",
    "load",
    "save_jsonl",
    "load_jsonl",
    "save_csv",
    "load_csv",
    "write_jsonl_records",
    "write_csv_records",
    "write_records",
]
