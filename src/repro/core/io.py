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
import math
import os
import tempfile
from datetime import datetime, timezone
from enum import Enum
from functools import lru_cache, partial
from itertools import compress, islice
from operator import itemgetter
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Literal,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    TextIO,
    Tuple,
    Union,
    cast,
    overload,
)

import numpy as np

from repro.core.columns import (
    BLANK,
    FALSY,
    FIELDS,
    REQUIRED,
    SCHEMA,
    ColumnBuilder,
    Field,
)
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
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from repro.robustness import quarantine as q
from repro.robustness.quarantine import QuarantineReport, RowError

#: The columns of a CSV dump: every field with a flat text form (all
#: but the ``detail`` dict).
CSV_FIELDS = [field.name for field in SCHEMA if field.text != "object"]

#: Columns a CSV dump may omit entirely in quarantining mode — fields the
#: parser treats as optional (open tickets carry no action/op_time).
OPTIONAL_CSV_FIELDS = frozenset(
    field.name for field in SCHEMA if field.absent != REQUIRED and field.name in CSV_FIELDS
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
#: Records a repair of one line: ``(repair, field, original, fixed)``,
#: the report's ``record_repair`` bound to the line.  ``None`` stands for
#: strict mode.
_Repairs = Callable[[str, str, object, object], None]


class _OutOfRange(RowError):
    """An integer its column cannot hold: always a skip, never a repair."""

    def __init__(self, field: str, value: object) -> None:
        super().__init__(q.BAD_NUMBER, f"{field}: {value!r} is out of range", field)


@lru_cache(maxsize=None)
def _bounds(field: Field) -> Tuple[int, int]:
    """The range of the integers ``field``'s column holds."""
    info = np.iinfo(field.dtype)
    return int(info.min), int(info.max)


def _parse_int(value: object, field: Field, repairs: Optional[_Repairs]) -> int:
    number: Optional[int] = None
    try:
        number = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        try:
            as_float = float(value)  # type: ignore[arg-type]
            if as_float.is_integer():
                number = int(as_float)
        except (TypeError, ValueError):
            pass
    except OverflowError:  # int() of an infinite float
        raise _OutOfRange(field.name, value) from None
    # JSON true/false is no number, and int() truncates a fractional float
    if number is None or isinstance(value, bool) or (isinstance(value, float) and value != number):
        raise RowError(q.BAD_NUMBER, f"{field.name}: {value!r} is not an integer", field.name)
    low, high = _bounds(field)
    if not low <= number <= high:
        raise _OutOfRange(field.name, value)
    return number


def _parse_enum(value: object, field: Field, repairs: Optional[_Repairs]) -> Enum:
    by_value = {member.value: member for member in field.order}
    text = str(value)
    if text in by_value:
        return by_value[text]
    enum_cls = type(field.order[0])
    if repairs is not None:  # the normalized label, else its alias
        aliases, repair_kind = _ENUM_ALIASES[enum_cls]
        key = _norm_label(text)
        fixed = by_value.get(key) or aliases.get(key)
        if fixed is not None:
            repairs(repair_kind, field.name, text, fixed.value)
            return fixed
    raise RowError(
        q.BAD_ENUM, f"{field.name}: {text!r} is not a valid {enum_cls.__name__}", field.name
    )


def _parse_timestamp(value: object, field: Field, repairs: Optional[_Repairs]) -> float:
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError, OverflowError):  # overflow: an int past 1e308
        seconds = math.nan
    # NaN, +-Infinity and JSON true/false are no point in time
    if math.isfinite(seconds) and not isinstance(value, bool):
        return seconds
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
            repairs(q.TIMESTAMP_COERCED, field.name, value, seconds)
            return seconds
    raise RowError(
        q.BAD_TIMESTAMP, f"{field.name}: {value!r} is not a timestamp", field.name
    )


def _parse_str(value: object, field: Field, repairs: Optional[_Repairs]) -> str:
    if isinstance(value, (list, dict)):
        raise RowError(q.BAD_JSON, f"{field.name}: {value!r} is not a string", field.name)
    return str(value)


def _parse_object(value: object, field: Field, repairs: Optional[_Repairs]) -> dict:
    if not isinstance(value, dict):
        raise RowError(q.BAD_JSON, f"{field.name}: {value!r} is not a JSON object", field.name)
    return dict(value)


#: Per text kind (:attr:`Field.text`): the conversion its row parser
#: tries first, made for a field, and the row parser.  The conversion
#: fails wherever the row parser would repair or reject a value (an
#: enum lookup misses a non-string), so only those rows need the parser;
#: the values it takes that the parser rejects are :data:`_REJECTED`.
_KINDS: Dict[str, Tuple[Callable[[Field], Callable[[Any], Any]], Callable[..., Any]]] = {
    "int": (lambda field: int, _parse_int),
    "time": (lambda field: float, _parse_timestamp),
    "str": (lambda field: str, _parse_str),
    "enum": (
        lambda field: {member.value: member for member in field.order}.__getitem__,
        _parse_enum,
    ),
    "object": (lambda field: partial(_parse_object, field=field, repairs=None), _parse_object),
}


def _parse_value(
    record: Dict[str, object], field: Field, repairs: Optional[_Repairs]
) -> object:
    """``field`` of ``record``, by the field's absent-value rule and then
    its row parser."""
    value = record.get(field.name)
    if (not value) if field.absent == FALSY else value in ("", None):
        if field.absent == REQUIRED:
            raise RowError(
                q.MISSING_FIELD, f"missing required field {field.name!r}", field.name
            )
        return field.default()
    return _KINDS[field.text][1](value, field, repairs)


def _parse_fields(
    record: Dict[str, object], repairs: Optional[_Repairs]
) -> Dict[str, object]:
    """Parse one record into validated FOT field values, raising
    :class:`RowError` on any unrecoverable defect.  With ``repairs`` set
    (quarantining mode) the recoverable defects are repaired in place
    and recorded.  The row path behind the column pass of
    :func:`parse_records`: it sees only the rows that pass rejects.

    ``error_time`` comes first, then ``op_time`` against it, then
    ``device_slot``, then the other fields in ``FOT`` order: that order
    decides which defect of a row is reported and which repairs it
    records before that."""
    error_time = cast(float, _parse_value(record, FIELDS["error_time"], repairs))
    if error_time < 0:
        raise RowError(
            q.NEGATIVE_TIME, f"error_time: {error_time!r} is negative", "error_time"
        )

    op_time = cast(Optional[float], _parse_value(record, FIELDS["op_time"], repairs))
    if op_time is not None and op_time < error_time:
        if repairs is not None:
            repairs(q.OP_TIME_DROPPED, "op_time", op_time, "")
            op_time = None
        else:
            raise RowError(
                q.INCONSISTENT_TIMES,
                f"op_time {op_time!r} precedes error_time {error_time!r}",
                "op_time",
            )

    try:
        device_slot = _parse_value(record, FIELDS["device_slot"], repairs)
    except RowError as exc:
        if repairs is None or isinstance(exc, _OutOfRange):
            raise
        repairs(q.SLOT_DEFAULTED, "device_slot", record["device_slot"], 0)
        device_slot = 0

    fields = {"error_time": error_time, "op_time": op_time, "device_slot": device_slot}
    for field in SCHEMA:
        if field.name not in fields:
            fields[field.name] = _parse_value(record, field, repairs)
    return fields


# ----------------------------------------------------------------------
# the column pass
# ----------------------------------------------------------------------
#: Records per column pass over lazily read input, and rows per save
#: chunk.  Small enough that freshly decoded records seldom live through
#: a garbage collection (CPython collects every 700 net container
#: allocations); at 4,096 that made JSONL loads slower than row by row.
_CHUNK = 128

_CONVERSION_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
_Column = Callable[[Sequence[Any]], List[Any]]


def _whole_column(field: Field) -> _Column:
    """The first conversion of ``field`` over a whole column, with the
    field's absent-value rule.  A missing required value fails."""
    convert, default = _KINDS[field.text][0](field), field.default
    empty = default()
    if field.absent == FALSY and empty.__hash__ is None:  # mutable: a fresh one per row
        return lambda values: [convert(v) if v else default() for v in values]
    if field.absent == FALSY:
        return lambda values: [convert(v) if v else empty for v in values]
    if field.absent == BLANK:
        return lambda values: [empty if v in ("", None) else convert(v) for v in values]
    if field.text != "str":  # int(), float() and the enum lookup reject "" and None
        return lambda values: list(map(convert, values))

    def strings(values: Sequence[Any]) -> List[Any]:
        if not all(values) and (None in values or "" in values):
            raise ValueError("missing")
        return list(map(convert, values))

    return strings


_WHOLE_COLUMNS = [(field, _whole_column(field)) for field in SCHEMA]

def _always(value: object) -> bool:
    return True


#: Per text kind, the JSON value types its first conversion takes but its
#: row parser may reject, each with a test for the values it rejects:
#: true/false as a number, a fractional number as an integer (``int()``
#: truncates it), an array or object as a string.
_REJECTED: Dict[str, Dict[type, Callable[[Any], bool]]] = {
    "int": {bool: _always, float: lambda value: not value.is_integer()},
    "time": {bool: _always},
    "str": {list: _always, dict: _always},
}


def _rejected_rows(field: Field, given: Sequence[Any]) -> List[int]:
    """The rows of ``field``'s raw column holding a value
    :data:`_REJECTED` rejects, by one set of the column's types; a falsy
    value in a ``FALSY`` field is absent, whatever its type."""
    tests = _REJECTED[field.text]
    if set(map(type, given)).isdisjoint(tests):
        return []
    return [
        i for i, value in enumerate(given)
        if type(value) in tests and tests[type(value)](value) and (value or field.absent != FALSY)
    ]


def _convert(values: Sequence[object], convert: _Column, bad: Set[int]) -> List[object]:
    """``convert`` over one column.  The positions of the values it
    rejects go into ``bad`` and hold 0."""
    try:
        return convert(values)
    except _CONVERSION_ERRORS:
        pass
    out: List[object] = []
    for i, value in enumerate(values):
        try:
            out.extend(convert([value]))
        except _CONVERSION_ERRORS:
            bad.add(i)
            out.append(0)
    return out


def _column_pass(records: List[object]) -> Tuple[Dict[str, List[object]], List[int]]:
    """Convert a run of records column by column.  Returns the columns
    and, in order, the rows they hold placeholders for: a conversion or
    a bound failed, or :func:`_parse_fields` would repair the row."""
    rows = [record if isinstance(record, dict) else {} for record in records]
    raw: Dict[str, Sequence[Any]]
    try:
        raw = dict(zip(CSV_FIELDS, zip(*map(itemgetter(*CSV_FIELDS), rows))))
    except KeyError:  # a record lacks a field
        raw = {field: [row.get(field) for row in rows] for field in CSV_FIELDS}
    raw["detail"] = [row.get("detail") for row in rows]
    bad: Set[int] = set()
    columns = {
        field.name: _convert(raw[field.name], convert, bad)
        for field, convert in _WHOLE_COLUMNS
    }
    stamps = {
        field.name: np.asarray(columns[field.name], dtype=np.float64)  # None -> nan
        for field in SCHEMA
        if field.text == "time"
    }
    error_times, op_times = stamps["error_time"], stamps["op_time"]
    flagged = (error_times < 0) | (op_times < error_times)
    for field in SCHEMA:
        given = raw.get(field.name, ())
        if field.text == "time":
            times = cast(List[Optional[float]], columns[field.name])
            # a sum is finite unless a value is nan or infinite (or it overflows)
            if not math.isfinite(sum(filter(None, times))):
                present = np.not_equal(times, None)  # an absent op_time is no defect
                flagged |= ~np.isfinite(stamps[field.name]) & present
            if ((stamps[field.name] == 0) | (stamps[field.name] == 1)).any():
                bad.update(_rejected_rows(field, given))  # a bool converts to 0 or 1
        elif field.text == "int":
            ints = cast(List[int], columns[field.name])
            low, high = _bounds(field)
            lowest = min(ints)
            if lowest < low or max(ints) > high:
                flagged |= np.asarray([not low <= v <= high for v in ints])
            # a bool converts to 0 or 1; a fractional float to an int it is not equal to
            if lowest <= 1 or ints != list(given):
                bad.update(_rejected_rows(field, given))
        elif field.text == "str":
            try:
                "".join(given)  # a column of strings holds no array or object
            except TypeError:
                bad.update(_rejected_rows(field, given))
    bad.update(np.flatnonzero(flagged).tolist())
    return columns, sorted(bad)


def _parse_row(
    line_no: int, record: object, report: Optional[QuarantineReport]
) -> Optional[Dict[str, object]]:
    """One record through :func:`_parse_fields`: its fields, or ``None``
    once quarantined (strict mode, ``report=None``, raises instead)."""
    if not isinstance(record, dict):
        error = record if isinstance(record, json.JSONDecodeError) else None
        message = "record is not a JSON object" if error is None else f"invalid JSON: {error}"
        if report is None:
            raise ValueError(f"line {line_no}: {message}") from error
        report.record_skip(line_no, q.BAD_JSON, message)
        return None
    try:
        repairs = None if report is None else partial(report.record_repair, line_no)
        return _parse_fields(record, repairs)
    except (KeyError, TypeError, ValueError) as exc:
        if report is None:
            raise ValueError(f"line {line_no}: malformed ticket record: {exc}") from exc
        if isinstance(exc, RowError):
            report.record_skip(line_no, exc.error_class, str(exc), exc.field)
        else:
            report.record_skip(line_no, q.BAD_NUMBER, str(exc))
    return None


def _parse_chunk(
    chunk: List[Tuple[int, object]],
    builder: ColumnBuilder,
    report: Optional[QuarantineReport],
) -> None:
    """Parse a run of ``(line, record)`` pairs into ``builder``: the
    column pass, then :func:`_parse_row` for its rejects, in line order."""
    records = [record for _, record in chunk]
    columns, bad = _column_pass(records)
    if bad:
        keep = [True] * len(records)
        for i in bad:
            fields = _parse_row(chunk[i][0], records[i], report)
            if fields is None:
                keep[i] = False
                continue
            for name, value in fields.items():
                columns[name][i] = value
        if not all(keep):
            columns = {name: list(compress(values, keep)) for name, values in columns.items()}
    builder.extend(**columns)


@overload
def parse_records(
    numbered: Iterable[Tuple[int, object]],
    *,
    strict: Literal[True] = ...,
    source: str = ...,
    report: Optional[QuarantineReport] = ...,
) -> FOTDataset: ...


@overload
def parse_records(
    numbered: Iterable[Tuple[int, object]],
    *,
    strict: Literal[False],
    source: str = ...,
    report: Optional[QuarantineReport] = ...,
) -> LoadResult: ...


def parse_records(
    numbered: Iterable[Tuple[int, object]],
    *,
    strict: bool = True,
    source: str = "<records>",
    report: Optional[QuarantineReport] = None,
) -> Union[FOTDataset, LoadResult]:
    """Parse ``(line_number, record)`` pairs into a dataset.

    Strict mode raises on the first defect; quarantining mode skips the
    defective line, records it, and keeps going.  A record that is not
    a dict is a ``bad_json`` defect (a :class:`json.JSONDecodeError` in
    its place stands for a line that did not parse).  Pass ``report`` to
    accumulate into an existing :class:`QuarantineReport`.

    Records are converted column by column, a list in one pass and lazy
    input :data:`_CHUNK` at a time; the rows that pass rejects go
    through :func:`_parse_fields` in line order, so every repair, skip
    and message is the row parser's.  An exception raised by
    ``numbered`` surfaces after the records before it are parsed.
    """
    if report is None:
        report = QuarantineReport(source)
    builder = ColumnBuilder()
    size = max(len(numbered), 1) if isinstance(numbered, (list, tuple)) else _CHUNK
    pairs = iter(numbered)
    while True:
        chunk: List[Tuple[int, object]] = []
        failure: Optional[Exception] = None
        try:
            chunk.extend(islice(pairs, size))
        except Exception as exc:  # raised once the rows before it are parsed
            failure = exc
        if chunk:
            _parse_chunk(chunk, builder, None if strict else report)
        if failure is not None:
            raise failure
        if len(chunk) < size:
            break
    report.n_loaded += len(builder)
    dataset = FOTDataset.from_store(builder.build())
    if strict:
        return dataset
    return LoadResult(dataset, report)


# ----------------------------------------------------------------------
# records from columns (the save side)
# ----------------------------------------------------------------------
def iter_records(
    dataset: FOTDataset, *, include_detail: bool = True
) -> Iterator[Dict[str, object]]:
    """Each ticket's raw record, as :func:`save_jsonl` and :func:`save_csv`
    write it (absent action, operator or ``op_time`` as ``""``), built
    from the columns :data:`_CHUNK` rows at a time: no ticket is built."""
    store = dataset.store
    fields = [field for field in SCHEMA if include_detail or field.name in CSV_FIELDS]
    names = [field.name for field in fields]
    labels: List[Optional[List[object]]] = []  # what each code decodes to
    for field in fields:
        if field.order:
            values: List[object] = [member.value for member in field.order]
        elif field.table:
            values = [*store.table(field.table)]
        else:
            labels.append(None)
            continue
        labels.append(values if field.absent == REQUIRED else [*values, ""])  # -1 -> ""
    for start in range(0, len(dataset), _CHUNK):
        columns = []
        for field, decoded in zip(fields, labels):
            values = dataset._col(field.column)[start:start + _CHUNK].tolist()
            if decoded is not None:
                values = list(map(decoded.__getitem__, values))
            elif field.absent == BLANK:
                values = ["" if v != v else v for v in values]  # nan -> ""
            columns.append(values)
        for row in zip(*columns):
            yield dict(zip(names, row))


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
    write_jsonl_records(iter_records(dataset), path)


def _iter_jsonl(path: Path) -> Iterator[Tuple[int, object]]:
    """``(line, record)`` per non-blank line; the record of a line that
    is not JSON is its :class:`json.JSONDecodeError`."""
    with contextlib.closing(_open_read(path)) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record: object = json.loads(line)
            except json.JSONDecodeError as exc:
                record = exc
            yield line_no, record


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
    raising on malformed lines; a line that is not JSON, or not a JSON
    object, is a ``bad_json`` skip.
    """
    path = Path(path)
    if strict:
        return parse_records(_iter_jsonl(path), strict=True, source=str(path))
    return parse_records(_iter_jsonl(path), strict=False, source=str(path))


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
    write_csv_records(iter_records(dataset, include_detail=False), path)


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
    "iter_records",
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
