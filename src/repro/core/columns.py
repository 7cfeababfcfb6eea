"""Columnar ticket storage — the struct-of-arrays substrate behind
:class:`~repro.core.dataset.FOTDataset`.

A :class:`ColumnStore` holds every ticket field as an immutable numpy
column: float64 timestamps, small integer codes for the categorical
enums (category / component / source / action), int-coded **interned
string tables** for the high-cardinality string fields (data center,
product line, failure type, operator id) and plain object columns for
the remaining per-ticket strings.  Datasets are *views* into a store
(index arrays), so filtering and grouping never copy tickets; the
:class:`~repro.core.ticket.FOT` dataclasses the public API hands out
are materialized lazily, one row at a time, and memoized.

:data:`SCHEMA` declares the ticket layout once, one :class:`Field` per
``FOT`` field.  The rest of ``repro.core`` derives what it knows of the
layout from it: the store's column and table names, the builder and
ticket materialization here, the per-column encodings of
:mod:`repro.core.storage`, and the CSV fields, integer ranges, parse
passes and decode tables of :mod:`repro.core.io`.

A store is built one way, :meth:`ColumnStore.from_columns`:
:class:`ColumnBuilder` (the loaders, the FMS pipeline and
``FOTDataset(tickets)``) converts field values to columns and hands
them over, and :mod:`repro.core.storage` hands over memory-mapped
buffers plus decoders for the columns it defers.

``ColumnStore.n_materialized`` counts on-demand materializations, so
tests can assert that subsetting and grouping allocate no tickets.
"""

from __future__ import annotations

import hashlib
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, cast

import numpy as np

from repro.core.grouping import distinct
from repro.core.ticket import FOT
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)

#: Storage encodings (:mod:`repro.core.storage`): raw dtype bytes,
#: offsets plus UTF-8 data, or one JSON object per row.
NUMERIC, VARSTR, JSONL = "numeric", "varstr", "jsonl"

#: Absent-value rules of the text parser.  ``""``, ``None`` or a missing
#: key is a ``missing_field`` defect in a ``REQUIRED`` field and gives a
#: ``BLANK`` field its default; in a ``FALSY`` field any falsy value does.
REQUIRED, BLANK, FALSY = "required", "blank", "falsy"

_I1, _I4, _I8, _F8 = (np.dtype(code) for code in ("|i1", "<i4", "<i8", "<f8"))
_OBJECT = np.dtype(object)


class Field(NamedTuple):
    """One ``FOT`` field: where the store keeps it and how text reads it."""

    #: The ``FOT`` field, which is also its key in a text record.
    name: str
    #: The store column that holds it.
    column: str
    #: The column's place in the store's layout (:data:`COLUMN_NAMES`):
    #: the order the content and schema fingerprints hash columns in, so
    #: every saved dataset depends on it.
    layout: int
    #: The column's dtype, little-endian whatever the host; object for
    #: per-ticket Python values.
    dtype: np.dtype
    #: How :mod:`repro.core.storage` writes the column.
    encoding: str
    #: How the text parser reads a present value (``int``, ``time``,
    #: ``str``, ``enum`` or ``object``); :mod:`repro.core.io` keeps one
    #: first conversion and one row parser per kind.
    text: str
    #: The enum members the int8 codes index, in declaration order.
    order: Tuple[Enum, ...] = ()
    #: The interned string table the int32 codes index.
    table: Optional[str] = None
    #: Which values the text parser treats as absent.
    absent: str = REQUIRED
    #: Makes the value of an absent optional field, fresh for each row.
    default: Callable[[], Any] = lambda: None


#: The ticket layout, in ``FOT`` declaration order.  Coded columns store
#: -1 for an absent (``None``) action or string.
SCHEMA: Tuple[Field, ...] = (
    Field("fot_id", "fot_ids", 0, _I8, NUMERIC, "int"),
    Field("host_id", "host_ids", 1, _I8, NUMERIC, "int"),
    Field("hostname", "hostnames", 11, _OBJECT, VARSTR, "str"),
    Field("host_idc", "idc_codes", 14, _I4, NUMERIC, "str", table="idc"),
    Field("error_device", "component_codes", 8, _I1, NUMERIC, "enum",
          order=tuple(ComponentClass)),
    Field("error_type", "error_type_codes", 16, _I4, NUMERIC, "str", table="error_type"),
    Field("error_time", "error_times", 2, _F8, NUMERIC, "time"),
    Field("error_position", "positions", 5, _I4, NUMERIC, "int"),
    Field("error_detail", "error_details", 12, _OBJECT, VARSTR, "str",
          absent=FALSY, default=str),
    Field("category", "category_codes", 7, _I1, NUMERIC, "enum", order=tuple(FOTCategory)),
    Field("source", "source_codes", 9, _I1, NUMERIC, "enum", order=tuple(DetectionSource)),
    Field("product_line", "product_line_codes", 15, _I4, NUMERIC, "str",
          table="product_line"),
    Field("deployed_at", "deployed_ats", 4, _F8, NUMERIC, "time"),
    Field("device_slot", "device_slots", 6, _I4, NUMERIC, "int", absent=FALSY, default=int),
    Field("action", "action_codes", 10, _I1, NUMERIC, "enum", order=tuple(OperatorAction),
          absent=FALSY),
    Field("operator_id", "operator_id_codes", 17, _I4, NUMERIC, "str", table="operator_id",
          absent=FALSY),
    Field("op_time", "op_times", 3, _F8, NUMERIC, "time", absent=BLANK),
    Field("detail", "details", 13, _OBJECT, JSONL, "object", absent=FALSY, default=dict),
)

#: :data:`SCHEMA` in store-layout order.
LAYOUT: Tuple[Field, ...] = tuple(sorted(SCHEMA, key=attrgetter("layout")))

COLUMN_NAMES: Tuple[str, ...] = tuple(field.column for field in LAYOUT)
TABLE_NAMES: Tuple[str, ...] = tuple(field.table for field in LAYOUT if field.table)

#: The ``FOT`` fields, in declaration order: the keywords of
#: :meth:`ColumnBuilder.append` and :meth:`ColumnBuilder.extend`.
FIELD_NAMES: Tuple[str, ...] = tuple(field.name for field in SCHEMA)

#: Each ``FOT`` field's row of :data:`SCHEMA`.
FIELDS: Dict[str, Field] = {field.name: field for field in SCHEMA}

#: Stable integer coding for the categorical columns.  Codes index into
#: these tuples; analyses rely on the ordering being enum-declaration
#: order, exactly as the row-first implementation did.
COMPONENT_ORDER = cast(Tuple[ComponentClass, ...], FIELDS["error_device"].order)
CATEGORY_ORDER = cast(Tuple[FOTCategory, ...], FIELDS["category"].order)
SOURCE_ORDER = cast(Tuple[DetectionSource, ...], FIELDS["source"].order)
ACTION_ORDER = cast(Tuple[OperatorAction, ...], FIELDS["action"].order)


def _codes(order: Sequence[Any]) -> Dict[Any, int]:
    return {member: code for code, member in enumerate(order)}


COMPONENT_CODE: Dict[ComponentClass, int] = _codes(COMPONENT_ORDER)
CATEGORY_CODE: Dict[FOTCategory, int] = _codes(CATEGORY_ORDER)
SOURCE_CODE: Dict[DetectionSource, int] = _codes(SOURCE_ORDER)
ACTION_CODE: Dict[OperatorAction, int] = _codes(ACTION_ORDER)

#: Member -> code per enum field; an optional one codes ``None`` as -1.
_ENUM_CODES: Dict[str, Dict[Any, int]] = {
    field.name: {**_codes(field.order), **({} if field.absent == REQUIRED else {None: -1})}
    for field in SCHEMA
    if field.order
}


def _column(field: Field, values: Sequence[Any]) -> np.ndarray:
    """The column of ``field`` (not an interned one) from its values."""
    if field.order:
        codes = _ENUM_CODES[field.name]
        return np.fromiter(map(codes.__getitem__, values), field.dtype, len(values))
    if field.dtype == _OBJECT:
        return np.fromiter(values, dtype=object, count=len(values))
    return np.asarray(values, dtype=field.dtype)


def _intern(values: Sequence[Any]) -> Tuple[np.ndarray, Tuple[str, ...]]:
    """Codes and table of a string column, interned in first-occurrence
    order; ``None`` is coded -1."""
    table = tuple(v for v in dict.fromkeys(values) if v is not None)
    index: Dict[Any, int] = {v: i for i, v in enumerate(table)}
    index[None] = -1
    codes = np.asarray(list(map(index.__getitem__, values)), dtype=np.int32)
    codes.setflags(write=False)
    return codes, table


def compute_fingerprint(store: "ColumnStore") -> str:
    """Content hash of a store, computed *fresh* (never memoized).

    Covers every numeric/code column (raw bytes), the interned string
    columns (as values, see below) and the plain string columns.  The
    free-form ``details`` dict column is deliberately **excluded**: it
    carries generator ground-truth (tags, chain ids) that no analysis
    reads, and hashing arbitrary dicts stably is not worth the cost.

    Interned columns are hashed *canonically*: the raw codes are an
    artifact of construction order (the generator, the JSONL loader and
    a shard concatenation all intern in different orders), so each codes
    column is remapped through the sorted set of its **used** values and
    hashed together with those values.  Two stores holding identical
    ticket content therefore share a fingerprint however they were
    built — which is what lets :class:`~repro.engine.cache.
    AnalysisCache` entries transfer between a text-loaded dataset and
    its columnar conversion.

    :meth:`ColumnStore.fingerprint` memoizes this; the runtime sanitizer
    (:mod:`repro.devtools.sanitize`) calls it directly to detect
    content drift behind a stale memo.
    """
    digest = hashlib.sha256()
    digest.update(str(store.n).encode())
    for field in LAYOUT:
        if field.encoding == JSONL:
            continue
        column = store.column(field.column)
        digest.update(field.column.encode())
        if field.table:
            table = store.table(field.table)
            used = sorted({table[int(code)] for code in distinct(column) if code >= 0})
            value_rank = {value: rank for rank, value in enumerate(used)}
            lookup = np.asarray(
                [value_rank.get(value, -1) for value in table], dtype=np.int64
            )
            if lookup.size:
                remapped = np.where(
                    column < 0, np.int64(-1), lookup[np.maximum(column, 0)]
                ).astype(np.int64)
            else:
                remapped = column.astype(np.int64)
            digest.update(remapped.tobytes())
            digest.update("\x1f".join(used).encode())
        elif column.dtype == object:
            for value in column:
                digest.update(str(value).encode())
                digest.update(b"\x1e")
        else:
            digest.update(str(column.dtype).encode())
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


class ColumnStore:
    """Immutable struct-of-arrays storage for one batch of tickets.

    Stores are shared by every view derived from a dataset; all columns
    are marked non-writeable.  Do not mutate them.
    """

    __slots__ = (
        "n",
        "n_materialized",
        "_arrays",
        "_tables",
        "_table_index",
        "_ticket_cache",
        "_fingerprint",
        "_deferred",
        "_lengths",
    )

    n: int
    n_materialized: int
    _arrays: Dict[str, np.ndarray]
    _tables: Dict[str, Tuple[str, ...]]
    _table_index: Dict[str, Dict[str, int]]
    _ticket_cache: np.ndarray
    _fingerprint: Optional[str]
    _deferred: Dict[str, Callable[[], np.ndarray]]
    _lengths: Dict[str, Callable[[], np.ndarray]]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        n: int,
        arrays: Dict[str, np.ndarray],
        tables: Dict[str, Tuple[str, ...]],
        *,
        deferred: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
        lengths: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
        fingerprint: Optional[str] = None,
    ) -> "ColumnStore":
        """The store of ``n`` rows over ``arrays`` (one per column) and
        the interned ``tables``; tickets materialize lazily on demand.
        This is the only constructor.

        The arrays are adopted, never copied (they may be ``np.memmap``
        views into on-disk blobs), and frozen.  ``deferred`` thunks
        stand in for columns that are expensive to materialize (the
        per-ticket object columns of a stored dataset): a thunk runs
        once, on first :meth:`column` access, so opening a dataset stays
        near-constant in its size.  ``lengths`` thunks give the byte
        length of each string of a deferred string column, which
        :meth:`nonempty` reads instead of decoding it.  ``fingerprint``
        pre-seeds the content-hash memo from a trusted source (the
        storage manifest), so warm :class:`~repro.engine.cache.
        AnalysisCache` lookups never re-hash column bytes; it must equal
        what :func:`compute_fingerprint` would return for these columns.
        """
        deferred = {} if deferred is None else dict(deferred)
        missing = set(COLUMN_NAMES) - set(arrays) - set(deferred)
        missing |= set(TABLE_NAMES) - set(tables)
        if missing:
            raise ValueError(
                f"ColumnStore.from_columns missing columns or tables: {sorted(missing)}"
            )
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ValueError(
                    f"ColumnStore.from_columns: column {name!r} has shape "
                    f"{arr.shape}, expected ({n},)"
                )
            arr.setflags(write=False)
        store = cls.__new__(cls)
        store.n = int(n)
        store.n_materialized = 0
        store._arrays = dict(arrays)
        store._tables = dict(tables)
        store._deferred = deferred
        store._lengths = {} if lengths is None else dict(lengths)
        store._table_index = {
            name: {value: i for i, value in enumerate(table)} for name, table in tables.items()
        }
        store._ticket_cache = np.empty(store.n, dtype=object)
        store._fingerprint = fingerprint
        return store

    @classmethod
    def concatenate(
        cls, parts: Sequence[Tuple["ColumnStore", np.ndarray]]
    ) -> "ColumnStore":
        """Merge ``(store, row_indices)`` views into one store, remapping
        the interned code columns through a shared table.  Tickets
        already materialized in a part stay shared (no re-allocation)."""
        arrays: Dict[str, np.ndarray] = {}
        tables: Dict[str, Tuple[str, ...]] = {}
        for field in SCHEMA:
            chunks = [store.column(field.column)[idx] for store, idx in parts]
            if field.table:
                part_tables = [store.table(field.table) for store, _ in parts]
                shared, tables[field.table] = _intern([v for t in part_tables for v in t])
                start = 0
                for i, part_table in enumerate(part_tables):
                    # each part's codes through its slice of the shared codes;
                    # -1 (missing) indexes the appended -1
                    lookup = np.append(shared[start:start + len(part_table)], np.int32(-1))
                    start += len(part_table)
                    chunks[i] = lookup[chunks[i]]
            arrays[field.column] = np.concatenate(chunks) if chunks else np.empty(0, field.dtype)
        n = sum(int(idx.size) for _, idx in parts)
        store = cls.from_columns(n, arrays, tables)
        if parts:
            store._ticket_cache = np.concatenate(
                [part._ticket_cache[idx] for part, idx in parts]
            )
        return store

    # ------------------------------------------------------------------
    # column / table access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The full-length column ``name``, running its deferred thunk
        (a stored object column) on first access."""
        arr = self._arrays.get(name)
        if arr is None:
            thunk = self._deferred.pop(name, None)
            if thunk is None:
                raise KeyError(f"unknown column {name!r}")
            arr = thunk()
            if arr.shape != (self.n,):
                raise ValueError(
                    f"deferred column {name!r} materialized shape "
                    f"{arr.shape}, expected ({self.n},)"
                )
            arr.setflags(write=False)
            self._arrays[name] = arr
        return arr

    def nonempty(self, name: str) -> np.ndarray:
        """Mask of the rows whose string in column ``name`` is neither
        ``None`` nor empty.  While a stored string column is still
        undecoded the mask comes from its byte lengths (a UTF-8 string
        is empty exactly when it has no bytes), so it stays undecoded."""
        lengths = self._lengths.get(name)
        if lengths is not None and name not in self._arrays:
            return lengths() > 0
        column = self.column(name)
        mask: np.ndarray = np.not_equal(column, None) & np.not_equal(column, "")
        return mask

    def table(self, name: str) -> Tuple[str, ...]:
        """The interned string table for ``name`` (``idc`` /
        ``product_line`` / ``error_type`` / ``operator_id``)."""
        table = self._tables.get(name)
        if table is None:
            raise KeyError(f"unknown string table {name!r}")
        return table

    def code_for(self, table_name: str, value: Optional[str]) -> int:
        """The integer code of ``value`` in a string table, or -1 when
        the value never occurs (so ``codes == code_for(...)`` is a valid
        never-matching filter)."""
        self.table(table_name)
        return self._table_index[table_name].get(value, -1)

    # ------------------------------------------------------------------
    # content fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the store (see :func:`compute_fingerprint`),
        memoized on first use — columns are immutable, so the memo can
        never go stale."""
        if self._fingerprint is None:
            self._fingerprint = compute_fingerprint(self)
        return self._fingerprint

    # ------------------------------------------------------------------
    # ticket materialization
    # ------------------------------------------------------------------
    def ticket(self, row: int) -> FOT:
        """The ``FOT`` at a store row, materializing and memoizing it on
        first access."""
        cached = self._ticket_cache[row]
        if cached is not None:
            return cached
        ticket = self._materialize(int(row))
        self._ticket_cache[row] = ticket
        return ticket

    def _materialize(self, row: int) -> FOT:
        self.n_materialized += 1
        values: Dict[str, Any] = {}
        for field in SCHEMA:
            value = self.column(field.column)[row]
            if field.order:
                value = None if value < 0 else field.order[value]
            elif field.table:
                value = None if value < 0 else self._tables[field.table][value]
            elif field.dtype != _OBJECT:
                value = value.item()
                if value != value and field.absent != REQUIRED:  # NaN: no op_time
                    value = field.default()
            values[field.name] = value
        return FOT(**values)


class ColumnBuilder:
    """Accumulates ticket fields, whole columns at a time
    (:meth:`extend`) or row by row (:meth:`append`), and builds a
    :class:`ColumnStore` — the zero-``FOT`` emission path used by the
    loaders and the FMS pipeline.  Values are checked once, in
    :meth:`build`."""

    def __init__(self) -> None:
        self._values: Dict[str, List[object]] = {name: [] for name in FIELD_NAMES}

    def __len__(self) -> int:
        return len(self._values["fot_id"])

    def extend(self, **columns: Sequence[object]) -> None:
        """Append whole columns: one equal-length sequence per name in
        :data:`FIELD_NAMES`, holding what :meth:`append` takes (enum
        members, ``None`` for an absent action/operator/op_time)."""
        if set(columns) != set(FIELD_NAMES) or len(set(map(len, columns.values()))) > 1:
            raise ValueError(f"extend() takes one equal-length column per {FIELD_NAMES}")
        for name, values in columns.items():
            self._values[name].extend(values)

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
        """Append one ticket's fields (a one-row :meth:`extend`)."""
        row = (
            fot_id, host_id, hostname, host_idc, error_device, error_type,
            error_time, error_position, error_detail, category, source,
            product_line, deployed_at, device_slot, action, operator_id,
            op_time, {} if detail is None else detail,
        )
        for values, value in zip(self._values.values(), row):
            values.append(value)

    def append_ticket(self, ticket: FOT) -> None:
        self.append(**{name: getattr(ticket, name) for name in FIELD_NAMES})

    def build(self) -> ColumnStore:
        """The store of every row added so far.  Raises ``FOT``'s
        ``ValueError`` for the first row whose ``error_time`` is negative
        or whose ``op_time`` precedes it."""
        arrays: Dict[str, np.ndarray] = {}
        tables: Dict[str, Tuple[str, ...]] = {}
        for field in SCHEMA:
            values = self._values[field.name]
            if field.table:
                arrays[field.column], tables[field.table] = _intern(values)
            else:
                arrays[field.column] = _column(field, values)
        error_times, op_times = arrays["error_times"], arrays["op_times"]
        bad = np.flatnonzero((error_times < 0) | (op_times < error_times))
        if bad.size:
            error_time, op_time = float(error_times[bad[0]]), float(op_times[bad[0]])
            if error_time < 0:
                raise ValueError(f"error_time must be >= 0, got {error_time}")
            raise ValueError(
                f"op_time must not precede error_time ({op_time} < {error_time})"
            )
        return ColumnStore.from_columns(len(self), arrays, tables)


__all__ = [
    "Field",
    "SCHEMA",
    "LAYOUT",
    "FIELDS",
    "COMPONENT_ORDER",
    "CATEGORY_ORDER",
    "SOURCE_ORDER",
    "ACTION_ORDER",
    "COMPONENT_CODE",
    "CATEGORY_CODE",
    "SOURCE_CODE",
    "ACTION_CODE",
    "COLUMN_NAMES",
    "TABLE_NAMES",
    "ColumnStore",
    "ColumnBuilder",
    "FIELD_NAMES",
    "compute_fingerprint",
]
