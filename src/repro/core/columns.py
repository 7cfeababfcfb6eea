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

Two ways to build a store:

* :meth:`ColumnStore.from_tickets` — wraps an existing list of ``FOT``
  objects; columns are derived lazily and the originals are kept, so
  iteration returns the exact objects that were passed in.
* :class:`ColumnBuilder` — add raw field values a column at a time (the
  loaders) or a row at a time (the FMS pipeline) and ``build`` a store
  without ever constructing intermediate ``FOT`` objects.

``ColumnStore.n_materialized`` counts on-demand materializations, so
tests can assert that subsetting and grouping allocate no tickets.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.ticket import FOT
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)

#: Stable integer coding for the categorical columns.  Codes index into
#: these tuples; analyses rely on the ordering being enum-declaration
#: order, exactly as the row-first implementation did.
COMPONENT_ORDER: Sequence[ComponentClass] = tuple(ComponentClass)
CATEGORY_ORDER: Sequence[FOTCategory] = tuple(FOTCategory)
SOURCE_ORDER: Sequence[DetectionSource] = tuple(DetectionSource)
ACTION_ORDER: Sequence[OperatorAction] = tuple(OperatorAction)

COMPONENT_CODE: Dict[ComponentClass, int] = {
    c: i for i, c in enumerate(COMPONENT_ORDER)
}
CATEGORY_CODE: Dict[FOTCategory, int] = {c: i for i, c in enumerate(CATEGORY_ORDER)}
SOURCE_CODE: Dict[DetectionSource, int] = {s: i for i, s in enumerate(SOURCE_ORDER)}
ACTION_CODE: Dict[OperatorAction, int] = {a: i for i, a in enumerate(ACTION_ORDER)}

#: Numeric columns: name -> (``FOT`` field, dtype); ``None`` is NaN.
_NUMERIC: Dict[str, Tuple[str, type]] = {
    "fot_ids": ("fot_id", np.int64),
    "host_ids": ("host_id", np.int64),
    "error_times": ("error_time", np.float64),
    "op_times": ("op_time", np.float64),
    "deployed_ats": ("deployed_at", np.float64),
    "positions": ("error_position", np.int32),
    "device_slots": ("device_slot", np.int32),
}

#: Enum code columns: name -> (``FOT`` field, member -> int8 code).
_CODED: Dict[str, Tuple[str, Mapping[Any, int]]] = {
    "category_codes": ("category", CATEGORY_CODE),
    "component_codes": ("error_device", COMPONENT_CODE),
    "source_codes": ("source", SOURCE_CODE),
    "action_codes": ("action", {**ACTION_CODE, None: -1}),
}

#: Per-ticket Python objects kept as object columns (no interning).
_OBJECTS = {
    "hostnames": "hostname",
    "error_details": "error_detail",
    "details": "detail",
}

#: Interned string columns: codes-column name -> (table name, ``FOT``
#: field); ``None`` is coded -1.
_INTERNED = {
    "idc_codes": ("idc", "host_idc"),
    "product_line_codes": ("product_line", "product_line"),
    "error_type_codes": ("error_type", "error_type"),
    "operator_id_codes": ("operator_id", "operator_id"),
}

COLUMN_NAMES: Tuple[str, ...] = (*_NUMERIC, *_CODED, *_OBJECTS, *_INTERNED)

#: The ``FOT`` field each column holds.
_FIELD_OF: Dict[str, str] = {
    **{name: spec[0] for name, spec in _NUMERIC.items()},
    **{name: spec[0] for name, spec in _CODED.items()},
    **_OBJECTS,
    **{name: spec[1] for name, spec in _INTERNED.items()},
}

#: The ``FOT`` fields, in declaration order: the keywords of
#: :meth:`ColumnBuilder.append` and :meth:`ColumnBuilder.extend`.
FIELD_NAMES: Tuple[str, ...] = tuple(f.name for f in dataclasses.fields(FOT))

#: The column that holds each ``FOT`` field.
FIELD_COLUMNS: Dict[str, str] = {field: name for name, field in _FIELD_OF.items()}

TABLE_NAMES: Tuple[str, ...] = tuple(spec[0] for spec in _INTERNED.values())

_TABLE_TO_CODES = {spec[0]: codes_name for codes_name, spec in _INTERNED.items()}


def _column(name: str, values: Sequence[Any]) -> np.ndarray:
    """Column ``name`` (not an interned one) from its field's values."""
    if name in _NUMERIC:
        return np.asarray(values, dtype=_NUMERIC[name][1])
    if name in _CODED:
        codes = _CODED[name][1]
        return np.fromiter(map(codes.__getitem__, values), np.int8, len(values))
    return np.fromiter(values, dtype=object, count=len(values))


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
    for name in COLUMN_NAMES:
        if name == "details":
            continue
        column = store.column(name)
        digest.update(name.encode())
        if name in _INTERNED:
            table = store.table(_INTERNED[name][0])
            used = sorted({table[int(code)] for code in np.unique(column) if code >= 0})
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

    def __init__(
        self,
        n: int,
        arrays: Dict[str, np.ndarray],
        tables: Dict[str, Tuple[str, ...]],
        table_index: Dict[str, Dict[str, int]],
        ticket_cache: np.ndarray,
        deferred: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
        fingerprint: Optional[str] = None,
        lengths: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
    ) -> None:
        self.n = int(n)
        self.n_materialized = 0
        self._arrays = arrays
        self._tables = tables
        self._table_index = table_index
        self._ticket_cache = ticket_cache
        self._fingerprint: Optional[str] = fingerprint
        self._deferred: Dict[str, Callable[[], np.ndarray]] = (
            {} if deferred is None else dict(deferred)
        )
        self._lengths: Dict[str, Callable[[], np.ndarray]] = (
            {} if lengths is None else dict(lengths)
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tickets(cls, tickets: Iterable[FOT]) -> "ColumnStore":
        """Wrap an existing ticket sequence; columns build lazily and
        the original objects are returned on iteration."""
        ticket_list = list(tickets)
        cache = np.empty(len(ticket_list), dtype=object)
        for i, ticket in enumerate(ticket_list):
            cache[i] = ticket
        return cls(
            n=len(ticket_list),
            arrays={},
            tables={},
            table_index={},
            ticket_cache=cache,
        )

    @classmethod
    def from_columns(
        cls,
        n: int,
        arrays: Dict[str, np.ndarray],
        tables: Dict[str, Tuple[str, ...]],
    ) -> "ColumnStore":
        """Build from fully-populated columns (loader / pipeline path);
        tickets materialize lazily on demand."""
        missing = set(COLUMN_NAMES) - set(arrays)
        if missing:
            raise ValueError(f"ColumnStore.from_columns missing columns: {sorted(missing)}")
        for arr in arrays.values():
            arr.setflags(write=False)
        table_index = {
            name: {value: i for i, value in enumerate(table)}
            for name, table in tables.items()
        }
        return cls(
            n=n,
            arrays=dict(arrays),
            tables=dict(tables),
            table_index=table_index,
            ticket_cache=np.empty(n, dtype=object),
        )

    @classmethod
    def adopt_buffers(
        cls,
        n: int,
        arrays: Dict[str, np.ndarray],
        tables: Dict[str, Tuple[str, ...]],
        *,
        deferred: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
        lengths: Optional[Dict[str, Callable[[], np.ndarray]]] = None,
        fingerprint: Optional[str] = None,
    ) -> "ColumnStore":
        """Zero-copy construction from externally-owned buffers — the
        :mod:`repro.core.storage` mmap load path.

        Unlike :meth:`from_columns` this never copies ``arrays`` (they
        may be ``np.memmap`` views into on-disk blobs) and accepts
        ``deferred`` thunks for columns that are expensive to
        materialize (the per-ticket object columns): a thunk runs once,
        on first :meth:`column` access, so opening a dataset stays
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
        if missing:
            raise ValueError(
                f"ColumnStore.adopt_buffers missing columns: {sorted(missing)}"
            )
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ValueError(
                    f"ColumnStore.adopt_buffers: column {name!r} has shape "
                    f"{arr.shape}, expected ({n},)"
                )
            arr.setflags(write=False)
        table_index = {
            name: {value: i for i, value in enumerate(table)}
            for name, table in tables.items()
        }
        return cls(
            n=n,
            arrays=dict(arrays),
            tables=dict(tables),
            table_index=table_index,
            ticket_cache=np.empty(n, dtype=object),
            deferred=deferred,
            fingerprint=fingerprint,
            lengths=lengths,
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence[Tuple["ColumnStore", np.ndarray]]
    ) -> "ColumnStore":
        """Merge ``(store, row_indices)`` views into one store, remapping
        the interned code columns through a shared table.  Tickets
        already materialized in a part stay shared (no re-allocation)."""
        arrays: Dict[str, np.ndarray] = {}
        for name in (*_NUMERIC, *_CODED, *_OBJECTS):
            chunks = [store.column(name)[idx] for store, idx in parts]
            arrays[name] = np.concatenate(chunks) if chunks else _column(name, [])
        tables: Dict[str, Tuple[str, ...]] = {}
        for codes_name, (table_name, _) in _INTERNED.items():
            part_tables = [store.table(table_name) for store, _ in parts]
            shared, tables[table_name] = _intern([v for t in part_tables for v in t])
            chunks, start = [], 0
            for (store, idx), part_table in zip(parts, part_tables):
                # each part's codes through its slice of the shared codes;
                # -1 (missing) indexes the appended -1
                lookup = np.append(shared[start:start + len(part_table)], np.int32(-1))
                start += len(part_table)
                chunks.append(lookup[store.column(codes_name)[idx]])
            arrays[codes_name] = np.concatenate(chunks) if chunks else np.empty(0, np.int32)
        caches = [store._ticket_cache[idx] for store, idx in parts]
        cache = np.concatenate(caches) if caches else np.empty(0, dtype=object)
        for arr in arrays.values():
            arr.setflags(write=False)
        table_index = {
            name: {value: i for i, value in enumerate(table)}
            for name, table in tables.items()
        }
        n = sum(int(idx.size) for _, idx in parts)
        return cls(
            n=n,
            arrays=arrays,
            tables=tables,
            table_index=table_index,
            ticket_cache=cache,
        )

    # ------------------------------------------------------------------
    # column / table access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The full-length column ``name``, building it from the ticket
        cache (ticket-wrapped stores) or a deferred thunk (adopted
        buffers) on first access."""
        arr = self._arrays.get(name)
        if arr is None:
            thunk = self._deferred.pop(name, None) if self._deferred else None
            if thunk is not None:
                arr = thunk()
                if arr.shape != (self.n,):
                    raise ValueError(
                        f"deferred column {name!r} materialized shape "
                        f"{arr.shape}, expected ({self.n},)"
                    )
                arr.setflags(write=False)
                self._arrays[name] = arr
            else:
                arr = self._build_column(name)
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

    def _build_column(self, name: str) -> np.ndarray:
        if name not in _FIELD_OF:
            raise KeyError(f"unknown column {name!r}")
        values = [getattr(ticket, _FIELD_OF[name]) for ticket in self._ticket_cache]
        if name in _INTERNED:
            arr, table = _intern(values)
            self._tables[_INTERNED[name][0]] = table
            self._table_index[_INTERNED[name][0]] = {v: i for i, v in enumerate(table)}
        else:
            arr = _column(name, values)
        arr.setflags(write=False)
        self._arrays[name] = arr
        return arr

    def table(self, name: str) -> Tuple[str, ...]:
        """The interned string table for ``name`` (``idc`` /
        ``product_line`` / ``error_type`` / ``operator_id``)."""
        if name not in self._tables:
            codes_name = _TABLE_TO_CODES.get(name)
            if codes_name is None:
                raise KeyError(f"unknown string table {name!r}")
            self.column(codes_name)
        return self._tables.get(name, ())

    def code_for(self, table_name: str, value: Optional[str]) -> int:
        """The integer code of ``value`` in a string table, or -1 when
        the value never occurs (so ``codes == code_for(...)`` is a valid
        never-matching filter)."""
        self.table(table_name)
        return self._table_index.get(table_name, {}).get(value, -1)

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
        col = self.column
        op_time = float(col("op_times")[row])
        action_code = int(col("action_codes")[row])
        operator_code = int(col("operator_id_codes")[row])
        return FOT(
            fot_id=int(col("fot_ids")[row]),
            host_id=int(col("host_ids")[row]),
            hostname=col("hostnames")[row],
            host_idc=self.table("idc")[int(col("idc_codes")[row])],
            error_device=COMPONENT_ORDER[int(col("component_codes")[row])],
            error_type=self.table("error_type")[int(col("error_type_codes")[row])],
            error_time=float(col("error_times")[row]),
            error_position=int(col("positions")[row]),
            error_detail=col("error_details")[row],
            category=CATEGORY_ORDER[int(col("category_codes")[row])],
            source=SOURCE_ORDER[int(col("source_codes")[row])],
            product_line=self.table("product_line")[
                int(col("product_line_codes")[row])
            ],
            deployed_at=float(col("deployed_ats")[row]),
            device_slot=int(col("device_slots")[row]),
            action=None if action_code < 0 else ACTION_ORDER[action_code],
            operator_id=None
            if operator_code < 0
            else self.table("operator_id")[operator_code],
            op_time=None if np.isnan(op_time) else op_time,
            detail=col("details")[row],
        )


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
        for name, field in _FIELD_OF.items():
            if name in _INTERNED:
                arrays[name], tables[_INTERNED[name][0]] = _intern(self._values[field])
            else:
                arrays[name] = _column(name, self._values[field])
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
    "FIELD_COLUMNS",
    "compute_fingerprint",
]
