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
* :class:`ColumnBuilder` — append raw field values row by row (the
  loaders and the FMS pipeline use this) and :meth:`ColumnBuilder.build`
  a store without ever constructing intermediate ``FOT`` objects.

``ColumnStore.n_materialized`` counts on-demand materializations, so
tests can assert that subsetting and grouping allocate no tickets.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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

#: Numeric / categorical columns: name -> (dtype, per-ticket getter).
_NUMERIC_BUILDERS = {
    "fot_ids": (np.int64, lambda t: t.fot_id),
    "host_ids": (np.int64, lambda t: t.host_id),
    "error_times": (np.float64, lambda t: t.error_time),
    "op_times": (np.float64, lambda t: np.nan if t.op_time is None else t.op_time),
    "deployed_ats": (np.float64, lambda t: t.deployed_at),
    "positions": (np.int32, lambda t: t.error_position),
    "device_slots": (np.int32, lambda t: t.device_slot),
    "category_codes": (np.int8, lambda t: CATEGORY_CODE[t.category]),
    "component_codes": (np.int8, lambda t: COMPONENT_CODE[t.error_device]),
    "source_codes": (np.int8, lambda t: SOURCE_CODE[t.source]),
    "action_codes": (
        np.int8,
        lambda t: -1 if t.action is None else ACTION_CODE[t.action],
    ),
}

#: Per-ticket Python objects kept as object columns (no interning).
_OBJECT_BUILDERS = {
    "hostnames": lambda t: t.hostname,
    "error_details": lambda t: t.error_detail,
    "details": lambda t: t.detail,
}

#: Interned string columns: codes-column name -> (table name, ticket
#: attribute, whether ``None`` is a legal value, coded as -1).
_INTERNED = {
    "idc_codes": ("idc", "host_idc", False),
    "product_line_codes": ("product_line", "product_line", False),
    "error_type_codes": ("error_type", "error_type", False),
    "operator_id_codes": ("operator_id", "operator_id", True),
}

COLUMN_NAMES: Tuple[str, ...] = (
    *_NUMERIC_BUILDERS, *_OBJECT_BUILDERS, *_INTERNED,
)

TABLE_NAMES: Tuple[str, ...] = tuple(spec[0] for spec in _INTERNED.values())

_TABLE_TO_CODES = {spec[0]: codes_name for codes_name, spec in _INTERNED.items()}


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
        for name in (*_NUMERIC_BUILDERS, *_OBJECT_BUILDERS):
            chunks = [store.column(name)[idx] for store, idx in parts]
            dtype = _NUMERIC_BUILDERS[name][0] if name in _NUMERIC_BUILDERS else object
            arrays[name] = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)
            )
        tables: Dict[str, Tuple[str, ...]] = {}
        for codes_name, (table_name, _, _) in _INTERNED.items():
            index: Dict[str, int] = {}
            table: List[str] = []
            chunks = []
            for store, idx in parts:
                mapping: List[int] = []
                for value in store.table(table_name):
                    code = index.get(value)
                    if code is None:
                        code = len(table)
                        index[value] = code
                        table.append(value)
                    mapping.append(code)
                codes = store.column(codes_name)[idx]
                if mapping:
                    lookup = np.asarray(mapping, dtype=np.int32)
                    remapped = np.where(
                        codes < 0, np.int32(-1), lookup[np.maximum(codes, 0)]
                    ).astype(np.int32)
                else:
                    remapped = codes.astype(np.int32)
                chunks.append(remapped)
            arrays[codes_name] = (
                np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)
            )
            tables[table_name] = tuple(table)
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
        tickets = self._ticket_cache
        if name in _NUMERIC_BUILDERS:
            dtype, get = _NUMERIC_BUILDERS[name]
            arr = np.fromiter((get(t) for t in tickets), dtype=dtype, count=self.n)
        elif name in _OBJECT_BUILDERS:
            get = _OBJECT_BUILDERS[name]
            arr = np.empty(self.n, dtype=object)
            for i, ticket in enumerate(tickets):
                arr[i] = get(ticket)
        elif name in _INTERNED:
            table_name, attr, noneable = _INTERNED[name]
            index: Dict[str, int] = {}
            table: List[str] = []
            codes = np.empty(self.n, dtype=np.int32)
            for i, ticket in enumerate(tickets):
                value = getattr(ticket, attr)
                if noneable and value is None:
                    codes[i] = -1
                    continue
                code = index.get(value)
                if code is None:
                    code = len(table)
                    index[value] = code
                    table.append(value)
                codes[i] = code
            self._tables[table_name] = tuple(table)
            self._table_index[table_name] = index
            arr = codes
        else:
            raise KeyError(f"unknown column {name!r}")
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
    "compute_fingerprint",
]
