"""The FOT dataset container every analysis consumes.

:class:`FOTDataset` is a thin, immutable **view** over a
:class:`~repro.core.columns.ColumnStore` (struct-of-arrays storage):

* subsets (`failures()`, `where()`, `of_idc()`, ...) are index arrays
  into the shared parent store — **no tickets are copied, and no
  :class:`~repro.core.ticket.FOT` objects are allocated**;
* columns of a view are fancy-indexed from the store lazily and
  memoized, so the statistical analyses vectorize instead of looping;
* group-bys (`by_component()`, `by_idc()`, ...) partition one
  :func:`~repro.core.grouping.group_slices` call into a dict of views,
  preserving first-appearance order;
* ``FOT`` dataclasses materialize only on demand — iteration,
  ``dataset[i]`` and the ``tickets`` property — and are memoized per
  store row.

The container is deliberately schema-first: a real ticket dump loaded
via :mod:`repro.core.io` behaves identically to the synthetic trace.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
    overload,
)

import numpy as np
from numpy.typing import ArrayLike

from repro.core.columns import (
    CATEGORY_CODE,
    CATEGORY_ORDER,
    COMPONENT_CODE,
    COMPONENT_ORDER,
    SOURCE_CODE,
    SOURCE_ORDER,
    ColumnBuilder,
    ColumnStore,
)
from repro.core.grouping import composite_key, distinct, distinct_counts, group_slices
from repro.core.ticket import FOT
from repro.core.timeutil import DAY
from repro.core.types import ComponentClass, DetectionSource, FOTCategory


class FOTDataset:
    """An immutable collection of FOTs with columnar accessors.

    Constructing from an iterable of tickets builds a fresh store from
    their fields (a :class:`~repro.core.columns.ColumnBuilder`); every
    derived subset shares that store and only carries an index array.
    Use :meth:`from_store` to wrap a store built elsewhere (loaders,
    pipeline).
    """

    def __init__(self, tickets: Iterable[FOT] = ()) -> None:
        builder = ColumnBuilder()
        for ticket in tickets:
            builder.append_ticket(ticket)
        self._bind(builder.build(), None)

    @classmethod
    def from_store(
        cls, store: ColumnStore, indices: Optional[np.ndarray] = None
    ) -> "FOTDataset":
        """A view of ``store``: all rows (``indices=None``) or the given
        row index array."""
        dataset = cls.__new__(cls)
        dataset._bind(store, indices)
        return dataset

    def _bind(self, store: ColumnStore, indices: Optional[np.ndarray]) -> None:
        self._store = store
        self._indices: Optional[np.ndarray] = None
        if indices is not None:
            self._indices = np.asarray(indices, dtype=np.int64)
            self._indices.setflags(write=False)
        self._cols: Dict[str, np.ndarray] = {}
        self._gind: Optional[np.ndarray] = None
        self._tickets_memo: Optional[List[FOT]] = None
        self._fingerprint_memo: Optional[str] = None
        self._failures_memo: Optional[FOTDataset] = None
        self._host_counts_memo: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # view plumbing
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The shared column store backing this view (read-only)."""
        return self._store

    def _gindices(self) -> np.ndarray:
        """Global store-row indices of this view."""
        if self._indices is not None:
            return self._indices
        if self._gind is None:
            gind = np.arange(self._store.n, dtype=np.int64)
            gind.setflags(write=False)
            self._gind = gind
        return self._gind

    def fingerprint(self) -> str:
        """Content fingerprint of this *view*: the store's content hash
        plus a hash of the view's index array.  Any filter/take/concat
        yields a different fingerprint (different rows or row order);
        the :class:`~repro.engine.cache.AnalysisCache` keys on it."""
        if self._fingerprint_memo is None:
            store_fp = self._store.fingerprint()
            if self._indices is None:
                view_fp = "all"
            else:
                import hashlib

                view_fp = hashlib.sha256(
                    np.ascontiguousarray(self._indices).tobytes()
                ).hexdigest()[:16]
            self._fingerprint_memo = f"{store_fp}:{view_fp}"
        return self._fingerprint_memo

    def _view(self, rows: np.ndarray) -> "FOTDataset":
        """A sibling view from *global* store rows."""
        return FOTDataset.from_store(self._store, rows)

    def _take_local(self, local_rows: np.ndarray) -> "FOTDataset":
        """A sub-view from already-validated *local* positions."""
        if self._indices is None:
            rows = np.asarray(local_rows, dtype=np.int64)
        else:
            rows = self._indices[local_rows]
        return self._view(rows)

    def _col(self, name: str) -> np.ndarray:
        array = self._cols.get(name)
        if array is None:
            base = self._store.column(name)
            if self._indices is None:
                array = base
            else:
                array = base[self._indices]
                array.setflags(write=False)
            self._cols[name] = array
        return array

    def _derived(self, name: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        array = self._cols.get(name)
        if array is None:
            array = build()
            array.setflags(write=False)
            self._cols[name] = array
        return array

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._indices is None:
            return self._store.n
        return int(self._indices.size)

    def __iter__(self) -> Iterator[FOT]:
        store = self._store
        if self._indices is None:
            for row in range(store.n):
                yield store.ticket(row)
        else:
            for row in self._indices:
                yield store.ticket(int(row))

    @overload
    def __getitem__(self, index: slice) -> "FOTDataset": ...

    @overload
    def __getitem__(self, index: int) -> FOT: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[FOT, "FOTDataset"]:
        if isinstance(index, slice):
            return self._view(self._gindices()[index])
        row = int(index)
        n = len(self)
        if row < 0:
            row += n
        if not 0 <= row < n:
            raise IndexError(f"index {index} out of range for dataset of {n}")
        if self._indices is not None:
            row = int(self._indices[row])
        return self._store.ticket(row)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FOTDataset({len(self)} tickets)"

    @property
    def tickets(self) -> Sequence[FOT]:
        """The tickets of this view, materializing (and memoizing) them
        on first access (do not mutate)."""
        if self._tickets_memo is None:
            self._tickets_memo = list(iter(self))
        return self._tickets_memo

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------
    @property
    def error_times(self) -> np.ndarray:
        """Failure detection timestamps, seconds since trace epoch."""
        return self._col("error_times")

    @property
    def op_times(self) -> np.ndarray:
        """Operator close timestamps; ``nan`` where the ticket has none."""
        return self._col("op_times")

    @property
    def response_times(self) -> np.ndarray:
        """``op_time - error_time`` in seconds; ``nan`` where undefined."""
        return self._derived(
            "response_times", lambda: self.op_times - self.error_times
        )

    @property
    def category_codes(self) -> np.ndarray:
        """Integer code per ticket, index into :data:`CATEGORY_ORDER`."""
        return self._col("category_codes")

    @property
    def component_codes(self) -> np.ndarray:
        """Integer code per ticket, index into :data:`COMPONENT_ORDER`."""
        return self._col("component_codes")

    @property
    def source_codes(self) -> np.ndarray:
        """Integer code per ticket, index into :data:`SOURCE_ORDER`."""
        return self._col("source_codes")

    @property
    def action_codes(self) -> np.ndarray:
        """Integer code per ticket into the operator-action order; -1
        where the ticket carries no action."""
        return self._col("action_codes")

    @property
    def host_ids(self) -> np.ndarray:
        return self._col("host_ids")

    @property
    def fot_ids(self) -> np.ndarray:
        return self._col("fot_ids")

    @property
    def positions(self) -> np.ndarray:
        """Rack slot numbers."""
        return self._col("positions")

    @property
    def device_slots(self) -> np.ndarray:
        """Component slot index on the server."""
        return self._col("device_slots")

    @property
    def deployed_ats(self) -> np.ndarray:
        return self._col("deployed_ats")

    @property
    def idc_codes(self) -> np.ndarray:
        """Interned data-center code per ticket (see :attr:`idc_table`)."""
        return self._col("idc_codes")

    @property
    def product_line_codes(self) -> np.ndarray:
        return self._col("product_line_codes")

    @property
    def error_type_codes(self) -> np.ndarray:
        return self._col("error_type_codes")

    @property
    def operator_id_codes(self) -> np.ndarray:
        """Interned operator-id code per ticket; -1 where absent."""
        return self._col("operator_id_codes")

    @property
    def error_details(self) -> np.ndarray:
        """Free-form detail strings (object column)."""
        return self._col("error_details")

    @property
    def error_detail_present(self) -> np.ndarray:
        """True where the error detail is neither ``None`` nor empty; a
        stored dataset answers without decoding the detail strings."""

        def build() -> np.ndarray:
            mask = self._store.nonempty("error_details")
            if self._indices is not None:
                mask = mask[self._indices]
            return mask

        return self._derived("error_detail_present", build)

    @property
    def idc_table(self) -> Tuple[str, ...]:
        """Interned data-center names, indexed by :attr:`idc_codes`."""
        return self._store.table("idc")

    @property
    def product_line_table(self) -> Tuple[str, ...]:
        return self._store.table("product_line")

    @property
    def error_type_table(self) -> Tuple[str, ...]:
        return self._store.table("error_type")

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def where(self, mask: np.ndarray) -> "FOTDataset":
        """Subset by boolean mask (vectorized filters build the mask
        from the columnar views).  Integer index arrays are rejected —
        use :meth:`take` for those."""
        mask = np.asarray(mask)
        if mask.dtype != np.bool_:
            raise TypeError(
                f"where() expects a boolean mask, got dtype {mask.dtype}; "
                "use take(indices) to subset by integer positions"
            )
        if mask.shape != (len(self),):
            raise ValueError(
                f"mask shape {mask.shape} does not match dataset of {len(self)}"
            )
        if self._indices is None:
            rows = np.flatnonzero(mask)
        else:
            rows = self._indices[mask]
        return self._view(rows)

    def take(self, indices: ArrayLike) -> "FOTDataset":
        """Subset by integer positions (negative indices allowed),
        preserving the given order."""
        indices = np.asarray(indices)
        if indices.dtype == np.bool_:
            raise TypeError(
                "take() expects integer indices; use where(mask) for boolean masks"
            )
        if indices.size == 0:
            indices = indices.astype(np.int64)
        elif not np.issubdtype(indices.dtype, np.integer):
            raise TypeError(
                f"take() expects integer indices, got dtype {indices.dtype}"
            )
        if indices.ndim != 1:
            raise ValueError(
                f"take() expects a 1-D index array, got shape {indices.shape}"
            )
        n = len(self)
        local = indices.astype(np.int64, copy=True)
        negative = local < 0
        if negative.any():
            local[negative] += n
        if local.size and (local.min() < 0 or local.max() >= n):
            raise IndexError(f"take() index out of range for dataset of {n}")
        return self._take_local(local)

    def filter(self, predicate: Callable[[FOT], bool]) -> "FOTDataset":
        """Subset by per-ticket predicate (materializes tickets; prefer
        mask-based filters on the columns for hot paths)."""
        n = len(self)
        keep = np.fromiter(
            (bool(predicate(t)) for t in self), dtype=bool, count=n
        )
        return self.where(keep)

    def failures(self) -> "FOTDataset":
        """Tickets in D_fixing or D_error — the paper's failure
        definition, excluding false alarms (Section II).

        Built once per view and memoized (views are immutable), so the
        analyses of one report share one failures view and the columns
        it gathers.  Two threads racing here only build it twice."""
        if self._failures_memo is None:
            false_code = CATEGORY_CODE[FOTCategory.FALSE_ALARM]
            self._failures_memo = self.where(self.category_codes != false_code)
        return self._failures_memo

    def of_category(self, category: FOTCategory) -> "FOTDataset":
        return self.where(self.category_codes == CATEGORY_CODE[category])

    def of_component(self, component: ComponentClass) -> "FOTDataset":
        return self.where(self.component_codes == COMPONENT_CODE[component])

    def of_idc(self, idc: str) -> "FOTDataset":
        code = self._store.code_for("idc", idc)
        return self.where(self.idc_codes == code)

    def of_product_line(self, line: str) -> "FOTDataset":
        code = self._store.code_for("product_line", line)
        return self.where(self.product_line_codes == code)

    def of_source(self, source: DetectionSource) -> "FOTDataset":
        return self.where(self.source_codes == SOURCE_CODE[source])

    def between(self, start: float, end: float) -> "FOTDataset":
        """Tickets with ``start <= error_time < end``."""
        times = self.error_times
        return self.where((times >= start) & (times < end))

    def sorted_by_time(self) -> "FOTDataset":
        order = np.argsort(self.error_times, kind="stable")
        return self._take_local(order)

    def with_op_time(self) -> "FOTDataset":
        """Tickets carrying an operator close time (RT is defined)."""
        return self.where(~np.isnan(self.op_times))

    def duplicate_suspect_mask(self, window_seconds: float = 86400.0) -> np.ndarray:
        """Boolean mask flagging stateless-FMS re-open suspects: tickets
        on the same physical component within ``window_seconds`` of the
        previous ticket on that component (the §VII-B pathology).  Drop
        them with ``dataset.where(~mask)``.

        Vectorized: one group-by over the packed component key, in time
        order, and a consecutive-gap comparison replace the per-ticket
        dict walk.
        """
        n = len(self)
        mask = np.zeros(n, dtype=bool)
        if n < 2:
            mask.setflags(write=False)
            return mask
        times = self.error_times
        key = composite_key(self.host_ids, self.component_codes, self.device_slots)
        # Group by component key, each group in stable time order: the
        # visit order of iterating tickets in stable time order and
        # tracking the previous one per component.
        by_time = np.argsort(times, kind="stable")
        perm = by_time[group_slices(key[by_time])[0]]
        key_s = key[perm]
        time_s = times[perm]
        same_key = key_s[1:] == key_s[:-1]
        close = (time_s[1:] - time_s[:-1]) <= window_seconds
        mask[perm[1:][same_key & close]] = True
        mask.setflags(write=False)
        return mask

    # ------------------------------------------------------------------
    # grouping
    # ------------------------------------------------------------------
    def _grouped(self, values: np.ndarray) -> List[Tuple[int, "FOTDataset"]]:
        """Partition this view by an integer key column; groups come
        back in first-appearance order and each keeps its tickets in
        original view order."""
        values = np.asarray(values)
        order, starts, stops = group_slices(values)
        firsts = order[starts]
        return [
            (int(values[firsts[g]]), self._take_local(order[starts[g]:stops[g]]))
            for g in np.argsort(firsts, kind="stable")
        ]

    def by_component(self) -> Dict[ComponentClass, "FOTDataset"]:
        return {
            COMPONENT_ORDER[code]: view
            for code, view in self._grouped(self.component_codes)
        }

    def by_category(self) -> Dict[FOTCategory, "FOTDataset"]:
        return {
            CATEGORY_ORDER[code]: view
            for code, view in self._grouped(self.category_codes)
        }

    def by_idc(self) -> Dict[str, "FOTDataset"]:
        table = self.idc_table
        return {table[code]: view for code, view in self._grouped(self.idc_codes)}

    def by_product_line(self) -> Dict[str, "FOTDataset"]:
        table = self.product_line_table
        return {
            table[code]: view
            for code, view in self._grouped(self.product_line_codes)
        }

    def by_host(self) -> Dict[int, "FOTDataset"]:
        return {code: view for code, view in self._grouped(self.host_ids)}

    def by_failure_type(self) -> Dict[str, "FOTDataset"]:
        table = self.error_type_table
        return {
            table[code]: view
            for code, view in self._grouped(self.error_type_codes)
        }

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------
    def host_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(hosts, counts)``: the distinct host ids of this view in
        ascending order and the tickets on each, as
        ``np.unique(host_ids, return_counts=True)`` returns them.  Built
        by one sort, once per view (do not mutate)."""
        if self._host_counts_memo is None:
            hosts, counts = distinct_counts(self.host_ids)
            hosts.setflags(write=False)
            counts.setflags(write=False)
            self._host_counts_memo = (hosts, counts)
        return self._host_counts_memo

    @property
    def idcs(self) -> List[str]:
        """Distinct data-center names, sorted."""
        table = self.idc_table
        return sorted(table[code] for code in distinct(self.idc_codes))

    @property
    def product_lines(self) -> List[str]:
        """Distinct product-line names, sorted."""
        table = self.product_line_table
        return sorted(table[code] for code in distinct(self.product_line_codes))

    @property
    def span_seconds(self) -> float:
        """Time between the first and last ticket; 0 for < 2 tickets."""
        if len(self) < 2:
            return 0.0
        times = self.error_times
        return float(times.max() - times.min())

    def concat(self, other: "FOTDataset") -> "FOTDataset":
        """Concatenate two datasets.  Views of the same store just join
        their index arrays; distinct stores are merged column-wise
        (string tables re-interned) — neither path allocates tickets."""
        if self._store is other._store:
            rows = np.concatenate([self._gindices(), other._gindices()])
            return self._view(rows)
        store = ColumnStore.concatenate(
            [
                (self._store, self._gindices()),
                (other._store, other._gindices()),
            ]
        )
        return FOTDataset.from_store(store)

    @classmethod
    def concat_many(cls, datasets: Sequence["FOTDataset"]) -> "FOTDataset":
        """Concatenate many datasets in one pass.

        This is the streaming append path: the live ingestion store
        compacts its pending batch views into the base store with a
        single :meth:`ColumnStore.concatenate` call (one copy of every
        column) instead of pairwise :meth:`concat` (which would copy
        the whole store once per batch).
        """
        parts = [d for d in datasets if len(d)]
        if not parts:
            return cls()
        if len(parts) == 1:
            single = parts[0]
            return cls.from_store(single._store, single._indices)
        store = ColumnStore.concatenate(
            [(d._store, d._gindices()) for d in parts]
        )
        return cls.from_store(store)

    def summary(self) -> Dict[str, object]:
        """Cheap headline numbers, mostly for logging and the CLI."""
        return {
            "tickets": len(self),
            "failures": len(self.failures()),
            "idcs": len(self.idcs),
            "product_lines": len(self.product_lines),
            "span_days": self.span_seconds / DAY,
            "hosts": int(self.host_counts()[0].size),
        }


__all__ = [
    "FOTDataset",
    "COMPONENT_ORDER",
    "CATEGORY_ORDER",
    "SOURCE_ORDER",
]
