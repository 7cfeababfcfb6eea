"""View-equivalence property tests for the columnar dataset core.

The columnar :class:`~repro.core.dataset.FOTDataset` must be
indistinguishable from a row-first container built from the same
tickets: every filter, slice, concat and grouping returns the same
tickets, the same columns and the same ``summary()``.  The "row-first
reference" here is the ticket-wrapped store the schema-driven
:class:`~repro.core.columns.ColumnBuilder` replaced, kept verbatim
below (:class:`TicketStore`: ``from_tickets``, ``_build_column`` and
the hand-written ``_materialize``, over its own column specs), compared
against ``FOTDataset(tickets)`` — two independent constructions must
converge.

Also verifies the zero-materialization guarantee: subsetting and
grouping a builder-built dataset, or rendering the full report over a
columnar-loaded trace, allocates no ``FOT`` objects, and each analysis
outside the report allocates only the tickets its result holds.
"""

import dataclasses
import math
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis import (
    batch,
    compare,
    correlated,
    lifecycle,
    mining,
    prediction,
    repeating,
    survival,
    tbf,
    temporal,
    trends,
)
from repro.core import io
from repro.core.columns import (
    ACTION_CODE,
    ACTION_ORDER,
    CATEGORY_CODE,
    CATEGORY_ORDER,
    COMPONENT_CODE,
    COMPONENT_ORDER,
    SCHEMA,
    SOURCE_CODE,
    SOURCE_ORDER,
    ColumnBuilder,
    compute_fingerprint,
)
from repro.core.dataset import FOTDataset
from repro.core.ticket import FOT
from repro.core.types import (
    ComponentClass,
    DetectionSource,
    FOTCategory,
    OperatorAction,
)
from tests.test_ticket import make_ticket


# ----------------------------------------------------------------------
# reference: the ticket-wrapped store, as it was
# ----------------------------------------------------------------------
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

#: The ``FOT`` field each column holds.
_FIELD_OF: Dict[str, str] = {
    **{name: spec[0] for name, spec in _NUMERIC.items()},
    **{name: spec[0] for name, spec in _CODED.items()},
    **_OBJECTS,
    **{name: spec[1] for name, spec in _INTERNED.items()},
}

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


class TicketStore:
    """The store wrapped around a ticket list: columns build lazily from
    the tickets, and iteration returns the original objects."""

    def __init__(
        self,
        n: int,
        arrays: Dict[str, np.ndarray],
        tables: Dict[str, Tuple[str, ...]],
        table_index: Dict[str, Dict[str, int]],
        ticket_cache: np.ndarray,
    ) -> None:
        self.n = int(n)
        self.n_materialized = 0
        self._arrays = arrays
        self._tables = tables
        self._table_index = table_index
        self._ticket_cache = ticket_cache
        self._lengths: Dict[str, Any] = {}

    @classmethod
    def from_tickets(cls, tickets: Iterable[FOT]) -> "TicketStore":
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

    def column(self, name: str) -> np.ndarray:
        arr = self._arrays.get(name)
        if arr is None:
            arr = self._build_column(name)
        return arr

    def nonempty(self, name: str) -> np.ndarray:
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
        if name not in self._tables:
            codes_name = _TABLE_TO_CODES.get(name)
            if codes_name is None:
                raise KeyError(f"unknown string table {name!r}")
            self.column(codes_name)
        return self._tables.get(name, ())

    def code_for(self, table_name: str, value: Optional[str]) -> int:
        self.table(table_name)
        return self._table_index.get(table_name, {}).get(value, -1)

    def fingerprint(self) -> str:
        return compute_fingerprint(self)  # type: ignore[arg-type]

    def ticket(self, row: int) -> FOT:
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

_COMPONENTS = list(ComponentClass)
_CATEGORIES = list(FOTCategory)
_SOURCES = list(DetectionSource)

_COMPARED_COLUMNS = [
    "fot_ids",
    "host_ids",
    "error_times",
    "op_times",
    "response_times",
    "deployed_ats",
    "positions",
    "device_slots",
    "category_codes",
    "component_codes",
    "source_codes",
    "action_codes",
    "idc_codes",
    "product_line_codes",
    "error_type_codes",
    "operator_id_codes",
]


@st.composite
def _ticket(draw, fot_id):
    category = draw(st.sampled_from(_CATEGORIES))
    closed = category is not FOTCategory.ERROR
    error_time = draw(
        st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
    )
    action = {
        FOTCategory.FIXING: OperatorAction.REPAIR_ORDER,
        FOTCategory.FALSE_ALARM: OperatorAction.MARK_FALSE_ALARM,
    }.get(category)
    return make_ticket(
        fot_id=fot_id,
        host_id=draw(st.integers(min_value=0, max_value=5)),
        host_idc=f"dc{draw(st.integers(min_value=0, max_value=3)):02d}",
        error_device=draw(st.sampled_from(_COMPONENTS)),
        error_type=draw(st.sampled_from(["SMARTFail", "NotReady", "FanStall"])),
        error_time=error_time,
        error_position=draw(st.integers(min_value=0, max_value=40)),
        category=category,
        source=draw(st.sampled_from(_SOURCES)),
        product_line=f"line{draw(st.integers(min_value=0, max_value=2))}",
        device_slot=draw(st.integers(min_value=0, max_value=3)),
        action=action,
        operator_id=f"op{fot_id % 3}" if closed else None,
        op_time=error_time + draw(st.floats(min_value=0.0, max_value=1e6))
        if closed
        else None,
    )


@st.composite
def _ticket_lists(draw, min_size=1, max_size=24):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    return [draw(_ticket(fot_id=i)) for i in range(n)]


def _build_pair(tickets):
    """(ticket-wrapped reference, builder-built columnar) over ``tickets``."""
    reference = FOTDataset.from_store(TicketStore.from_tickets(tickets))
    return reference, FOTDataset(tickets)


def _assert_same_dataset(ref: FOTDataset, col: FOTDataset):
    assert len(ref) == len(col)
    for name in _COMPARED_COLUMNS:
        np.testing.assert_array_equal(
            getattr(ref, name), getattr(col, name), err_msg=name
        )
        assert getattr(ref, name).dtype == getattr(col, name).dtype, name
    assert list(ref) == list(col)
    assert ref.summary() == col.summary()
    assert ref.idcs == col.idcs
    assert ref.product_lines == col.product_lines


def _assert_same_groups(ref_groups, col_groups):
    assert list(ref_groups.keys()) == list(col_groups.keys())
    for key in ref_groups:
        _assert_same_dataset(ref_groups[key], col_groups[key])


class TestViewEquivalence:
    @given(tickets=_ticket_lists())
    @settings(max_examples=40, deadline=None)
    def test_whole_dataset(self, tickets):
        _assert_same_dataset(*_build_pair(tickets))

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_mask(self, tickets, data):
        ref, col = _build_pair(tickets)
        mask = np.asarray(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(tickets), max_size=len(tickets)
                )
            ),
            dtype=bool,
        )
        _assert_same_dataset(ref.where(mask), col.where(mask))

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_filters(self, tickets, data):
        ref, col = _build_pair(tickets)
        _assert_same_dataset(ref.failures(), col.failures())
        _assert_same_dataset(ref.with_op_time(), col.with_op_time())
        _assert_same_dataset(ref.sorted_by_time(), col.sorted_by_time())
        category = data.draw(st.sampled_from(_CATEGORIES))
        _assert_same_dataset(ref.of_category(category), col.of_category(category))
        component = data.draw(st.sampled_from(_COMPONENTS))
        _assert_same_dataset(
            ref.of_component(component), col.of_component(component)
        )
        source = data.draw(st.sampled_from(_SOURCES))
        _assert_same_dataset(ref.of_source(source), col.of_source(source))
        idc = data.draw(st.sampled_from(ref.idcs + ["dc-absent"]))
        _assert_same_dataset(ref.of_idc(idc), col.of_idc(idc))
        line = data.draw(st.sampled_from(ref.product_lines + ["line-absent"]))
        _assert_same_dataset(ref.of_product_line(line), col.of_product_line(line))
        np.testing.assert_array_equal(
            ref.duplicate_suspect_mask(), col.duplicate_suspect_mask()
        )

    @given(tickets=_ticket_lists(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_slices_take_and_concat(self, tickets, data):
        ref, col = _build_pair(tickets)
        n = len(tickets)
        start = data.draw(st.integers(min_value=-n, max_value=n))
        stop = data.draw(st.integers(min_value=-n, max_value=n))
        step = data.draw(st.sampled_from([1, 2, 3, -1, -2]))
        _assert_same_dataset(ref[start:stop:step], col[start:stop:step])
        indices = data.draw(
            st.lists(st.integers(min_value=-n, max_value=n - 1), max_size=2 * n)
        )
        _assert_same_dataset(ref.take(indices), col.take(indices))
        _assert_same_dataset(ref.concat(ref), col.concat(col))
        # Cross-store concat: reference store on one side, builder store
        # on the other — exercises table remapping.
        _assert_same_dataset(ref.concat(ref), ref.concat(col))

    @given(tickets=_ticket_lists())
    @settings(max_examples=40, deadline=None)
    def test_groupings(self, tickets):
        ref, col = _build_pair(tickets)
        _assert_same_groups(ref.by_category(), col.by_category())
        _assert_same_groups(ref.by_component(), col.by_component())
        _assert_same_groups(ref.by_idc(), col.by_idc())
        _assert_same_groups(ref.by_product_line(), col.by_product_line())
        _assert_same_groups(ref.by_host(), col.by_host())
        _assert_same_groups(ref.by_failure_type(), col.by_failure_type())


class TestSchema:
    def test_fields_are_fot_fields_in_declaration_order(self):
        assert [field.name for field in SCHEMA] == [
            field.name for field in dataclasses.fields(FOT)
        ]
        assert sorted(field.layout for field in SCHEMA) == list(range(len(SCHEMA)))

    @given(tickets=_ticket_lists())
    @settings(max_examples=40, deadline=None)
    def test_materialize_matches_hand_written(self, tickets):
        store = FOTDataset(tickets).store
        for row, ticket in enumerate(tickets):
            reference = TicketStore._materialize(store, row)  # type: ignore[arg-type]
            assert store._materialize(row) == reference == ticket

    def test_nan_op_time_is_none_nan_deployed_at_is_not(self):
        builder = ColumnBuilder()
        fields = dataclasses.asdict(make_ticket(deployed_at=math.nan))
        builder.append(**dict(fields, op_time=math.nan))
        ticket = FOTDataset.from_store(builder.build())[0]
        reference = TicketStore._materialize(builder.build(), 0)  # type: ignore[arg-type]
        assert ticket.op_time is None and reference.op_time is None
        assert math.isnan(ticket.deployed_at) and math.isnan(reference.deployed_at)


def _context_of_busiest_host(ds: FOTDataset) -> mining.TicketContext:
    """``component_context`` of the last failure of the host with the
    most failures, so the result holds history tickets."""
    failures = ds.failures()
    hosts, counts = np.unique(failures.host_ids, return_counts=True)
    rows = np.flatnonzero(failures.host_ids == hosts[np.argmax(counts)])
    ticket = failures[int(rows[np.argmax(failures.error_times[rows])])]
    return mining.component_context(ds, ticket)


#: Analyses outside ``full_report``: name -> call on (dataset, inventory).
_ANALYSES = {
    "predict_and_evaluate": lambda ds, inv: prediction.predict_and_evaluate(ds),
    "issue_warnings": lambda ds, inv: prediction.issue_warnings(ds),
    "kaplan_meier": lambda ds, inv: survival.kaplan_meier(
        ds, inv, ComponentClass.HDD),
    "annualized_failure_rates": lambda ds, inv: survival.annualized_failure_rates(
        ds, inv, ComponentClass.HDD),
    "lifecycle_summary": lambda ds, inv: lifecycle.lifecycle_summary(ds, inv),
    "synchronous_groups": lambda ds, inv: repeating.synchronous_groups(ds),
    "repeat_chains": lambda ds, inv: repeating.repeat_chains(ds),
    "find_pair_examples": lambda ds, inv: correlated.find_pair_examples(
        ds, ComponentClass.FAN, ComponentClass.POWER),
    "detect_batches": lambda ds, inv: batch.detect_batches(ds, ComponentClass.HDD),
    "mine_incidents": lambda ds, inv: mining.mine_incidents(ds),
    "tbf_per_component": lambda ds, inv: tbf.tbf_per_component(ds),
    "mtbf_by_idc": lambda ds, inv: tbf.mtbf_by_idc(ds),
    "hour_of_day_summary": lambda ds, inv: temporal.hour_of_day_summary(ds),
    "weekday_robustness_test": lambda ds, inv: temporal.weekday_robustness_test(ds),
    "quarterly_trends": lambda ds, inv: trends.quarterly_trends(ds),
    "class_share_drift": lambda ds, inv: trends.class_share_drift(
        ds, ComponentClass.HDD),
    "compare_datasets": lambda ds, inv: compare.compare_datasets(
        ds, ds.failures()),
    # The ticket it is asked about is built before the call, from the
    # same store, and counts as held.
    "component_context": lambda ds, inv: _context_of_busiest_host(ds),
}


def _held_tickets(obj: Any, seen: set) -> set:
    """Ids of the distinct ``FOT`` objects reachable from a result."""
    if isinstance(obj, FOT):
        seen.add(id(obj))
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for field in dataclasses.fields(obj):
            _held_tickets(getattr(obj, field.name), seen)
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            _held_tickets(key, seen)
            _held_tickets(value, seen)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            _held_tickets(value, seen)
    return seen


class TestZeroMaterialization:
    def _columnar(self, n=60):
        builder = ColumnBuilder()
        for i in range(n):
            builder.append_ticket(
                make_ticket(
                    fot_id=i,
                    host_id=i % 7,
                    host_idc=f"dc{i % 3:02d}",
                    error_device=_COMPONENTS[i % len(_COMPONENTS)],
                    error_time=float(i) * 1000.0,
                    category=_CATEGORIES[i % len(_CATEGORIES)],
                    source=_SOURCES[i % len(_SOURCES)],
                    product_line=f"line{i % 2}",
                )
            )
        return FOTDataset.from_store(builder.build())

    def test_subsets_and_groupings_allocate_no_tickets(self):
        ds = self._columnar()
        store = ds.store
        subset = ds.failures().of_component(ComponentClass.HDD)
        subset = subset.where(subset.error_times >= 0).take([0])
        ds.of_idc("dc01").of_product_line("line1").of_source(
            DetectionSource.SYSLOG
        )
        ds.between(0.0, 1e9).with_op_time().sorted_by_time()
        for groups in (
            ds.by_category(),
            ds.by_component(),
            ds.by_idc(),
            ds.by_product_line(),
            ds.by_host(),
            ds.by_failure_type(),
        ):
            for view in groups.values():
                view.error_times
        ds.duplicate_suspect_mask()
        ds.concat(ds)
        ds.summary()
        assert store.n_materialized == 0

    def test_full_report_allocates_no_tickets(self, tiny_trace, tmp_path):
        # A row loop, in a comprehension or not, shows up here as
        # materialized tickets.
        path = tmp_path / "trace.fourcol"
        io.save(tiny_trace.dataset, path)
        ds = io.load(path)
        report = repro.full_report(ds, inventory=tiny_trace.inventory)
        names = [s.name for s in report if not s.skipped]
        assert {"fig7", "table_vi", "table_iv"} <= set(names)
        assert ds.store.n_materialized == 0

    @pytest.fixture(scope="class")
    def saved_tiny(self, tiny_trace, tmp_path_factory):
        path = tmp_path_factory.mktemp("tiny") / "trace.fourcol"
        io.save(tiny_trace.dataset, path)
        return path

    @pytest.mark.parametrize("name", sorted(_ANALYSES))
    def test_analysis_allocates_only_the_tickets_it_returns(
        self, name, saved_tiny, tiny_trace
    ):
        """The analyses no report section runs: each may build only
        the tickets its result holds (none for all but four)."""
        ds = io.load(saved_tiny)
        result = _ANALYSES[name](ds, tiny_trace.inventory)
        held = _held_tickets(result, set())
        if name in ("repeat_chains", "component_context", "mine_incidents"):
            assert held  # the bound is not vacuous
        assert ds.store.n_materialized <= len(held)

    def test_iteration_materializes_once(self):
        ds = self._columnar(n=10)
        store = ds.store
        first = list(ds)
        assert store.n_materialized == 10
        again = list(ds)
        assert store.n_materialized == 10
        assert first == again
        # Views share the parent's materialized tickets.
        assert ds.failures()[0] is next(iter(ds.failures()))
