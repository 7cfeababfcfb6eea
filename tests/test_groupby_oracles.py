"""Differential tests: every group-by built on ``core.grouping`` against
the row-walking implementation it replaced.

The reference implementations below are the FOT-walking versions of
``repeat_chains`` / ``repeating_stats``, the dict-of-sets pair counter
of ``component_pair_counts``, ``mine_incidents``' two dict-of-lists
linkers and ``FOTDataset._grouped``'s own argsort, kept verbatim.  Each
is obviously correct by inspection and slow; the columnar code must
match it exactly — key order, ticket order, counts — on adversarial
shapes: empty input, one host, time ties, gaps of exactly the repeat
window, equally long runs, D_error-only chains, -1 codes and host ids
beyond 2**61.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import correlated, mining, repeating
from repro.analysis.correlated import ClassPair, CorrelatedStats, _pair
from repro.analysis.repeating import RepeatingStats, RepeatKey
from repro.core.columns import CATEGORY_ORDER, COMPONENT_ORDER, ColumnBuilder
from repro.core.dataset import FOTDataset
from repro.core.grouping import composite_key
from repro.core.ticket import FOT
from repro.core.timeutil import DAY, day_index
from repro.core.types import ComponentClass, FOTCategory
from tests.test_columnar_equivalence import _ticket
from tests.test_ticket import make_ticket

# ---------------------------------------------------------------------------
# References: the pre-``core.grouping`` implementations, unchanged.


def _repeat_key(ticket: FOT) -> RepeatKey:
    return (
        ticket.host_id,
        ticket.error_device.value,
        ticket.device_slot,
        ticket.error_type,
    )


def ref_repeat_chains(
    dataset: FOTDataset,
    window_days: float = repeating.DEFAULT_REPEAT_WINDOW_DAYS,
) -> Dict[RepeatKey, List[FOT]]:
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    window = window_days * DAY
    by_key: Dict[RepeatKey, List[FOT]] = defaultdict(list)
    for ticket in dataset.failures().sorted_by_time():
        by_key[_repeat_key(ticket)].append(ticket)

    chains: Dict[RepeatKey, List[FOT]] = {}
    for key, tickets in by_key.items():
        if len(tickets) < 2:
            continue
        # Split the occurrence list into runs with gaps <= window.
        run: List[FOT] = [tickets[0]]
        best: List[FOT] = []

        def consider(candidate: List[FOT]) -> None:
            nonlocal best
            if len(candidate) < 2:
                return
            if not any(t.category is FOTCategory.FIXING for t in candidate[:-1]):
                return
            if len(candidate) > len(best):
                best = list(candidate)

        for prev, cur in zip(tickets, tickets[1:]):
            if cur.error_time - prev.error_time <= window:
                run.append(cur)
            else:
                consider(run)
                run = [cur]
        consider(run)
        if best:
            chains[key] = best
    return chains


def ref_repeating_stats(dataset: FOTDataset) -> RepeatingStats:
    failures = dataset.failures()
    if len(failures) == 0:
        raise ValueError("no failures in dataset")

    fixed_components = {
        _repeat_key(t) for t in failures if t.category is FOTCategory.FIXING
    }
    chains = ref_repeat_chains(dataset)
    repeating_components = set(chains) & fixed_components
    repeating_servers = {key[0] for key in chains}

    host_ids, counts = np.unique(failures.host_ids, return_counts=True)
    worst = int(np.argmax(counts))
    return RepeatingStats(
        n_fixed_components=len(fixed_components),
        n_repeating_components=len(repeating_components),
        n_failed_servers=int(host_ids.size),
        n_repeating_servers=len(repeating_servers),
        max_failures_single_server=int(counts[worst]),
        max_failures_host_id=int(host_ids[worst]),
    )


def _same_day_pairs(dataset: FOTDataset) -> Dict[Tuple[int, int], set]:
    """(host, day) -> set of component classes failing that day."""
    failures = dataset.failures()
    days = day_index(failures.error_times).astype(np.int64)
    # Dedup (host, day, class) triples in numpy, then expand the much
    # smaller unique set into the dict-of-sets the callers consume.
    n_classes = len(COMPONENT_ORDER)
    triples = np.unique(
        composite_key(failures.host_ids, days) * n_classes
        + failures.component_codes.astype(np.int64)
    )
    day_low = int(days.min()) if days.size else 0
    day_span = (int(days.max()) - day_low + 1) if days.size else 1
    out: Dict[Tuple[int, int], set] = defaultdict(set)
    for triple in triples:
        host_day, code = divmod(int(triple), n_classes)
        host, day = divmod(host_day, day_span)
        out[(host, day + day_low)].add(COMPONENT_ORDER[code])
    return out


def ref_component_pair_counts(dataset: FOTDataset) -> CorrelatedStats:
    failures = dataset.failures()
    if len(failures) == 0:
        raise ValueError("no failures in dataset")
    by_host_day = _same_day_pairs(dataset)

    pair_counts: Dict[ClassPair, int] = defaultdict(int)
    correlated_servers = set()
    misc_pairs = 0
    non_misc_pairs = 0
    non_misc_with_hdd = 0
    for (host, _), classes in by_host_day.items():
        if len(classes) < 2:
            continue
        correlated_servers.add(host)
        ordered = sorted(classes, key=lambda c: c.value)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair_counts[_pair(a, b)] += 1
                if ComponentClass.MISC in (a, b):
                    misc_pairs += 1
                else:
                    non_misc_pairs += 1
                    if ComponentClass.HDD in (a, b):
                        non_misc_with_hdd += 1

    total_pairs = misc_pairs + non_misc_pairs
    n_failed = int(np.unique(failures.host_ids).size)
    return CorrelatedStats(
        pair_counts=dict(pair_counts),
        n_correlated_servers=len(correlated_servers),
        n_failed_servers=n_failed,
        misc_share=misc_pairs / total_pairs if total_pairs else 0.0,
        hdd_share_of_non_misc=(
            non_misc_with_hdd / non_misc_pairs if non_misc_pairs else 0.0
        ),
    )


def _link_repeats(
    tickets: Sequence[FOT], uf: mining._UnionFind, window_seconds: float
) -> None:
    """Link consecutive tickets on the same (host, class, slot, type)."""
    by_component: Dict[tuple, List[int]] = defaultdict(list)
    for i, t in enumerate(tickets):
        by_component[(t.host_id, t.error_device, t.device_slot, t.error_type)].append(i)
    for indices in by_component.values():
        for a, b in zip(indices, indices[1:]):
            if tickets[b].error_time - tickets[a].error_time <= window_seconds:
                uf.union(a, b)


def _link_same_server_same_day(
    tickets: Sequence[FOT], uf: mining._UnionFind, window_seconds: float
) -> None:
    """Link different-class tickets on one server within a day."""
    by_host: Dict[int, List[int]] = defaultdict(list)
    for i, t in enumerate(tickets):
        by_host[t.host_id].append(i)
    for indices in by_host.values():
        for a, b in zip(indices, indices[1:]):
            close = tickets[b].error_time - tickets[a].error_time <= window_seconds
            different = tickets[a].error_device is not tickets[b].error_device
            if close and different:
                uf.union(a, b)


def _grouped(self: FOTDataset, values: np.ndarray) -> List[Tuple[int, FOTDataset]]:
    """``FOTDataset._grouped`` with its own argsort (``self`` is the
    dataset)."""
    values = np.asarray(values)
    n = values.size
    if n == 0:
        return []
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    bounds = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [n]))
    groups = sorted(
        ((int(ordered[s]), order[s:e]) for s, e in zip(starts, ends)),
        key=lambda group: int(group[1][0]),
    )
    return [(key, self._take_local(rows)) for key, rows in groups]


# ---------------------------------------------------------------------------
# Adversarial datasets built from the shared ``_ticket`` strategy.

#: Detection times on a 30-day grid: ties, gaps of exactly the 60-day
#: repeat window, and one gap just past it.
_GRID_TIMES = [0.0, 30 * DAY, 60 * DAY, 120 * DAY, 125 * DAY, 185 * DAY]

_HUGE_HOST = 2**61


@st.composite
def _adversarial_tickets(draw, huge_hosts=True, max_size=30):
    """Ticket lists in hostile shapes, drawn per list: grid times; one
    host (3 or -1, or 2**61 when ``huge_hosts``); many hosts past 2**61
    (when ``huge_hosts``); D_error-only failures.  Any ticket may sit in
    device slot -1."""
    n = draw(st.integers(min_value=0, max_value=max_size))
    grid = draw(st.booleans())
    shapes = [None, 3, -1] + ([_HUGE_HOST, "huge"] if huge_hosts else [])
    host_shape = draw(st.sampled_from(shapes))
    error_only = draw(st.booleans())
    tickets = []
    for fot_id in range(n):
        ticket = draw(_ticket(fot_id=fot_id))
        changes = {"device_slot": draw(st.integers(min_value=-1, max_value=2))}
        if grid:
            changes["error_time"] = draw(st.sampled_from(_GRID_TIMES))
            if ticket.op_time is not None:
                changes["op_time"] = changes["error_time"] + (
                    ticket.op_time - ticket.error_time
                )
        if host_shape == "huge":
            changes["host_id"] = _HUGE_HOST + ticket.host_id * 2**60
        elif host_shape is not None:
            changes["host_id"] = host_shape
        if error_only and ticket.category is FOTCategory.FIXING:
            changes.update(
                category=FOTCategory.ERROR, action=None, operator_id=None,
                op_time=None,
            )
        tickets.append(dataclasses.replace(ticket, **changes))
    return tickets


def _columnar(tickets: List[FOT]) -> FOTDataset:
    """The tickets through the loader route (no FOT objects cached)."""
    builder = ColumnBuilder()
    for ticket in tickets:
        builder.append_ticket(ticket)
    return FOTDataset.from_store(builder.build())


def _chain_ids(chains: Dict[RepeatKey, List[FOT]]):
    return [(key, [t.fot_id for t in chain]) for key, chain in chains.items()]


def _partition(uf: mining._UnionFind, n: int) -> List[int]:
    """Each ticket's smallest fellow member — independent of which root
    the union order left in charge."""
    roots = [uf.find(i) for i in range(n)]
    smallest: Dict[int, int] = {}
    for i, root in enumerate(roots):
        smallest.setdefault(root, i)
    return [smallest[root] for root in roots]


def _same_result(reference, columnar, tickets):
    """The reference over the tickets and the columnar version over the
    loader route both raise ``ValueError`` or return equal results."""
    ds = _columnar(tickets)
    try:
        expected = reference(FOTDataset(tickets))
    except ValueError:
        with pytest.raises(ValueError):
            columnar(ds)
        return None, None
    actual = columnar(ds)
    assert actual == expected
    assert ds.store.n_materialized == 0
    return actual, expected


class TestRepeatOracle:
    @given(tickets=_adversarial_tickets(),
           window=st.sampled_from([1.0, 60.0, 90.0]))
    @settings(max_examples=150, deadline=None)
    def test_repeat_chains_match(self, tickets, window):
        expected = ref_repeat_chains(FOTDataset(tickets), window_days=window)
        actual = repeating.repeat_chains(_columnar(tickets), window_days=window)
        assert _chain_ids(actual) == _chain_ids(expected)

    @given(tickets=_adversarial_tickets())
    @settings(max_examples=150, deadline=None)
    def test_repeating_stats_match(self, tickets):
        _same_result(ref_repeating_stats, repeating.repeating_stats, tickets)

    def test_first_of_equally_long_runs_wins(self):
        def at(fot_id, day):
            return make_ticket(fot_id=fot_id, error_time=day * DAY,
                               op_time=day * DAY + 1.0)

        # Two qualifying two-ticket runs of one identity, 100 days apart.
        tickets = [at(1, 0), at(2, 10), at(3, 110), at(4, 120)]
        for order in (tickets, tickets[::-1]):
            chains = repeating.repeat_chains(_columnar(order))
            assert _chain_ids(chains) == _chain_ids(
                ref_repeat_chains(FOTDataset(order))
            )
            assert [t.fot_id for t in next(iter(chains.values()))] == [1, 2]

    def test_error_only_chain_is_no_repeat(self):
        tickets = [
            make_ticket(fot_id=i, error_time=i * DAY,
                        category=FOTCategory.ERROR)
            for i in range(4)
        ]
        assert repeating.repeat_chains(_columnar(tickets)) == {}
        assert ref_repeat_chains(FOTDataset(tickets)) == {}

    def test_key_order_is_first_failure_order(self):
        def chain(host, start_day, first_id):
            return [
                make_ticket(fot_id=first_id + i, host_id=host,
                            error_time=(start_day + i) * DAY,
                            op_time=(start_day + i) * DAY + 1.0)
                for i in range(2)
            ]

        # Host 9 fails first, so its chain is keyed first despite the
        # larger id.
        tickets = chain(2, 50, 10) + chain(9, 5, 20)
        chains = repeating.repeat_chains(_columnar(tickets))
        assert [key[0] for key in chains] == [9, 2]
        assert _chain_ids(chains) == _chain_ids(
            ref_repeat_chains(FOTDataset(tickets))
        )


class TestPairOracle:
    # The reference decodes its packed (host, day, class) key, which is
    # only sound while the packing fits int64: no huge host ids here
    # (TestCompositeKey covers those).
    @given(tickets=_adversarial_tickets(huge_hosts=False))
    @settings(max_examples=150, deadline=None)
    def test_component_pair_counts_match(self, tickets):
        actual, expected = _same_result(
            ref_component_pair_counts, correlated.component_pair_counts, tickets
        )
        if actual is not None:
            assert list(actual.pair_counts) == list(expected.pair_counts)


class TestIncidentOracle:
    @given(tickets=_adversarial_tickets(),
           hours=st.sampled_from([1.0, 24.0, 24.0 * 90]))
    @settings(max_examples=100, deadline=None)
    def test_links_match(self, tickets, hours):
        failures = _columnar(tickets).failures().sorted_by_time()
        n = len(failures)
        for ref_link, link, window in (
            (_link_repeats, mining._link_repeats, 60 * DAY),
            (_link_same_server_same_day, mining._link_same_server_same_day,
             hours * 3600.0),
        ):
            expected, actual = mining._UnionFind(n), mining._UnionFind(n)
            ref_link(list(failures), expected, window)
            link(failures, actual, window)
            assert _partition(actual, n) == _partition(expected, n)

    @given(tickets=_adversarial_tickets())
    @settings(max_examples=60, deadline=None)
    def test_mine_incidents_match(self, tickets):
        ds = _columnar(tickets)
        with mock.patch.object(mining, "_link_repeats", _link_repeats), \
                mock.patch.object(
                    mining, "_link_same_server_same_day",
                    _link_same_server_same_day,
                ):
            expected = mining.mine_incidents(ds, min_batch=3)
        assert mining.mine_incidents(ds, min_batch=3) == expected


class TestGroupedOracle:
    @given(tickets=_adversarial_tickets())
    @settings(max_examples=100, deadline=None)
    def test_by_star_match(self, tickets):
        ds = _columnar(tickets)
        for by, column, label in (
            (ds.by_category, ds.category_codes, CATEGORY_ORDER.__getitem__),
            (ds.by_component, ds.component_codes, COMPONENT_ORDER.__getitem__),
            (ds.by_idc, ds.idc_codes, ds.idc_table.__getitem__),
            (ds.by_product_line, ds.product_line_codes,
             ds.product_line_table.__getitem__),
            (ds.by_host, ds.host_ids, int),
            (ds.by_failure_type, ds.error_type_codes,
             ds.error_type_table.__getitem__),
        ):
            groups = by()
            expected = _grouped(ds, column)
            assert list(groups) == [label(code) for code, _ in expected]
            for view, (_, ref_view) in zip(groups.values(), expected):
                np.testing.assert_array_equal(view.fot_ids, ref_view.fot_ids)
        assert ds.store.n_materialized == 0


class TestCompositeKey:
    @given(
        rows=st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.lists(
                st.tuples(*[st.integers(-(2**63), 2**63 - 1)] * k),
                min_size=1,
                max_size=20,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_injective_and_lexicographic(self, rows):
        rows = sorted(set(rows))
        columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
        # Distinct rows in lexicographic order: keys must strictly rise.
        keys = composite_key(*columns).tolist()
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_two_columns_unchanged_without_overflow(self):
        keys = composite_key(np.array([3, 1, 3]), np.array([-1, 4, 2]))
        np.testing.assert_array_equal(keys, [3 * 6 + 0, 1 * 6 + 5, 3 * 6 + 3])

    def test_huge_hosts_do_not_collide(self):
        keys = composite_key([2**61, 2**61 + 2**62, 5], [0, 0, 3])
        assert list(np.argsort(keys)) == [2, 0, 1]
        assert np.unique(keys).size == 3

    def test_bad_columns_rejected(self):
        with pytest.raises(ValueError, match="differ in shape"):
            composite_key(np.arange(3), np.arange(4))
        with pytest.raises(ValueError, match="at least one"):
            composite_key()

    def test_huge_host_ids_in_analyses(self):
        hosts = [2**61, 2**61 + 2**62]
        tickets = []
        for h, host in enumerate(hosts):
            for i, (cls, day) in enumerate((
                (ComponentClass.HDD, 10.0),
                (ComponentClass.FAN, 10.5),
                (ComponentClass.HDD, 12.0),
            )):
                tickets.append(make_ticket(
                    fot_id=10 * h + i, host_id=host, error_device=cls,
                    error_time=day * DAY + h, op_time=day * DAY + h + 1.0,
                ))
        ds = _columnar(tickets)
        chains = repeating.repeat_chains(ds)
        assert _chain_ids(chains) == [
            ((host, "hdd", 0, "SMARTFail"), [10 * h, 10 * h + 2])
            for h, host in enumerate(hosts)
        ]
        stats = correlated.component_pair_counts(ds)
        assert stats.pair_counts == {
            (ComponentClass.FAN, ComponentClass.HDD): 2
        }
        assert stats.n_correlated_servers == 2
        assert stats.n_failed_servers == 2
