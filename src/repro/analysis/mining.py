"""Incident mining — the tool Section VII-B of the paper calls for.

The paper's FMS is stateless: every FOT is an island, so operators
re-diagnose repeating and batch failures from scratch ("the correlation
information is lost in FMS, and thus operators have to treat each FOT
independently").  The authors propose a data-mining tool that surfaces
the connections; this module is that tool:

* :func:`mine_incidents` clusters a ticket stream into *incidents* —
  repeat chains on one component, correlated multi-component events on
  one server, and fleet-level batch events — using only ticket fields
  (never the simulator's ground-truth tags).
* :func:`component_context` assembles the history an operator should see
  when a new FOT arrives: prior tickets on the same component, the same
  server, and any fleet-level batch in flight.

The miner is deliberately simple (union-find over pairwise linking
rules) so its behaviour is auditable — the quality the paper demands
from operator-facing tooling.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


import numpy as np

from repro.core.columns import COMPONENT_CODE
from repro.core.dataset import FOTDataset
from repro.core.grouping import group_slices
from repro.core.ticket import FOT
from repro.core.timeutil import DAY, HOUR
from repro.core.types import ComponentClass
from repro.analysis.batch import detect_batches
from repro.analysis.repeating import _identity_keys


@dataclass(frozen=True)
class Incident:
    """A group of FOTs the miner believes share one root cause.

    Attributes:
        incident_id: Stable index within this mining run.
        kind: ``"repeat"`` (one component flapping), ``"multi_component"``
            (several classes on one server, same day) or ``"batch"``
            (many servers, one class, short window).
        tickets: Member tickets, time-ordered.
        servers: Distinct host ids involved.
        span_seconds: Time from first to last member ticket.
        summary: One-line operator-facing description.
    """

    incident_id: int
    kind: str
    tickets: Tuple[FOT, ...]
    servers: Tuple[int, ...]
    span_seconds: float
    summary: str

    def __len__(self) -> int:
        return len(self.tickets)


class _UnionFind:
    """Minimal union-find over ticket indices."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _consecutive_pairs(
    keys: np.ndarray, times: np.ndarray, window_seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``(a, b)`` of each time-ordered ticket ``a`` and the
    next ticket ``b`` with the same key, where ``b`` follows within the
    window."""
    order, _, stops = group_slices(keys)
    first, second = order[:-1], order[1:]
    close = times[second] - times[first] <= window_seconds
    close[stops[:-1] - 1] = False
    return first[close], second[close]


def _union_pairs(uf: _UnionFind, first: np.ndarray, second: np.ndarray) -> None:
    for a, b in zip(first.tolist(), second.tolist()):
        uf.union(a, b)


def _link_repeats(
    failures: FOTDataset, uf: _UnionFind, window_seconds: float
) -> None:
    """Link consecutive tickets on the same (host, class, slot, type)."""
    keys = _identity_keys(failures)
    _union_pairs(uf, *_consecutive_pairs(keys, failures.error_times, window_seconds))


def _link_same_server_same_day(
    failures: FOTDataset, uf: _UnionFind, window_seconds: float
) -> None:
    """Link different-class tickets on one server within a day."""
    first, second = _consecutive_pairs(
        failures.host_ids, failures.error_times, window_seconds
    )
    codes = failures.component_codes
    different = codes[first] != codes[second]
    _union_pairs(uf, first[different], second[different])


def _link_batches(
    tickets: Sequence[FOT],
    uf: _UnionFind,
    dataset: FOTDataset,
    min_batch: int,
) -> List[Tuple[float, float, ComponentClass]]:
    """Link tickets falling inside a detected fleet-level batch window."""
    windows: List[Tuple[float, float, ComponentClass]] = []
    for cls in (ComponentClass.HDD, ComponentClass.POWER,
                ComponentClass.MOTHERBOARD, ComponentClass.MEMORY):
        for event in detect_batches(dataset, cls, min_failures=min_batch):
            windows.append((event.start, event.end, cls))
    for start, end, cls in windows:
        members = [
            i for i, t in enumerate(tickets)
            if t.error_device is cls and start <= t.error_time <= end
        ]
        for a, b in zip(members, members[1:]):
            uf.union(a, b)
    return windows


def mine_incidents(
    dataset: FOTDataset,
    *,
    repeat_window_days: float = 60.0,
    same_server_window_hours: float = 24.0,
    min_batch: int = 25,
    min_incident_size: int = 2,
) -> List[Incident]:
    """Cluster a ticket stream into incidents.

    Three linking rules run over the failures (false alarms excluded),
    and connected components of the resulting graph become incidents:

    1. repeats: same component identity within ``repeat_window_days``;
    2. correlated components: different classes on one server within
       ``same_server_window_hours``;
    3. batches: same class inside a detected fleet-level batch window.

    Singleton tickets are not reported (they are the normal case — the
    whole point is surfacing the connected minority).
    """
    failures = dataset.failures().sorted_by_time()
    tickets = list(failures)
    if not tickets:
        return []
    uf = _UnionFind(len(tickets))
    _link_repeats(failures, uf, repeat_window_days * DAY)
    _link_same_server_same_day(failures, uf, same_server_window_hours * HOUR)
    _link_batches(tickets, uf, failures, min_batch)

    groups: Dict[int, List[int]] = defaultdict(list)
    for i in range(len(tickets)):
        groups[uf.find(i)].append(i)

    incidents: List[Incident] = []
    for members in groups.values():
        if len(members) < min_incident_size:
            continue
        group = [tickets[i] for i in members]
        group.sort(key=lambda t: t.error_time)
        servers = tuple(sorted({t.host_id for t in group}))
        classes = {t.error_device for t in group}
        span = group[-1].error_time - group[0].error_time

        if len(servers) >= 5:
            kind = "batch"
            top = max(classes, key=lambda c: sum(t.error_device is c for t in group))
            summary = (
                f"batch: {len(group)} {top.value} tickets across "
                f"{len(servers)} servers in {span / HOUR:.1f} h"
            )
        elif len(classes) > 1:
            kind = "multi_component"
            names = "+".join(sorted(c.value for c in classes))
            summary = (
                f"correlated {names} failures on host {servers[0]}"
            )
        else:
            kind = "repeat"
            t0 = group[0]
            summary = (
                f"repeating {t0.error_type} on host {t0.host_id} "
                f"{t0.error_detail} ({len(group)} occurrences over "
                f"{span / DAY:.1f} d)"
            )
        incidents.append(
            Incident(
                incident_id=len(incidents),
                kind=kind,
                tickets=tuple(group),
                servers=servers,
                span_seconds=span,
                summary=summary,
            )
        )
    incidents.sort(key=len, reverse=True)
    # Re-number after sorting so ids are stable and ordered by size.
    return [
        Incident(
            incident_id=i,
            kind=inc.kind,
            tickets=inc.tickets,
            servers=inc.servers,
            span_seconds=inc.span_seconds,
            summary=inc.summary,
        )
        for i, inc in enumerate(incidents)
    ]


@dataclass(frozen=True)
class TicketContext:
    """What an operator should see next to a fresh FOT (Section VII-B:
    "the history of the component, the server, its environment")."""

    ticket: FOT
    same_component_history: Tuple[FOT, ...]
    same_server_history: Tuple[FOT, ...]
    active_batch: Optional[str]
    is_probable_repeat: bool

    @property
    def prior_component_failures(self) -> int:
        return len(self.same_component_history)


def component_context(
    dataset: FOTDataset,
    ticket: FOT,
    *,
    history_days: float = 365.0,
    batch_window_hours: float = 12.0,
    batch_threshold: int = 30,
) -> TicketContext:
    """Assemble the operator-facing context for one ticket."""
    horizon = ticket.error_time - history_days * DAY
    failures = dataset.failures()
    times = failures.error_times
    not_self = failures.fot_ids != ticket.fot_id
    same_device = (
        failures.component_codes == COMPONENT_CODE[ticket.error_device]
    )
    batch_like = same_device & (
        np.abs(times - ticket.error_time) <= batch_window_hours * HOUR
    )
    in_window = (times >= horizon) & (times <= ticket.error_time)

    batch_count = int(
        np.count_nonzero(
            not_self & batch_like & (failures.host_ids != ticket.host_id)
        )
    )

    server_mask = (
        not_self
        & (in_window | batch_like)
        & (times <= ticket.error_time)
        & (failures.host_ids == ticket.host_id)
    )
    same_server = list(failures.where(server_mask).tickets)

    try:
        type_code = failures.error_type_table.index(ticket.error_type)
    except ValueError:
        type_code = -1
    component_view = failures.where(
        server_mask
        & same_device
        & (failures.device_slots == ticket.device_slot)
        & (failures.error_type_codes == type_code)
    )
    same_component = list(component_view.tickets)

    active_batch = None
    if batch_count >= batch_threshold:
        active_batch = (
            f"{batch_count} other {ticket.error_device.value} failures "
            f"within {batch_window_hours:.0f} h — possible batch event"
        )
    recent_repeat = bool(
        np.any(ticket.error_time - component_view.error_times <= 60 * DAY)
    )
    return TicketContext(
        ticket=ticket,
        same_component_history=tuple(same_component),
        same_server_history=tuple(same_server),
        active_batch=active_batch,
        is_probable_repeat=recent_repeat,
    )


__all__ = [
    "Incident",
    "mine_incidents",
    "TicketContext",
    "component_context",
]
