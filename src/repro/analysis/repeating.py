"""Repeating failures — Section III-D and Table VIII.

A *repeated failure* is a problem marked solved (the operator issued a
repair order, or an automatic reboot closed it) that then happens again:
same server, same component slot, same failure type.  The paper finds
that replacement-style repairs are effective — over 85 % of fixed
components never repeat — but a small population of servers (~4.5 % of
those that ever failed) flaps, with one extreme server reporting 400+
RAID/HDD failures from a single BBU root cause.

Some of those flapping servers repeat *synchronously* with a
near-identical neighbour (Table VIII), which this module detects by
matching failure timestamps across servers.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columns import CATEGORY_CODE
from repro.core.dataset import FOTDataset
from repro.core.grouping import composite_key, distinct, group_slices
from repro.core.timeutil import DAY
from repro.core.ticket import FOT
from repro.core.types import FOTCategory
from repro.robustness.quality import InsufficientDataError

#: A component identity for repeat detection: host, class, slot, type.
RepeatKey = Tuple[int, str, int, str]

_FIXING = CATEGORY_CODE[FOTCategory.FIXING]


@dataclass(frozen=True)
class RepeatingStats:
    """Headline repeat statistics (Section III-D)."""

    n_fixed_components: int
    n_repeating_components: int
    n_failed_servers: int
    n_repeating_servers: int
    max_failures_single_server: int
    max_failures_host_id: int

    @property
    def repeat_free_fraction(self) -> float:
        """Fraction of fixed components that never repeated (paper:
        over 85 %)."""
        if self.n_fixed_components == 0:
            raise InsufficientDataError("no fixed components")
        return 1.0 - self.n_repeating_components / self.n_fixed_components

    @property
    def repeating_server_fraction(self) -> float:
        """Fraction of ever-failed servers with repeating failures
        (paper: ~4.5 %)."""
        if self.n_failed_servers == 0:
            raise InsufficientDataError("no failed servers")
        return self.n_repeating_servers / self.n_failed_servers


#: Default linking window: a recurrence more than this long after the
#: previous occurrence is treated as a *new* failure of the replacement
#: module, not a repeat of the "solved" problem.
DEFAULT_REPEAT_WINDOW_DAYS = 60.0


def _identity_keys(failures: FOTDataset) -> np.ndarray:
    """One key per ticket for its (host, class, slot, type) identity."""
    return composite_key(
        failures.host_ids,
        failures.component_codes,
        failures.device_slots,
        failures.error_type_codes,
    )


def _chain_slices(
    failures: FOTDataset, window: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The repeat chain of each component identity, as row slices.

    Returns ``(rows, starts, stops)``: chain ``c`` is the ``failures``
    positions ``rows[starts[c]:stops[c]]`` in time order, and chains
    come in the order their identity first fails.
    """
    times = failures.error_times
    by_time = np.argsort(times, kind="stable")
    order, group_starts, group_stops = group_slices(
        _identity_keys(failures)[by_time]
    )
    rows = by_time[order]
    # joined[i]: rows[i + 1] is the same identity failing again within
    # the window, so it extends the run rows[i] belongs to.
    joined = np.diff(times[rows]) <= window
    joined[group_stops[:-1] - 1] = False
    breaks = np.r_[True, ~joined]
    run_of = np.cumsum(breaks) - 1
    run_starts = np.flatnonzero(breaks)
    run_stops = np.r_[run_starts[1:], rows.size]
    # A run counts when a non-final member was closed as D_fixing (an
    # unrepaired D_error component failing again is expected).
    fixed = joined & (failures.category_codes[rows[:-1]] == _FIXING)
    runs = distinct(run_of[:-1][fixed])
    lengths = run_stops[runs] - run_starts[runs]
    groups = np.searchsorted(group_starts, run_starts[runs], side="right") - 1
    # The longest run per identity; lexsort is stable, so the earliest
    # of equally long runs wins.
    pick = np.lexsort((-lengths, groups))
    _, heads = np.unique(groups[pick], return_index=True)
    best = pick[heads]
    best = best[np.argsort(order[group_starts[groups[best]]])]
    return rows, run_starts[runs[best]], run_stops[runs[best]]


def repeat_chains(
    dataset: FOTDataset,
    window_days: float = DEFAULT_REPEAT_WINDOW_DAYS,
) -> Dict[RepeatKey, List[FOT]]:
    """Group *fixed-then-recurred* failures by component identity.

    Two occurrences of the same (host, class, slot, type) are linked
    into a chain when the later one follows within ``window_days`` of
    the earlier — operators replace the whole module, so a failure of
    the same slot years later is the replacement wearing out, not an
    ineffective repair.  Only chains where a non-final occurrence was
    actually closed as D_fixing count (an unrepaired D_error component
    failing again is expected, not a repeat of a "solved" problem).
    Each identity keeps its longest such run (the earliest on a tie).
    Returned chains are time-ordered, have length >= 2 and are keyed in
    the order their identity first fails; only their tickets are
    materialized.
    """
    if window_days <= 0:
        raise ValueError("window_days must be positive")
    failures = dataset.failures()
    rows, starts, stops = _chain_slices(failures, window_days * DAY)
    chains: Dict[RepeatKey, List[FOT]] = {}
    for start, stop in zip(starts, stops):
        chain = list(failures.take(rows[start:stop]))
        first = chain[0]
        key = (first.host_id, first.error_device.value, first.device_slot,
               first.error_type)
        chains[key] = chain
    return chains


def repeating_stats(dataset: FOTDataset) -> RepeatingStats:
    """Compute the Section III-D headline numbers."""
    failures = dataset.failures()
    if len(failures) == 0:
        raise InsufficientDataError("no failures in dataset")
    fixing = failures.category_codes == _FIXING
    rows, starts, _ = _chain_slices(
        failures, DEFAULT_REPEAT_WINDOW_DAYS * DAY
    )
    host_ids, counts = failures.host_counts()
    worst = int(np.argmax(counts))
    return RepeatingStats(
        n_fixed_components=int(distinct(_identity_keys(failures)[fixing]).size),
        # Every chain has a D_fixing member, so every repeating
        # component is also a fixed one.
        n_repeating_components=int(starts.size),
        n_failed_servers=int(host_ids.size),
        n_repeating_servers=int(distinct(failures.host_ids[rows[starts]]).size),
        max_failures_single_server=int(counts[worst]),
        max_failures_host_id=int(host_ids[worst]),
    )


@dataclass(frozen=True)
class SynchronousGroup:
    """Servers whose failures repeatedly co-occur (Table VIII)."""

    host_ids: Tuple[int, ...]
    n_synchronized: int
    example_times: Tuple[float, ...]


def synchronous_groups(
    dataset: FOTDataset,
    window_seconds: float = 60.0,
    min_matches: int = 3,
    min_failures: int = 3,
) -> List[SynchronousGroup]:
    """Find pairs of servers that fail in lockstep.

    Two servers are synchronized when at least ``min_matches`` of their
    failure timestamps fall into the same ``window_seconds`` bucket.
    Only servers with at least ``min_failures`` failures are considered
    (singleton coincidences are unavoidable at fleet scale — the paper's
    point is the *repeated* alignment).
    """
    if window_seconds <= 0:
        raise ValueError("window must be positive")
    failures = dataset.failures()
    order, starts, stops = group_slices(failures.host_ids)
    eligible: Dict[int, np.ndarray] = {}
    for start, stop in zip(starts, stops):
        if stop - start < min_failures:
            continue
        rows = order[start:stop]
        eligible[int(failures.host_ids[rows[0]])] = failures.error_times[
            rows
        ]

    bucket_hosts: Dict[int, set] = defaultdict(set)
    for host, host_times in eligible.items():
        buckets = np.unique((host_times // window_seconds).astype(np.int64))
        for b in buckets:
            bucket_hosts[int(b)].add(host)

    pair_buckets: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for bucket, hosts in bucket_hosts.items():
        if len(hosts) < 2 or len(hosts) > 50:
            # Very crowded buckets are batch failures, not synchronous
            # repeats; skip them (the batch analysis covers those).
            continue
        ordered = sorted(hosts)
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair_buckets[(a, b)].append(bucket)

    groups: List[SynchronousGroup] = []
    for (a, b), buckets in pair_buckets.items():
        if len(buckets) >= min_matches:
            groups.append(
                SynchronousGroup(
                    host_ids=(a, b),
                    n_synchronized=len(buckets),
                    example_times=tuple(
                        float(bucket * window_seconds) for bucket in sorted(buckets)[:5]
                    ),
                )
            )
    groups.sort(key=lambda g: g.n_synchronized, reverse=True)
    return groups


__all__ = [
    "RepeatKey",
    "RepeatingStats",
    "repeat_chains",
    "repeating_stats",
    "SynchronousGroup",
    "synchronous_groups",
]
