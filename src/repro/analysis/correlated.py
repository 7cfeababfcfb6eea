"""Correlated component failures — Section V-B (Tables VI and VII).

A *correlated component failure* is two different component classes
failing on the same server within a single day.  The paper finds them
rare (0.49 % of ever-failed servers), never involving more than two
classes, dominated by pairs with a miscellaneous report (71.5 % — the
operator noticed the hardware failure and filed a ticket too), with
hard drives in nearly all the remaining pairs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.columns import COMPONENT_CODE, COMPONENT_ORDER
from repro.core.dataset import FOTDataset
from repro.core.grouping import composite_key, distinct, group_slices
from repro.core.ticket import FOT
from repro.core.timeutil import day_index
from repro.core.types import ComponentClass
from repro.robustness.quality import InsufficientDataError

#: An unordered class pair, stored sorted by enum value for stability.
ClassPair = Tuple[ComponentClass, ComponentClass]


def _pair(a: ComponentClass, b: ComponentClass) -> ClassPair:
    return (a, b) if a.value <= b.value else (b, a)


@dataclass(frozen=True)
class CorrelatedStats:
    """Table VI plus the Section V-B headline ratios."""

    pair_counts: Dict[ClassPair, int]
    n_correlated_servers: int
    n_failed_servers: int
    misc_share: float
    hdd_share_of_non_misc: float

    @property
    def correlated_server_fraction(self) -> float:
        """paper: 0.49 % of all servers that ever failed."""
        if self.n_failed_servers == 0:
            raise InsufficientDataError("no failed servers")
        return self.n_correlated_servers / self.n_failed_servers

    def total_pairs(self) -> int:
        return sum(self.pair_counts.values())


def component_pair_counts(dataset: FOTDataset) -> CorrelatedStats:
    """Table VI: count same-server same-day class pairs.

    Days where more than two classes fail contribute every unordered
    pair (the paper observes at most two classes in its data, so this
    matters only for robustness on other datasets).
    """
    failures = dataset.failures()
    if len(failures) == 0:
        raise InsufficientDataError("no failures in dataset")
    days = day_index(failures.error_times).astype(np.int64)
    # The classes failing on each (host, day), as one bit mask per day.
    order, starts, _ = group_slices(composite_key(failures.host_ids, days))
    bits = 1 << failures.component_codes.astype(np.int64)
    classes = np.bitwise_or.reduceat(bits[order], starts)
    multi = (classes & (classes - 1)) != 0  # two or more bits set
    # Expand each distinct multi-class mask once, weighted by the days
    # that show it, in the order those days first appear.
    masks, first, n_days = np.unique(
        classes[multi], return_index=True, return_counts=True
    )
    pair_counts: Dict[ClassPair, int] = defaultdict(int)
    misc_pairs = 0
    non_misc_pairs = 0
    non_misc_with_hdd = 0
    for k in np.argsort(first):
        n = int(n_days[k])
        ordered = sorted(
            (c for code, c in enumerate(COMPONENT_ORDER) if masks[k] >> code & 1),
            key=lambda c: c.value,
        )
        for i, a in enumerate(ordered):
            for b in ordered[i + 1:]:
                pair_counts[_pair(a, b)] += n
                if ComponentClass.MISC in (a, b):
                    misc_pairs += n
                else:
                    non_misc_pairs += n
                    if ComponentClass.HDD in (a, b):
                        non_misc_with_hdd += n

    total_pairs = misc_pairs + non_misc_pairs
    correlated_hosts = failures.host_ids[order[starts[multi]]]
    return CorrelatedStats(
        pair_counts=dict(pair_counts),
        n_correlated_servers=int(distinct(correlated_hosts).size),
        n_failed_servers=int(failures.host_counts()[0].size),
        misc_share=misc_pairs / total_pairs if total_pairs else 0.0,
        hdd_share_of_non_misc=(
            non_misc_with_hdd / non_misc_pairs if non_misc_pairs else 0.0
        ),
    )


@dataclass(frozen=True)
class PairExample:
    """A concrete correlated-failure instance (Table VII)."""

    host_id: int
    hostname: str
    first: FOT
    second: FOT

    @property
    def gap_seconds(self) -> float:
        return self.second.error_time - self.first.error_time


def find_pair_examples(
    dataset: FOTDataset,
    first_class: ComponentClass,
    second_class: ComponentClass,
    limit: int = 10,
) -> List[PairExample]:
    """Concrete same-server same-day examples of one class pair, like
    Table VII's fan/power incidents; ``first``/``second`` are ordered by
    detection time."""
    failures = dataset.failures()
    wanted = {first_class, second_class}
    wanted_codes = np.array(sorted(COMPONENT_CODE[c] for c in wanted))
    sub = failures.where(
        np.isin(failures.component_codes, wanted_codes)
    )
    days = day_index(sub.error_times).astype(np.int64)
    # Groups come back ordered by (host, day) — the same order the old
    # sorted-dict walk produced.
    order, starts, stops = group_slices(composite_key(sub.host_ids, days))

    examples: List[PairExample] = []
    for start, stop in zip(starts, stops):
        group = sub.take(order[start:stop])
        if np.unique(group.component_codes).size < len(wanted):
            continue
        host = int(group.host_ids[0])
        ordered: List[FOT] = group.sorted_by_time().tickets
        first = ordered[0]
        second = next(
            t for t in ordered if t.error_device in wanted - {first.error_device}
        )
        examples.append(
            PairExample(
                host_id=host,
                hostname=first.hostname,
                first=first,
                second=second,
            )
        )
        if len(examples) >= limit:
            break
    return examples


def independence_baseline(dataset: FOTDataset, n_days: int) -> float:
    """Expected probability that a failed server sees two *independent*
    failures on the same day — the paper's "less than 5 %" argument that
    observed pairs are not coincidences."""
    failures = dataset.failures()
    if len(failures) == 0 or n_days <= 0:
        raise ValueError("need failures and a positive day count")
    counts = failures.host_counts()[1]
    # For a server with k failures thrown uniformly over n_days, the
    # chance two land on the same day is 1 - prod(1 - i/n_days).
    probs = []
    for k in counts:
        k = int(min(k, n_days))
        if k < 2:
            probs.append(0.0)
            continue
        log_no_collision = np.sum(np.log1p(-np.arange(k) / n_days))
        probs.append(1.0 - float(np.exp(log_no_collision)))
    return float(np.mean(probs))


__all__ = [
    "ClassPair",
    "CorrelatedStats",
    "component_pair_counts",
    "PairExample",
    "find_pair_examples",
    "independence_baseline",
]
