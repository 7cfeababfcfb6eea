"""Spatial distribution of failures — Section IV (Table IV, Figure 8).

The paper tests, per data center, whether the failure rate at each rack
position is independent of the position (Hypothesis 5), normalizing by
the number of servers at each slot and filtering out repeating failures
first.  Even in DCs where uniformity cannot be rejected, individual
"bad spots" (slots next to the rack power module, slots at the top of
under-floor-cooled racks) stick out beyond mu ± 2 sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.dataset import FOTDataset
from repro.fleet.inventory import Inventory
from repro.robustness.quality import (
    DEFAULT_MAX_POSITION,
    DataQuality,
    InsufficientDataError,
)
from repro.stats.chisquare import ChiSquareResult
from repro.stats.hypotheses import test_rack_position_uniform


#: Structured fallback key for the repeat-failure identity when the
#: packed-int64 fast path would overflow (pathological slot ranges).
_REPEAT_KEY_DTYPE = np.dtype(
    [
        ("host", np.int64),
        ("component", np.int8),
        ("slot", np.int64),
        ("error_type", np.int32),
    ]
)


def _first_occurrence_indices(columns) -> np.ndarray:
    """Positions of the first row of each distinct column tuple, in
    ascending position order.

    Fast path: rank each column (dense codes), pack the ranks into one
    int64 key and ``np.unique(return_index=True)`` it — much faster than
    sorting a structured dtype with element-wise void comparisons.
    """
    ranked = []
    radix = 1
    overflow = False
    for col in columns:
        col = np.asarray(col)
        inv = np.unique(col, return_inverse=True)[1].astype(np.int64)
        width = int(inv.max()) + 1 if inv.size else 1
        if radix > (2**62) // max(width, 1):
            overflow = True
            break
        ranked.append((inv, width))
        radix *= width
    if not overflow:
        key = np.zeros(len(np.asarray(columns[0])), dtype=np.int64)
        for inv, width in ranked:
            key = key * width + inv
        _, first = np.unique(key, return_index=True)
        return np.sort(first)
    keys = np.empty(len(np.asarray(columns[0])), dtype=_REPEAT_KEY_DTYPE)
    for name, col in zip(_REPEAT_KEY_DTYPE.names, columns):
        keys[name] = col
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def deduplicate_repeats(dataset: FOTDataset) -> FOTDataset:
    """Keep only the first occurrence of each (host, component, slot,
    type) — the paper filters out repeating failures "to minimize their
    impact on the statistics".

    Vectorized: one packed-key ``np.unique(return_index=True)`` over the
    time-sorted failures replaces the per-ticket seen-set walk, and the
    result is a zero-copy view.
    """
    subset = dataset.failures().sorted_by_time()
    if len(subset) == 0:
        return subset
    first = _first_occurrence_indices(
        (
            subset.host_ids,
            subset.component_codes,
            subset.device_slots,
            subset.error_type_codes,
        )
    )
    return subset.take(first)


@dataclass(frozen=True)
class RackPositionProfile:
    """Per-slot failure ratio for one data center (Figure 8)."""

    idc: str
    positions: np.ndarray
    failures: np.ndarray
    servers: np.ndarray
    #: Failures per server at each occupied slot; nan where unoccupied.
    ratio: np.ndarray
    test: ChiSquareResult

    def outlier_positions(self, n_sigma: float = 2.0) -> List[int]:
        """Slots whose failure ratio falls outside mu ± n_sigma — the
        paper's anomaly check that exposes slots 22 and 35 in DC A even
        though uniformity is not rejected there."""
        occupied = self.servers > 0
        values = self.ratio[occupied]
        if values.size < 3:
            return []
        mu = float(values.mean())
        sigma = float(values.std())
        if sigma == 0:
            return []
        flags = np.abs(self.ratio - mu) > n_sigma * sigma
        return [int(p) for p in self.positions[occupied & flags]]


def _in_rack(
    slots: np.ndarray,
    idc: str,
    what: str,
    max_position: int,
    quality: Optional[DataQuality],
) -> np.ndarray:
    """Mask of ``slots`` inside ``[0, max_position]``; the rest are
    reported into ``quality`` as excluded."""
    valid = (slots >= 0) & (slots <= max_position)
    if quality is not None:
        quality.note_exclusion(
            f"spatial.rack_position_profile[{idc}]",
            f"{what} outside [0, {max_position}]",
            n_excluded=int((~valid).sum()),
            n_used=int(valid.sum()),
        )
    return valid


def rack_position_profile(
    dataset: FOTDataset,
    inventory: Inventory,
    idc: str,
    *,
    filter_repeats: bool = True,
    granularity: str = "servers",
    max_position: int = DEFAULT_MAX_POSITION,
    quality: Optional[DataQuality] = None,
) -> RackPositionProfile:
    """Per-slot failure ratio and the Hypothesis 5 test for one DC.

    ``granularity="servers"`` (default) counts distinct failed *servers*
    per slot — the paper "count[s] a server failure if any of its
    components fail", and server-level counting keeps the chi-squared
    test valid despite the extreme per-server failure concentration
    (one flapping server would otherwise reject uniformity on its own).
    ``granularity="failures"`` counts raw tickets instead.

    Tickets and inventory servers with implausible rack positions
    (outside ``[0, max_position]`` — inventory glitches in a real dump)
    are excluded and reported into ``quality`` rather than corrupting
    the chi-squared binning or its per-slot denominator.
    """
    if granularity not in ("servers", "failures"):
        raise ValueError(f"unknown granularity: {granularity!r}")
    subset = dataset.failures().of_idc(idc)
    if len(subset) == 0:
        raise InsufficientDataError(f"no failures in data center {idc!r}")
    valid = _in_rack(subset.positions, idc, "rack position", max_position, quality)
    if not valid.all():
        subset = subset.where(valid)
    if len(subset) == 0:
        raise InsufficientDataError(
            f"no failures with plausible rack positions in data center {idc!r}"
        )
    if filter_repeats:
        subset = deduplicate_repeats(subset)
    if granularity == "servers":
        _, first = np.unique(subset.host_ids, return_index=True)
        subset = subset.take(np.sort(first))
    slots = inventory.positions_in(idc)
    in_rack = _in_rack(slots, idc, "inventory rack position", max_position, quality)
    servers = np.bincount(slots[in_rack]).astype(float)
    n_positions = max(int(subset.positions.max()) + 1, servers.size)
    servers = np.pad(servers, (0, n_positions - servers.size))
    counts = np.bincount(subset.positions, minlength=n_positions).astype(float)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(servers > 0, counts / np.maximum(servers, 1e-12), np.nan)
    test = test_rack_position_uniform(
        subset, servers_per_position=servers, n_positions=n_positions
    )
    return RackPositionProfile(
        idc=idc,
        positions=np.arange(n_positions),
        failures=counts,
        servers=servers,
        ratio=ratio,
        test=test,
    )


@dataclass(frozen=True)
class SpatialSummary:
    """Table IV: Hypothesis 5 chi-squared outcomes across data centers."""

    results: Dict[str, ChiSquareResult]

    @property
    def n_datacenters(self) -> int:
        return len(self.results)

    def bucket_counts(self) -> Dict[str, int]:
        """The paper's three p-value buckets."""
        buckets = {"p<0.01": 0, "0.01<=p<0.05": 0, "p>=0.05": 0}
        for result in self.results.values():
            if result.p_value < 0.01:
                buckets["p<0.01"] += 1
            elif result.p_value < 0.05:
                buckets["0.01<=p<0.05"] += 1
            else:
                buckets["p>=0.05"] += 1
        return buckets

    def rejected_at(self, alpha: float) -> List[str]:
        return sorted(
            idc for idc, r in self.results.items() if r.reject_at(alpha)
        )


def rack_position_tests(
    dataset: FOTDataset,
    inventory: Inventory,
    *,
    min_failures: int = 100,
    filter_repeats: bool = True,
    granularity: str = "servers",
    max_position: int = DEFAULT_MAX_POSITION,
    quality: Optional[DataQuality] = None,
) -> SpatialSummary:
    """Hypothesis 5 per data center (Table IV).

    DCs with fewer than ``min_failures`` deduplicated failed servers are
    skipped — a chi-squared test over ~40 slots needs volume.
    """
    results: Dict[str, ChiSquareResult] = {}
    for idc in sorted(dataset.failures().by_idc()):
        try:
            profile = rack_position_profile(
                dataset,
                inventory,
                idc,
                filter_repeats=filter_repeats,
                granularity=granularity,
                max_position=max_position,
                quality=quality,
            )
        except ValueError:
            continue
        if int(profile.failures.sum()) < min_failures:
            continue
        results[idc] = profile.test
    if not results:
        raise InsufficientDataError("no data center has enough failures for the test")
    return SpatialSummary(results=results)


__all__ = [
    "deduplicate_repeats",
    "RackPositionProfile",
    "rack_position_profile",
    "SpatialSummary",
    "rack_position_tests",
]
