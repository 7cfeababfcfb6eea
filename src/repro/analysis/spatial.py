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
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.dataset import FOTDataset
from repro.core.grouping import composite_key, group_slices
from repro.fleet.inventory import Inventory
from repro.robustness.quality import (
    DEFAULT_MAX_POSITION,
    Exclusion,
    InsufficientDataError,
)
from repro.stats.chisquare import ChiSquareResult
from repro.stats.hypotheses import rack_position_chi_square


def deduplicate_repeats(dataset: FOTDataset) -> FOTDataset:
    """Keep only the first occurrence of each (host, component, slot,
    type) — the paper filters out repeating failures "to minimize their
    impact on the statistics".

    One packed key and one group-by over the time-sorted failures; the
    result is a zero-copy view in time order.
    """
    subset = dataset.failures().sorted_by_time()
    key = composite_key(subset.host_ids, subset.component_codes,
                        subset.device_slots, subset.error_type_codes)
    order, starts, _ = group_slices(key)
    return subset.take(np.sort(order[starts]))


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
    #: Tickets and inventory servers left out for implausible slots.
    exclusions: Tuple[Exclusion, ...] = ()

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


class _DCSlots(NamedTuple):
    """One data center's row of :func:`_rack_counts`."""

    idc: str
    failed: np.ndarray  # counted failures per slot
    servers: np.ndarray  # in-range inventory servers per slot
    n_in_range: int  # failure tickets at plausible slots
    listed: bool  # the inventory has servers in this DC
    exclusions: Tuple[Exclusion, ...]


def _rack_counts(
    failures: FOTDataset, inventory: Inventory,
    filter_repeats: bool, granularity: str, max_position: int,
) -> List[_DCSlots]:
    """Count every data center of ``failures`` in one grouped pass: one
    group-by, then one (DC, slot) ``bincount`` per side.  DCs come in
    name order.

    Tickets and inventory servers at slots outside ``[0, max_position]``
    are excluded and reported.  Of the rest, a DC counts each host's
    first failure (``granularity="servers"``), the first failure of each
    (host, component, slot, type) (``"failures"`` with
    ``filter_repeats``) or every failure.  "First" is in stable time
    order under ``filter_repeats`` and in view order otherwise.
    """
    if granularity not in ("servers", "failures"):
        raise ValueError(f"unknown granularity: {granularity!r}")
    dcs = failures.idc_codes.astype(np.int64)
    slots = failures.positions.astype(np.int64)
    valid = (slots >= 0) & (slots <= max_position)
    rows = np.flatnonzero(valid)
    if filter_repeats:
        rows = rows[np.argsort(failures.error_times[rows], kind="stable")]
    identity: Tuple[np.ndarray, ...] = ()
    if granularity == "servers":
        identity = (dcs, failures.host_ids)
    elif filter_repeats:
        identity = (dcs, failures.host_ids, failures.component_codes,
                    failures.device_slots, failures.error_type_codes)
    if identity:
        order, starts, _ = group_slices(composite_key(*(c[rows] for c in identity)))
        rows = rows[order[starts]]

    code_of, server_dcs = inventory.idc_codes()
    store_code = [failures.store.code_for("idc", name) for name in code_of]
    rack_dcs = np.array(store_code, dtype=np.int64)[server_dcs]
    rack_slots = inventory.positions.astype(np.int64)
    known = rack_dcs >= 0  # servers of DCs the tickets name
    in_rack = known & (rack_slots >= 0) & (rack_slots <= max_position)

    names = failures.idc_table
    n_dcs = len(names)
    width = 1 + int(max(slots[rows].max(initial=0), rack_slots[in_rack].max(initial=0)))

    def per_slot(dc: np.ndarray, slot: np.ndarray) -> np.ndarray:
        flat = np.bincount(dc * width + slot, minlength=n_dcs * width)
        return flat.reshape(n_dcs, width)

    per_dc = lambda dc: np.bincount(dc, minlength=n_dcs)
    failed = per_slot(dcs[rows], slots[rows])
    servers = per_slot(rack_dcs[in_rack], rack_slots[in_rack])
    tickets_in, tickets_out = per_dc(dcs[valid]), per_dc(dcs[~valid])
    racks_in, racks_out = per_dc(rack_dcs[in_rack]), per_dc(rack_dcs[known & ~in_rack])
    listed = per_dc(rack_dcs[known]) > 0

    out: List[_DCSlots] = []
    for d in sorted(np.flatnonzero(tickets_in + tickets_out), key=names.__getitem__):
        idc = names[d]
        notes = [("rack position", tickets_out[d], tickets_in[d])]
        if tickets_in[d] and listed[d]:
            notes.append(("inventory rack position", racks_out[d], racks_in[d]))
        exclusions = tuple(
            Exclusion(f"spatial.rack_position_profile[{idc}]",
                      f"{what} outside [0, {max_position}]", int(n_out), int(n_in))
            for what, n_out, n_in in notes if n_out > 0
        )
        out.append(_DCSlots(idc, failed[d], servers[d], int(tickets_in[d]),
                            bool(listed[d]), exclusions))
    return out


def _profile(dc: _DCSlots) -> RackPositionProfile:
    """Figure 8 from one DC's counts; raises ``ValueError`` when the DC
    cannot be tested."""
    if dc.n_in_range == 0:
        raise InsufficientDataError(
            f"no failures with plausible rack positions in data center {dc.idc!r}"
        )
    if not dc.listed:
        raise ValueError(f"no servers in data center {dc.idc!r}")
    n_positions = 1 + int(np.flatnonzero(dc.failed + dc.servers)[-1])
    counts = dc.failed[:n_positions].astype(float)
    servers = dc.servers[:n_positions].astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(servers > 0, counts / np.maximum(servers, 1e-12), np.nan)
    test = rack_position_chi_square(counts, servers)
    return RackPositionProfile(dc.idc, np.arange(n_positions), counts, servers,
                               ratio, test, dc.exclusions)


def rack_position_profile(
    dataset: FOTDataset,
    inventory: Inventory,
    idc: str,
    *,
    filter_repeats: bool = True,
    granularity: str = "servers",
    max_position: int = DEFAULT_MAX_POSITION,
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
    are excluded, and listed in the profile's ``exclusions``, rather
    than corrupting the chi-squared binning or its per-slot denominator.
    """
    counted = _rack_counts(dataset.failures().of_idc(idc), inventory,
                           filter_repeats, granularity, max_position)
    if not counted:
        raise InsufficientDataError(f"no failures in data center {idc!r}")
    return _profile(counted[0])


@dataclass(frozen=True)
class SpatialSummary:
    """Table IV: Hypothesis 5 chi-squared outcomes across data centers."""

    results: Dict[str, ChiSquareResult]
    #: Implausible slots left out, and DCs that could not be tested.
    exclusions: Tuple[Exclusion, ...] = ()

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
) -> SpatialSummary:
    """Hypothesis 5 per data center (Table IV).

    DCs with fewer than ``min_failures`` deduplicated failed servers are
    skipped — a chi-squared test over ~40 slots needs volume.  A DC with
    enough that still cannot be tested (no inventory servers, failures
    at empty slots, too few bins) is skipped too, and its in-range
    failures are reported in ``exclusions``.
    """
    results: Dict[str, ChiSquareResult] = {}
    exclusions: List[Exclusion] = []
    for dc in _rack_counts(dataset.failures(), inventory,
                           filter_repeats, granularity, max_position):
        exclusions.extend(dc.exclusions)
        if int(dc.failed.sum()) < min_failures:
            continue
        try:
            results[dc.idc] = _profile(dc).test
        except ValueError as exc:
            # With no in-range failure, the slot exclusion says it all.
            if dc.n_in_range:
                exclusions.append(Exclusion(f"spatial.rack_position_tests[{dc.idc}]",
                                            str(exc), dc.n_in_range, 0))
    if not results:
        raise InsufficientDataError("no data center has enough failures for the test")
    return SpatialSummary(results=results, exclusions=tuple(exclusions))


__all__ = [
    "deduplicate_repeats",
    "RackPositionProfile",
    "rack_position_profile",
    "SpatialSummary",
    "rack_position_tests",
]
