"""Differential tests: the one-pass quality and Table IV code against
the implementations it replaced.

The references below are ``DataQuality.assess`` decoding every error
detail, ``FOTDataset.duplicate_suspect_mask``'s five-key lexsort,
``deduplicate_repeats`` on its own dense-rank key packer, and the
per-DC ``rack_position_profile`` / ``rack_position_tests`` that re-filter
and re-deduplicate each data center, with the Hypothesis 5 test they
called — kept verbatim.  The new code must match them exactly on dirty
data: missing ``op_time``, empty and ``None`` error details, ticket
slots -1 and beyond ``max_position``, re-opens inside the window, time
ties, a data center absent from the inventory, out-of-range inventory
slots and failures at empty slots, under all four ``granularity`` x
``filter_repeats`` combinations.  Table IV may add only one record per
data center it could not test; every other exclusion and every
``ChiSquareResult`` field must be the same, bit for bit.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import spatial
from repro.analysis.spatial import RackPositionProfile, SpatialSummary
from repro.core import storage
from repro.core.columns import CATEGORY_CODE
from repro.core.dataset import FOTDataset
from repro.core.ticket import FOT
from repro.core.types import ComponentClass, DetectionSource, FOTCategory
from repro.fleet.inventory import Inventory
from repro.robustness.quality import (
    DEFAULT_MAX_POSITION,
    DataQuality,
    Exclusion,
    FieldCoverage,
    InsufficientDataError,
)
from repro.stats.chisquare import ChiSquareResult, chi_square_counts

# ---------------------------------------------------------------------------
# References: the replaced implementations, unchanged.


def ref_duplicate_suspect_mask(
    dataset: FOTDataset, window_seconds: float = 86400.0
) -> np.ndarray:
    n = len(dataset)
    mask = np.zeros(n, dtype=bool)
    if n < 2:
        mask.setflags(write=False)
        return mask
    times = dataset.error_times
    # Sort by component key, then time, then original position — the
    # same visit order as iterating tickets in stable time order and
    # tracking the previous ticket per component key.
    perm = np.lexsort(
        (
            np.arange(n),
            times,
            dataset.device_slots,
            dataset.component_codes,
            dataset.host_ids,
        )
    )
    host_s = dataset.host_ids[perm]
    comp_s = dataset.component_codes[perm]
    slot_s = dataset.device_slots[perm]
    time_s = times[perm]
    same_key = (
        (host_s[1:] == host_s[:-1])
        & (comp_s[1:] == comp_s[:-1])
        & (slot_s[1:] == slot_s[:-1])
    )
    close = (time_s[1:] - time_s[:-1]) <= window_seconds
    mask[perm[1:][same_key & close]] = True
    mask.setflags(write=False)
    return mask


def ref_assess(
    dataset: FOTDataset,
    max_position: int = DEFAULT_MAX_POSITION,
    duplicate_window_seconds: float = 86400.0,
) -> DataQuality:
    n = len(dataset)
    cat_codes = dataset.category_codes
    closed_mask = (cat_codes == CATEGORY_CODE[FOTCategory.FIXING]) | (
        cat_codes == CATEGORY_CODE[FOTCategory.FALSE_ALARM]
    )
    n_closed = int(closed_mask.sum())
    coverage: Dict[str, FieldCoverage] = {}

    def cov(name: str, present: int, total: int) -> None:
        coverage[name] = FieldCoverage(name, present, total - present)

    def interned_present(codes: np.ndarray, table_name: str) -> np.ndarray:
        # "Usable" means neither missing (-1) nor the empty string,
        # matching the row-first ``v not in (None, "")`` check.
        empty = dataset.store.code_for(table_name, "")
        return (codes >= 0) & (codes != empty)

    cov("op_time", int((~np.isnan(dataset.op_times[closed_mask])).sum()), n_closed)
    cov("action", int((dataset.action_codes[closed_mask] >= 0).sum()), n_closed)
    cov(
        "operator_id",
        int(
            interned_present(
                dataset.operator_id_codes[closed_mask], "operator_id"
            ).sum()
        ),
        n_closed,
    )
    details = dataset.error_details
    cov(
        "error_detail",
        int((np.not_equal(details, None) & np.not_equal(details, "")).sum()),
        n,
    )
    cov(
        "product_line",
        int(interned_present(dataset.product_line_codes, "product_line").sum()),
        n,
    )
    cov("host_idc", int(interned_present(dataset.idc_codes, "idc").sum()), n)

    duplicates = (
        int(ref_duplicate_suspect_mask(dataset, duplicate_window_seconds).sum())
        if n
        else 0
    )

    if n:
        positions = dataset.positions
        out_of_range = int(((positions < 0) | (positions > max_position)).sum())
    else:
        out_of_range = 0

    quality = DataQuality(
        n_tickets=n,
        coverage=coverage,
        duplicate_suspects=duplicates,
        out_of_range_positions=out_of_range,
    )
    quality._derive_warnings(n_closed)
    return quality


REF_REPEAT_KEY_DTYPE = np.dtype(
    [
        ("host", np.int64),
        ("component", np.int8),
        ("slot", np.int64),
        ("error_type", np.int32),
    ]
)


def ref_first_occurrence_indices(columns) -> np.ndarray:
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
    keys = np.empty(len(np.asarray(columns[0])), dtype=REF_REPEAT_KEY_DTYPE)
    for name, col in zip(REF_REPEAT_KEY_DTYPE.names, columns):
        keys[name] = col
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def ref_deduplicate_repeats(dataset: FOTDataset) -> FOTDataset:
    subset = dataset.failures().sorted_by_time()
    if len(subset) == 0:
        return subset
    first = ref_first_occurrence_indices(
        (
            subset.host_ids,
            subset.component_codes,
            subset.device_slots,
            subset.error_type_codes,
        )
    )
    return subset.take(first)


def ref_test_rack_position_uniform(
    dataset: FOTDataset,
    *,
    servers_per_position: Optional[Sequence[float]] = None,
    n_positions: Optional[int] = None,
) -> ChiSquareResult:
    failures = dataset.failures()
    positions = failures.positions
    if positions.size == 0:
        raise ValueError("no failures to test")
    if n_positions is None:
        n_positions = int(positions.max()) + 1
    counts = np.bincount(positions, minlength=n_positions).astype(float)

    if servers_per_position is not None:
        weights = np.asarray(servers_per_position, dtype=float)
        if weights.size < n_positions:
            raise ValueError(
                f"servers_per_position covers {weights.size} slots, "
                f"failures reference {n_positions}"
            )
        weights = weights[:n_positions]
        occupied = weights > 0
        if np.any(counts[~occupied] > 0):
            raise ValueError("failures reported at positions with zero servers")
        counts = counts[occupied]
        probs = weights[occupied] / weights[occupied].sum()
    else:
        probs = None

    return chi_square_counts(
        counts,
        probs,
        hypothesis="failure rate independent of rack position",
    )


def _in_rack(
    slots: np.ndarray,
    idc: str,
    what: str,
    max_position: int,
    quality: Optional[DataQuality],
) -> np.ndarray:
    valid = (slots >= 0) & (slots <= max_position)
    if quality is not None:
        quality.note_exclusion(
            f"spatial.rack_position_profile[{idc}]",
            f"{what} outside [0, {max_position}]",
            n_excluded=int((~valid).sum()),
            n_used=int(valid.sum()),
        )
    return valid


def ref_rack_position_profile(
    dataset: FOTDataset,
    inventory: Inventory,
    idc: str,
    *,
    filter_repeats: bool = True,
    granularity: str = "servers",
    max_position: int = DEFAULT_MAX_POSITION,
    quality: Optional[DataQuality] = None,
) -> RackPositionProfile:
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
        subset = ref_deduplicate_repeats(subset)
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
    test = ref_test_rack_position_uniform(
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


def ref_rack_position_tests(
    dataset: FOTDataset,
    inventory: Inventory,
    *,
    min_failures: int = 100,
    filter_repeats: bool = True,
    granularity: str = "servers",
    max_position: int = DEFAULT_MAX_POSITION,
    quality: Optional[DataQuality] = None,
) -> SpatialSummary:
    results: Dict[str, ChiSquareResult] = {}
    for idc in sorted(dataset.failures().by_idc()):
        try:
            profile = ref_rack_position_profile(
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


# ---------------------------------------------------------------------------
# Dirty traces and inventories.

#: DC names the strategy draws from; the profile oracle also asks for
#: the edge example's dcX and the absent dcZ.
_DCS = ("dcA", "dcB", "dcC", "")
_COMPONENTS = (ComponentClass.HDD, ComponentClass.MEMORY, ComponentClass.SSD)
_CATEGORIES = (FOTCategory.FIXING, FOTCategory.FIXING, FOTCategory.ERROR,
               FOTCategory.FALSE_ALARM)
_COMBINATIONS = [(g, f) for g in ("servers", "failures") for f in (True, False)]


def _inventory(servers) -> Inventory:
    """An inventory of ``(host, dc, slot)`` servers."""
    hosts, dcs, slots = zip(*servers) if servers else ((), (), ())
    n = len(servers)
    return Inventory(hosts, dcs, slots, [0.0] * n, ["pl0"] * n)


@st.composite
def dirty_traces(draw):
    """``(dataset, inventory, max_position)``: hosts with a home DC and
    slot, each failing up to three times, and tickets and inventory
    servers that disagree with them in up to three of every ten draws of
    each kind — a ticket's DC overridden, a slot moved (maybe out of
    range), a server removed — plus, maybe, one DC absent from the
    inventory.  Each kind is often clean, so that some DCs can be tested."""
    max_position = draw(st.sampled_from([3, 5, DEFAULT_MAX_POSITION]), label="max_position")
    dirt = {kind: draw(st.sampled_from([0, 0, 1, 3]), label=f"{kind} dirt")
            for kind in ("dc", "slot", "inventory")}

    def dirty(kind: str) -> bool:
        return draw(st.integers(0, 9)) < dirt[kind]

    def slot_of(host: int) -> int:
        if not dirty("slot"):
            return home_slot[host]
        return draw(st.integers(-1, max_position + 2 if max_position < 100 else 7))

    n_hosts = draw(st.integers(4, 60), label="hosts")
    dcs = st.sampled_from(["dcA", "dcA", *_DCS])
    home_dc = draw(st.lists(dcs, min_size=n_hosts, max_size=n_hosts))
    home_slot = draw(st.lists(st.integers(0, 5), min_size=n_hosts, max_size=n_hosts))
    tickets: List[FOT] = []
    failing = [h for h in range(n_hosts) for _ in range(draw(st.integers(0, 3)))]
    for fot_id, host in enumerate(failing):
        error_time = 21600.0 * draw(st.integers(0, 30))
        op_delay = draw(st.one_of(st.none(), st.integers(0, 5)))
        tickets.append(FOT(
            fot_id=fot_id,
            host_id=host,
            hostname=f"h{host}",
            host_idc=draw(dcs) if dirty("dc") else home_dc[host],
            error_device=draw(st.sampled_from(_COMPONENTS)),
            error_type=draw(st.sampled_from(["SMARTFail", "Unc", ""])),
            error_time=error_time,
            error_position=slot_of(host),
            error_detail=draw(st.sampled_from(["", "sda", None])),
            category=draw(st.sampled_from(_CATEGORIES)),
            source=DetectionSource.SYSLOG,
            product_line=draw(st.sampled_from(["pl0", ""])),
            deployed_at=0.0,
            device_slot=draw(st.integers(0, 2)),
            operator_id=draw(st.sampled_from([None, "", "op1"])),
            op_time=None if op_delay is None else error_time + 3600.0 * op_delay,
        ))
    dataset = FOTDataset(tickets)
    if draw(st.booleans(), label="permuted view"):
        dataset = dataset.take(draw(st.permutations(range(len(dataset)))))

    dropped = draw(st.one_of(st.none(), st.sampled_from(_DCS)), label="DC absent from inventory")
    servers = [
        (host, home_dc[host], slot_of(host))
        for host in range(n_hosts)
        if home_dc[host] != dropped and not dirty("inventory")
    ]
    return dataset, _inventory(servers), max_position


def _edge_trace():
    """dcX fails only at implausible slots and has an out-of-range
    server too; dcA has enough clean volume to be tested."""
    healthy = [(10 + h, "dcA", h % 3) for h in range(30)]
    tickets = [
        FOT(fot_id=i, host_id=host, hostname=f"h{host}", host_idc=dc,
            error_device=ComponentClass.HDD, error_type="SMARTFail",
            error_time=3600.0 * i, error_position=slot, error_detail="sda",
            category=FOTCategory.FIXING, source=DetectionSource.SYSLOG,
            product_line="pl0", deployed_at=0.0)
        for i, (host, dc, slot) in enumerate(
            [(0, "dcX", -1), (1, "dcX", 200), *healthy]
        )
    ]
    servers = [(0, "dcX", -1), (1, "dcX", 1), *healthy]
    return FOTDataset(tickets), _inventory(servers), DEFAULT_MAX_POSITION


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or ``(type, message)`` of the ``ValueError`` it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return (type(exc), str(exc))


def _bits(result: ChiSquareResult) -> tuple:
    """Every field, floats by their exact representation."""
    return (result.statistic.hex(), result.df, result.p_value.hex(), result.n,
            result.bins, result.hypothesis)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _counted(dataset, idc, filter_repeats, granularity, max_position):
    """``(in-range failures, counted failures)`` of one DC, the reference way."""
    subset = dataset.failures().of_idc(idc)
    subset = subset.where((subset.positions >= 0) & (subset.positions <= max_position))
    n_in_range = len(subset)
    if filter_repeats:
        subset = ref_deduplicate_repeats(subset)
    if granularity == "servers":
        return n_in_range, int(np.unique(subset.host_ids).size)
    return n_in_range, len(subset)


# ---------------------------------------------------------------------------


class TestQualityOracle:
    @given(trace=dirty_traces(), window=st.sampled_from([0.0, 21600.0, 86400.0]))
    @settings(max_examples=80, deadline=None)
    def test_duplicate_suspect_mask_matches_reference(self, trace, window):
        dataset = trace[0]
        assert _same_array(
            dataset.duplicate_suspect_mask(window),
            ref_duplicate_suspect_mask(dataset, window),
        )

    @given(trace=dirty_traces(), stored=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_assess_matches_reference(self, trace, stored):
        dataset, _, max_position = trace
        with tempfile.TemporaryDirectory() as tmp:
            if stored:
                # Each side reads a fresh load, so the code under test
                # meets the error details still undecoded.
                path = storage.save_columnar(dataset, Path(tmp) / "t.fourcol")
                got = DataQuality.assess(storage.load_columnar(path), max_position)
                want = ref_assess(storage.load_columnar(path), max_position)
            else:
                got = DataQuality.assess(dataset, max_position)
                want = ref_assess(dataset, max_position)
        assert got.to_dict() == want.to_dict()


class TestSpatialOracle:
    @given(trace=dirty_traces())
    @settings(max_examples=60, deadline=None)
    def test_deduplicate_repeats_matches_reference(self, trace):
        dataset = trace[0]
        got = spatial.deduplicate_repeats(dataset)
        want = ref_deduplicate_repeats(dataset)
        assert _same_array(got._gindices(), want._gindices())

    @given(trace=dirty_traces())
    @example(trace=_edge_trace())
    @settings(max_examples=60, deadline=None)
    def test_rack_position_profile_matches_reference(self, trace):
        dataset, inventory, max_position = trace
        for idc in [*_DCS, "dcX", "dcZ"]:
            for granularity, filter_repeats in _COMBINATIONS:
                kwargs = dict(filter_repeats=filter_repeats, granularity=granularity,
                              max_position=max_position)
                quality = ref_assess(dataset)
                want = _outcome(ref_rack_position_profile, dataset, inventory, idc,
                                quality=quality, **kwargs)
                got = _outcome(spatial.rack_position_profile, dataset, inventory, idc,
                               **kwargs)
                if isinstance(want, tuple):
                    assert got == want
                    continue
                for name in ("positions", "failures", "servers", "ratio"):
                    assert _same_array(getattr(got, name), getattr(want, name)), name
                assert got.idc == want.idc
                assert _bits(got.test) == _bits(want.test)
                assert list(got.exclusions) == quality.exclusions

    @given(trace=dirty_traces(), min_failures=st.sampled_from([0, 1, 4, 10]))
    @example(trace=_edge_trace(), min_failures=0)
    @settings(max_examples=80, deadline=None)
    def test_rack_position_tests_match_reference(self, trace, min_failures):
        dataset, inventory, max_position = trace
        for granularity, filter_repeats in _COMBINATIONS:
            kwargs = dict(min_failures=min_failures, filter_repeats=filter_repeats,
                          granularity=granularity, max_position=max_position)
            quality = ref_assess(dataset)
            want = _outcome(ref_rack_position_tests, dataset, inventory,
                            quality=quality, **kwargs)
            got = _outcome(spatial.rack_position_tests, dataset, inventory, **kwargs)
            if isinstance(want, tuple):
                assert got == want
                continue
            assert list(got.results) == list(want.results)
            for idc, result in want.results.items():
                assert _bits(got.results[idc]) == _bits(result)
            skipped = [e for e in got.exclusions
                       if e.analysis.startswith("spatial.rack_position_tests[")]
            assert [e for e in got.exclusions if e not in skipped] == quality.exclusions
            assert skipped == self._skip_records(dataset, inventory, **kwargs)

    @staticmethod
    def _skip_records(dataset, inventory, *, min_failures, filter_repeats,
                      granularity, max_position) -> List[Exclusion]:
        """One record per DC the reference dropped with an error although
        it had ``min_failures`` counted failures and some in range."""
        records = []
        for idc in sorted(dataset.failures().by_idc()):
            error = _outcome(ref_rack_position_profile, dataset, inventory, idc,
                             filter_repeats=filter_repeats, granularity=granularity,
                             max_position=max_position)
            if not isinstance(error, tuple):
                continue
            n_in_range, n_counted = _counted(dataset, idc, filter_repeats,
                                             granularity, max_position)
            if n_counted >= min_failures and n_in_range:
                records.append(Exclusion(f"spatial.rack_position_tests[{idc}]",
                                         error[1], n_in_range, 0))
        return records


def test_oracle_exercises_every_outcome():
    """The strategy reaches tested DCs and each kind of skipped DC."""
    seen = set()

    @given(trace=dirty_traces())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def collect(trace):
        dataset, inventory, max_position = trace
        for granularity, filter_repeats in _COMBINATIONS:
            for idc in _DCS:
                got = _outcome(spatial.rack_position_profile, dataset, inventory, idc,
                               filter_repeats=filter_repeats, granularity=granularity,
                               max_position=max_position)
                seen.add("tested" if isinstance(got, RackPositionProfile)
                         else got[1].split(" in data center")[0].split(":")[0])

    collect()
    assert {
        "tested",
        "no failures",
        "no failures with plausible rack positions",
        "no servers",
        "failures reported at positions with zero servers",
        "not enough data",
    } <= seen, seen


@pytest.mark.parametrize("granularity,filter_repeats", _COMBINATIONS)
def test_small_trace_matches_reference(small_trace, granularity, filter_repeats):
    """Every DC of a simulated trace, under each combination."""
    kwargs = dict(min_failures=10, filter_repeats=filter_repeats,
                  granularity=granularity)
    quality = ref_assess(small_trace.dataset)
    want = ref_rack_position_tests(small_trace.dataset, small_trace.inventory,
                                   quality=quality, **kwargs)
    got = spatial.rack_position_tests(small_trace.dataset, small_trace.inventory, **kwargs)
    assert {k: _bits(r) for k, r in got.results.items()} == {
        k: _bits(r) for k, r in want.results.items()
    }
    assert list(got.exclusions) == quality.exclusions
