"""Hypothesis oracles for the columnar fleet.

The server-object fleet that ``repro.fleet`` replaced is kept below
verbatim as the reference: ``Server``, ``Rack``, ``DataCenter``,
``Fleet``, ``_product_lines``, ``_generation_for`` and ``build_fleet``
as they stood before the fleet became a struct of arrays.  The builder
helpers the rewrite left as they were (DC sizes, spatial profiles, slot
weights) are imported.  For drawn ``FleetConfig``s and seeds the
columnar fleet must draw the same random numbers in the same order and
equal the reference in every column and every derived view.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FleetConfig, SpatialProfile
from repro.core.timeutil import DAY, YEAR
from repro.core.types import ComponentClass
from repro.fleet import builder
from repro.fleet.builder import _dc_sizes, _spatial_profile
from repro.fleet.component import GENERATIONS, ServerGeneration
from repro.fleet.inventory import Inventory
from repro.fleet.product_line import ProductLine
from repro.fleet.rack import slot_occupancy_weights, slot_risk_multipliers


# ----------------------------------------------------------------------
# reference: the server-object fleet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Server:
    """One physical server.

    Attributes:
        host_id: Fleet-wide unique id.
        hostname: Human-readable name, e.g. ``"dc03-r012-s21"``.
        idc: Data center name.
        rack_id: Rack index within the data center.
        position: Slot number within the rack (0 = bottom).
        pdu_id: Power distribution unit feeding the server's rack.
        product_line: Owning product line name.
        generation: Hardware generation (component counts, model).
        deployed_at: Deployment timestamp, seconds relative to the trace
            epoch (negative = deployed before the study window opened).
    """

    host_id: int
    hostname: str
    idc: str
    rack_id: int
    position: int
    pdu_id: int
    product_line: str
    generation: ServerGeneration
    deployed_at: float

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError(f"position must be >= 0, got {self.position}")

    def component_count(self, component: ComponentClass) -> int:
        return self.generation.count(component)

    def age_seconds(self, at: float) -> float:
        """Service age at time ``at`` (clamped at zero)."""
        return max(0.0, at - self.deployed_at)

    def in_warranty(self, at: float, warranty_seconds: float) -> bool:
        """Whether a failure at time ``at`` is still covered."""
        return self.age_seconds(at) <= warranty_seconds


@dataclass(frozen=True)
class Rack:
    """One rack within a data center.

    Attributes:
        rack_id: Index within the data center.
        idc: Owning data center name.
        n_slots: Physical slot count.
        pdu_id: Power distribution unit feeding this rack.
    """

    rack_id: int
    idc: str
    n_slots: int
    pdu_id: int

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("rack needs at least one slot")


@dataclass(frozen=True)
class DataCenter:
    """One data center (IDC).

    Attributes:
        name: IDC name, e.g. ``"dc07"``.
        built_year: Construction year; DCs built after 2014 have modern
            cooling and a uniform spatial profile (Section IV).
        spatial_profile: How failure risk varies with rack slot.
        racks: The racks in deployment order.
    """

    name: str
    built_year: int
    spatial_profile: SpatialProfile
    racks: Tuple[Rack, ...]

    @property
    def is_modern(self) -> bool:
        """Built after 2014 — the paper's cut for uniform cooling."""
        return self.built_year > 2014

    @property
    def n_slots(self) -> int:
        if not self.racks:
            raise ValueError(f"data center {self.name} has no racks")
        return self.racks[0].n_slots

    @property
    def pdu_ids(self) -> List[int]:
        """Distinct PDUs feeding this DC, sorted."""
        return sorted({rack.pdu_id for rack in self.racks})

    def slot_multipliers(self) -> np.ndarray:
        """Per-slot failure-rate multipliers from the spatial profile."""
        return slot_risk_multipliers(self.spatial_profile, self.n_slots)


class Fleet:
    """All data centers, product lines and servers of one scenario.

    Besides the object graph, the fleet exposes lazily-built columnar
    numpy views of the per-server fields the failure sampler reads in
    its inner loops (deployment times, slot-risk multipliers, component
    counts), so paper-scale sampling never iterates over ``Server``
    objects.
    """

    def __init__(
        self,
        datacenters: Sequence[DataCenter],
        product_lines: Sequence[ProductLine],
        servers: Sequence[Server],
    ):
        if not servers:
            raise ValueError("a fleet needs at least one server")
        self.datacenters: Tuple[DataCenter, ...] = tuple(datacenters)
        self.product_lines: Dict[str, ProductLine] = {
            pl.name: pl for pl in product_lines
        }
        self.servers: Tuple[Server, ...] = tuple(servers)
        self._dc_by_name = {dc.name: dc for dc in self.datacenters}
        self._columns: Dict[str, np.ndarray] = {}
        self._count_columns: Dict[ComponentClass, np.ndarray] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.servers)

    def datacenter(self, name: str) -> DataCenter:
        try:
            return self._dc_by_name[name]
        except KeyError:
            raise KeyError(f"unknown data center: {name!r}") from None

    def product_line(self, name: str) -> ProductLine:
        try:
            return self.product_lines[name]
        except KeyError:
            raise KeyError(f"unknown product line: {name!r}") from None

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------
    def _column(self, name: str, build) -> np.ndarray:
        col = self._columns.get(name)
        if col is None:
            col = build()
            col.setflags(write=False)
            self._columns[name] = col
        return col

    @property
    def deployed_ats(self) -> np.ndarray:
        return self._column(
            "deployed_ats",
            lambda: np.fromiter(
                (s.deployed_at for s in self.servers), dtype=float, count=len(self)
            ),
        )

    @property
    def positions(self) -> np.ndarray:
        return self._column(
            "positions",
            lambda: np.fromiter(
                (s.position for s in self.servers), dtype=np.int32, count=len(self)
            ),
        )

    @property
    def host_ids(self) -> np.ndarray:
        return self._column(
            "host_ids",
            lambda: np.fromiter(
                (s.host_id for s in self.servers), dtype=np.int64, count=len(self)
            ),
        )

    @property
    def idc_codes(self) -> np.ndarray:
        """Index into :attr:`datacenters` per server."""
        codes = {dc.name: i for i, dc in enumerate(self.datacenters)}
        return self._column(
            "idc_codes",
            lambda: np.fromiter(
                (codes[s.idc] for s in self.servers), dtype=np.int32, count=len(self)
            ),
        )

    @property
    def line_codes(self) -> np.ndarray:
        """Index into :attr:`line_names` per server."""
        codes = {name: i for i, name in enumerate(self.line_names)}
        return self._column(
            "line_codes",
            lambda: np.fromiter(
                (codes[s.product_line] for s in self.servers),
                dtype=np.int32,
                count=len(self),
            ),
        )

    @property
    def line_names(self) -> List[str]:
        return sorted(self.product_lines)

    @property
    def generation_codes(self) -> np.ndarray:
        codes = {g.name: i for i, g in enumerate(GENERATIONS)}
        return self._column(
            "generation_codes",
            lambda: np.fromiter(
                (codes[s.generation.name] for s in self.servers),
                dtype=np.int8,
                count=len(self),
            ),
        )

    @property
    def slot_risk(self) -> np.ndarray:
        """Per-server environment multiplier from the DC spatial profile."""

        def build() -> np.ndarray:
            per_dc = {
                dc.name: dc.slot_multipliers() for dc in self.datacenters
            }
            return np.fromiter(
                (per_dc[s.idc][s.position] for s in self.servers),
                dtype=float,
                count=len(self),
            )

        return self._column("slot_risk", build)

    def counts_for(self, component: ComponentClass) -> np.ndarray:
        """Per-server component count."""
        col = self._count_columns.get(component)
        if col is None:
            col = np.fromiter(
                (s.component_count(component) for s in self.servers),
                dtype=np.int32,
                count=len(self),
            )
            col.setflags(write=False)
            self._count_columns[component] = col
        return col

    # ------------------------------------------------------------------
    def servers_of_line(self, line: str) -> List[Server]:
        return [s for s in self.servers if s.product_line == line]

    def servers_of_idc(self, idc: str) -> List[Server]:
        return [s for s in self.servers if s.idc == idc]

    def cohorts(self) -> Dict[Tuple[str, str, str], np.ndarray]:
        """Homogeneous cohorts (idc, product line, generation) -> server
        row indices; batch-failure injectors draw their victims from one
        cohort ("same model, in the same cluster, serving the same
        product line")."""
        keys = [
            (s.idc, s.product_line, s.generation.name) for s in self.servers
        ]
        buckets: Dict[Tuple[str, str, str], List[int]] = {}
        for i, key in enumerate(keys):
            buckets.setdefault(key, []).append(i)
        return {k: np.asarray(v, dtype=np.int64) for k, v in buckets.items()}

    def to_inventory(self) -> Inventory:
        """Export the per-server metadata table the analyses consume.

        Mirrors the paper: component counts are reported for HDD, SSD
        and CPU only; other classes fall back to one-per-server inside
        the analysis.
        """
        reported = (ComponentClass.HDD, ComponentClass.SSD, ComponentClass.CPU)
        return Inventory(
            host_ids=self.host_ids,
            idcs=[s.idc for s in self.servers],
            positions=self.positions,
            deployed_ats=self.deployed_ats,
            product_lines=[s.product_line for s in self.servers],
            component_counts={c: self.counts_for(c) for c in reported},
        )

    def summary(self) -> Dict[str, object]:
        return {
            "servers": len(self),
            "datacenters": len(self.datacenters),
            "product_lines": len(self.product_lines),
            "modern_dcs": sum(dc.is_modern for dc in self.datacenters),
        }


def _product_lines(
    config: FleetConfig, total_servers: int, rng: np.random.Generator
) -> List[ProductLine]:
    """Zipf-sized product lines with workload/fault-tolerance attributes.

    The biggest lines run batch (Hadoop-style) workloads on resilient
    software and review their failure pools lazily; a minority of lines
    are strict online services; very small lines often have nobody
    watching closely (long review intervals — the slow small lines of
    Figure 11).
    """
    n = config.n_product_lines
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-config.product_line_zipf)
    weights /= weights.sum()
    sizes = np.maximum(1, (weights * total_servers).round().astype(int))

    lines: List[ProductLine] = []
    huge_cut = np.quantile(sizes, 0.98)
    for i, size in enumerate(sizes):
        name = f"pl{i:03d}"
        big = size >= np.quantile(sizes, 0.9)
        huge = size >= huge_cut
        if huge:
            # The very biggest lines are the Hadoop-style batch fleets
            # with the most resilient software (Section VI-C).
            workload = "batch"
            fault_tolerance = float(rng.uniform(0.85, 0.98))
            review = float(rng.uniform(25.0, 45.0))
        elif big and rng.random() < 0.75:
            workload = "batch" if rng.random() < 0.7 else "storage"
            fault_tolerance = float(rng.uniform(0.75, 0.98))
            review = float(rng.uniform(5.0, 12.0))
        elif rng.random() < 0.25:
            workload = "online"
            fault_tolerance = float(rng.uniform(0.05, 0.35))
            review = float(rng.uniform(0.0, 1.0))
        else:
            workload = str(rng.choice(["batch", "storage", "online"]))
            fault_tolerance = float(rng.uniform(0.3, 0.8))
            # Small lines frequently have long, lazy review cycles.
            small = size < np.quantile(sizes, 0.5)
            if small and rng.random() < 0.55:
                review = float(rng.uniform(180.0, 400.0))
            else:
                review = float(rng.uniform(2.0, 20.0))
        lines.append(
            ProductLine(
                name=name,
                workload=workload,
                fault_tolerance=fault_tolerance,
                review_interval_days=review,
                expected_servers=int(size),
            )
        )
    return lines


def _generation_for(deployed_at: float, config: FleetConfig):
    """Hardware generation implied by the deployment date: the wave
    window is split evenly across the five generations."""
    start = -config.oldest_wave_years * YEAR
    end = config.newest_wave_years * YEAR
    frac = (deployed_at - start) / (end - start)
    idx = min(len(GENERATIONS) - 1, max(0, int(frac * len(GENERATIONS))))
    return GENERATIONS[idx]


def build_fleet(config: FleetConfig, rng: np.random.Generator) -> Fleet:
    """Assemble the full fleet for one scenario."""
    dc_sizes = _dc_sizes(config, rng)
    total_servers = int(dc_sizes.sum())
    lines = _product_lines(config, total_servers, rng)

    # Modern DCs are the newest ones; assign construction years so that
    # exactly round(modern_fraction * n) of them are post-2014.
    n_dcs = config.n_datacenters
    n_modern = int(round(config.modern_dc_fraction * n_dcs))
    built_years = [
        *(2015 + (i % 2) for i in range(n_modern)),
        *(2010 + (i % 5) for i in range(n_dcs - n_modern)),
    ]
    rng.shuffle(built_years)

    occupancy = slot_occupancy_weights(config.rack_slots)
    occupancy_probs = occupancy / occupancy.sum()
    # Mean occupied slots per rack, used to size rack counts.
    servers_per_rack = config.rack_slots * 0.8

    wave_start = -config.oldest_wave_years * YEAR
    wave_end = config.newest_wave_years * YEAR

    # Line assignment works over a global rack budget: each line gets a
    # contiguous run of racks proportional to its size so that cohorts
    # (same DC + line + generation) are physically clustered.
    line_sizes = np.asarray([pl.expected_servers for pl in lines], dtype=float)
    line_rack_quota = np.maximum(1, np.round(line_sizes / servers_per_rack)).astype(int)
    rack_line_assignment: List[int] = []
    for line_idx, quota in enumerate(line_rack_quota):
        rack_line_assignment.extend([line_idx] * int(quota))
    rng.shuffle(rack_line_assignment)
    assignment_cursor = 0

    datacenters: List[DataCenter] = []
    servers: List[Server] = []
    host_id = 0
    global_pdu = 0

    for dc_idx in range(n_dcs):
        idc = f"dc{dc_idx:02d}"
        built = built_years[dc_idx]
        profile = _spatial_profile(built > 2014, rng, config.legacy_profile_mix)
        target = int(dc_sizes[dc_idx])
        n_racks = max(1, math.ceil(target / servers_per_rack))

        racks: List[Rack] = []
        placed = 0
        for rack_idx in range(n_racks):
            pdu_id = global_pdu + rack_idx // config.racks_per_pdu
            rack = Rack(
                rack_id=rack_idx, idc=idc, n_slots=config.rack_slots, pdu_id=pdu_id
            )
            racks.append(rack)

            if assignment_cursor < len(rack_line_assignment):
                line = lines[rack_line_assignment[assignment_cursor]]
                assignment_cursor += 1
            else:
                line = lines[int(rng.integers(len(lines)))]

            # The whole rack is deployed together (one wave), servers get
            # a small per-server jitter.
            wave = float(rng.uniform(wave_start, wave_end))
            remaining = target - placed
            n_here = min(
                remaining, int(rng.binomial(config.rack_slots, 0.8))
            )
            if n_here <= 0:
                continue
            slots = rng.choice(
                config.rack_slots, size=n_here, replace=False, p=occupancy_probs
            )
            for slot in sorted(int(s) for s in slots):
                deployed_at = wave + float(rng.uniform(0, 14)) * DAY
                generation = _generation_for(deployed_at, config)
                servers.append(
                    Server(
                        host_id=host_id,
                        hostname=f"{idc}-r{rack_idx:03d}-s{slot:02d}",
                        idc=idc,
                        rack_id=rack_idx,
                        position=slot,
                        pdu_id=rack.pdu_id,
                        product_line=line.name,
                        generation=generation,
                        deployed_at=deployed_at,
                    )
                )
                host_id += 1
                placed += 1
            if placed >= target:
                break
        global_pdu += n_racks // config.racks_per_pdu + 1
        datacenters.append(
            DataCenter(
                name=idc,
                built_year=built,
                spatial_profile=profile,
                racks=tuple(racks),
            )
        )

    # Drop product lines that ended up owning no servers (tiny tails).
    owned = {s.product_line for s in servers}
    lines = [pl for pl in lines if pl.name in owned]
    return Fleet(datacenters, lines, servers)


# ----------------------------------------------------------------------
# oracles
# ----------------------------------------------------------------------
fleet_configs = st.builds(
    FleetConfig,
    n_datacenters=st.integers(1, 6),
    servers_per_dc=st.integers(20, 300),
    rack_slots=st.integers(1, 48),
    racks_per_pdu=st.integers(1, 6),
    n_product_lines=st.integers(1, 40),
    product_line_zipf=st.floats(0.3, 2.0),
    modern_dc_fraction=st.floats(0.0, 1.0),
)
seeds = st.integers(0, 2**32 - 1)


def _fleets(config: FleetConfig, seed: int):
    """(reference, columnar) fleets built from the same seed."""
    return (
        build_fleet(config, np.random.default_rng(seed)),
        builder.build_fleet(config, np.random.default_rng(seed)),
    )


def _assert_column(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def _inventory_csv(inventory: Inventory) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inventory.csv"
        inventory.save_csv(path)
        return path.read_bytes()


@settings(max_examples=60, deadline=None)
@given(config=fleet_configs, seed=seeds)
def test_fleet_matches_reference(config, seed):
    ref, fleet = _fleets(config, seed)
    servers = ref.servers

    # the columns
    for name in ("host_ids", "idc_codes", "positions", "line_codes",
                 "generation_codes", "deployed_ats"):
        _assert_column(getattr(fleet, name), getattr(ref, name))
    np.testing.assert_array_equal(fleet.rack_ids, [s.rack_id for s in servers])
    np.testing.assert_array_equal(fleet.pdu_ids, [s.pdu_id for s in servers])

    # data centers and product lines, in the same order
    assert [
        (dc.name, dc.built_year, dc.spatial_profile, dc.n_slots, dc.is_modern)
        for dc in fleet.datacenters
    ] == [
        (dc.name, dc.built_year, dc.spatial_profile, dc.n_slots, dc.is_modern)
        for dc in ref.datacenters
    ]
    assert list(fleet.product_lines.items()) == list(ref.product_lines.items())
    assert fleet.line_names == ref.line_names

    # derived views
    for cls in ComponentClass:
        _assert_column(fleet.counts_for(cls), ref.counts_for(cls))
    _assert_column(fleet.slot_risk, ref.slot_risk)
    got, want = fleet.cohorts(), ref.cohorts()
    assert list(got) == list(want)
    for key, rows in want.items():
        _assert_column(got[key], rows)
    assert fleet.hostnames() == [s.hostname for s in servers]
    assert fleet.idcs() == [s.idc for s in servers]
    assert fleet.lines() == [s.product_line for s in servers]
    assert _inventory_csv(fleet.to_inventory()) == _inventory_csv(ref.to_inventory())
    assert fleet.summary() == ref.summary()


@settings(max_examples=20, deadline=None)
@given(config=fleet_configs, seed=seeds, data=st.data())
def test_take_matches_reference_rows(config, seed, data):
    """A data center's shard (``Fleet.take``) sees its servers exactly
    as the whole fleet does."""
    ref, fleet = _fleets(config, seed)
    dc = data.draw(st.integers(0, len(fleet.datacenters) - 1))
    rows = np.flatnonzero(fleet.idc_codes == dc)
    shard = fleet.take(rows)
    servers = [ref.servers[r] for r in rows]
    assert len(shard) == rows.size
    np.testing.assert_array_equal(shard.deployed_ats, ref.deployed_ats[rows])
    np.testing.assert_array_equal(shard.slot_risk, ref.slot_risk[rows])
    for cls in ComponentClass:
        np.testing.assert_array_equal(shard.counts_for(cls), ref.counts_for(cls)[rows])
    assert shard.hostnames() == [s.hostname for s in servers]
    assert shard.idcs() == [s.idc for s in servers]
    assert shard.lines() == [s.product_line for s in servers]
    np.testing.assert_array_equal(shard.host_ids, [s.host_id for s in servers])
    np.testing.assert_array_equal(shard.positions, [s.position for s in servers])
