"""The assembled fleet: one table of servers, held as parallel columns."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.grouping import composite_key, group_slices
from repro.core.types import ComponentClass
from repro.fleet.component import GENERATIONS
from repro.fleet.datacenter import DataCenter
from repro.fleet.product_line import ProductLine
from repro.fleet.inventory import Inventory

#: The per-server columns and their dtypes; every other per-server value
#: is derived from them.
_COLUMNS: Dict[str, type] = {
    "host_ids": np.int64,
    "idc_codes": np.int32,
    "rack_ids": np.int32,
    "positions": np.int32,
    "pdu_ids": np.int64,
    "line_codes": np.int32,
    "generation_codes": np.int8,
    "deployed_ats": np.float64,
}


def _frozen(col: np.ndarray) -> np.ndarray:
    col.setflags(write=False)
    return col


class Fleet:
    """All data centers, product lines and servers of one scenario.

    A struct of arrays: server ``i`` is row ``i`` of these read-only
    columns —

    * ``host_ids`` — fleet-wide server id;
    * ``idc_codes`` — index into :attr:`datacenters`;
    * ``rack_ids`` — rack index within the data center;
    * ``positions`` — rack slot, ``0 <= slot < n_slots`` of the DC
      (0 = bottom);
    * ``pdu_ids`` — power distribution unit feeding the server's rack;
    * ``line_codes`` — index into :attr:`line_names`;
    * ``generation_codes`` — index into
      :data:`~repro.fleet.component.GENERATIONS`;
    * ``deployed_ats`` — deployment time, seconds from the trace epoch
      (negative = deployed before the study window opened).

    Component counts, slot risk, names, cohorts and the inventory are
    views derived from these columns.
    """

    host_ids: np.ndarray
    idc_codes: np.ndarray
    rack_ids: np.ndarray
    positions: np.ndarray
    pdu_ids: np.ndarray
    line_codes: np.ndarray
    generation_codes: np.ndarray
    deployed_ats: np.ndarray

    def __init__(
        self,
        datacenters: Sequence[DataCenter],
        product_lines: Sequence[ProductLine],
        **columns: Sequence,
    ):
        if set(columns) != set(_COLUMNS):
            raise ValueError(f"a fleet needs exactly the columns {sorted(_COLUMNS)}")
        self.datacenters: Tuple[DataCenter, ...] = tuple(datacenters)
        self.product_lines: Dict[str, ProductLine] = {
            pl.name: pl for pl in product_lines
        }
        self.line_names: List[str] = sorted(self.product_lines)
        self._dc_by_name = {dc.name: dc for dc in self.datacenters}
        for name, dtype in _COLUMNS.items():
            setattr(self, name, _frozen(np.array(columns[name], dtype=dtype)))
        n = len(self)
        if any(getattr(self, name).shape != (n,) for name in _COLUMNS):
            raise ValueError(f"fleet columns must all have shape ({n},)")
        n_slots = np.array([dc.n_slots for dc in self.datacenters], dtype=np.int32)
        if n and not np.all(
            (self.positions >= 0) & (self.positions < n_slots[self.idc_codes])
        ):
            raise ValueError("every rack slot must lie in 0 .. n_slots - 1 of its DC")
        self._slot_risk: Optional[np.ndarray] = None
        self._count_columns: Dict[ComponentClass, np.ndarray] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.host_ids.size)

    def take(self, rows: np.ndarray) -> "Fleet":
        """The servers at ``rows`` as a fleet of their own, with the
        same data centers and product lines (one DC's shard)."""
        return Fleet(
            self.datacenters,
            self.product_lines.values(),
            **{name: getattr(self, name)[rows] for name in _COLUMNS},
        )

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
    # derived views
    # ------------------------------------------------------------------
    @property
    def slot_risk(self) -> np.ndarray:
        """Per-server environment multiplier from the DC spatial profile:
        one lookup into a (DC, slot) table."""
        if self._slot_risk is None:
            table = np.zeros(
                (len(self.datacenters), max(dc.n_slots for dc in self.datacenters))
            )
            for i, dc in enumerate(self.datacenters):
                table[i, : dc.n_slots] = dc.slot_multipliers()
            self._slot_risk = _frozen(table[self.idc_codes, self.positions])
        return self._slot_risk

    def counts_for(self, component: ComponentClass) -> np.ndarray:
        """Per-server component count: the server's generation's count."""
        col = self._count_columns.get(component)
        if col is None:
            per_generation = np.array(
                [g.count(component) for g in GENERATIONS], dtype=np.int32
            )
            col = _frozen(per_generation[self.generation_codes])
            self._count_columns[component] = col
        return col

    def idcs(self) -> List[str]:
        """Data center name of every server."""
        names = np.array([dc.name for dc in self.datacenters], dtype=object)
        return names[self.idc_codes].tolist()

    def lines(self) -> List[str]:
        """Product line name of every server."""
        return np.array(self.line_names, dtype=object)[self.line_codes].tolist()

    def hostnames(self) -> List[str]:
        """Every server's name, e.g. ``"dc03-r012-s21"``."""
        return [
            f"{idc}-r{rack:03d}-s{slot:02d}"
            for idc, rack, slot in zip(
                self.idcs(), self.rack_ids.tolist(), self.positions.tolist()
            )
        ]

    def cohorts(self) -> Dict[Tuple[str, str, str], np.ndarray]:
        """Homogeneous cohorts (idc, product line, generation) -> server
        rows, ascending; batch-failure injectors draw their victims from
        one cohort ("same model, in the same cluster, serving the same
        product line").

        Cohorts come in the order of their first row.  Callers pick
        cohorts by position with random draws, so this order is part of
        the simulator's output.
        """
        order, starts, stops = group_slices(
            composite_key(self.idc_codes, self.line_codes, self.generation_codes)
        )
        firsts = order[starts]
        cohorts: Dict[Tuple[str, str, str], np.ndarray] = {}
        for g in np.argsort(firsts).tolist():
            row = firsts[g]
            key = (
                self.datacenters[self.idc_codes[row]].name,
                self.line_names[self.line_codes[row]],
                GENERATIONS[self.generation_codes[row]].name,
            )
            cohorts[key] = order[starts[g]:stops[g]]
        return cohorts

    def to_inventory(self) -> Inventory:
        """Export the per-server metadata table the analyses consume.

        Mirrors the paper: component counts are reported for HDD, SSD
        and CPU only; other classes fall back to one-per-server inside
        the analysis.
        """
        reported = (ComponentClass.HDD, ComponentClass.SSD, ComponentClass.CPU)
        return Inventory(
            host_ids=self.host_ids,
            idcs=self.idcs(),
            positions=self.positions,
            deployed_ats=self.deployed_ats,
            product_lines=self.lines(),
            component_counts={c: self.counts_for(c) for c in reported},
        )

    def summary(self) -> Dict[str, object]:
        return {
            "servers": len(self),
            "datacenters": len(self.datacenters),
            "product_lines": len(self.product_lines),
            "modern_dcs": sum(dc.is_modern for dc in self.datacenters),
        }


__all__ = ["Fleet"]
