"""Per-server inventory table used by the analyses.

The paper's lifecycle analysis (Section III-C) divides failure counts by
the number of properly-working components in each service-month, and the
spatial analysis (Section IV) normalizes failures by the number of
servers at each rack position.  Both denominators come from server
metadata, not from the tickets — so they live in this lightweight
columnar table, which the fleet can export and a real deployment could
load from CSV alongside its ticket dump.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.timeutil import MONTH
from repro.core.types import ComponentClass


class Inventory:
    """Columnar per-server metadata.

    All arrays are parallel, one entry per server:

    * ``host_ids`` — fleet-wide server ids.
    * ``idcs`` — data center name per server.
    * ``positions`` — rack slot per server.
    * ``deployed_ats`` — deployment timestamps (may be negative:
      deployed before the trace window opened).
    * ``product_lines`` — owning product line per server.
    * ``component_counts`` — mapping component class -> per-server count
      array.  Classes missing from the mapping fall back to "one per
      server", the paper's own approximation for components whose counts
      the dataset does not report.
    """

    def __init__(
        self,
        host_ids: Sequence[int],
        idcs: Sequence[str],
        positions: Sequence[int],
        deployed_ats: Sequence[float],
        product_lines: Sequence[str],
        component_counts: Optional[Mapping[ComponentClass, Sequence[int]]] = None,
    ):
        self.host_ids = np.ascontiguousarray(host_ids, dtype=np.int64)
        self.positions = np.ascontiguousarray(positions, dtype=np.int32)
        self.deployed_ats = np.ascontiguousarray(deployed_ats, dtype=float)
        self.idcs = list(idcs)
        self.product_lines = list(product_lines)
        n = self.host_ids.size
        for name, length in [
            ("idcs", len(self.idcs)),
            ("positions", self.positions.size),
            ("deployed_ats", self.deployed_ats.size),
            ("product_lines", len(self.product_lines)),
        ]:
            if length != n:
                raise ValueError(f"inventory column {name} has {length} rows, expected {n}")
        self.component_counts: Dict[ComponentClass, np.ndarray] = {}
        for cls, counts in (component_counts or {}).items():
            arr = np.ascontiguousarray(counts, dtype=np.int32)
            if arr.size != n:
                raise ValueError(f"component counts for {cls} have {arr.size} rows, expected {n}")
            self.component_counts[cls] = arr
        self._host_index: Optional[Dict[int, int]] = None
        self._idc_codes: Optional[Tuple[Dict[str, int], np.ndarray]] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.host_ids.size)

    @property
    def host_index(self) -> Dict[int, int]:
        """host_id -> row index."""
        if self._host_index is None:
            self._host_index = {int(h): i for i, h in enumerate(self.host_ids)}
        return self._host_index

    def counts_for(self, component: ComponentClass) -> np.ndarray:
        """Per-server component count, defaulting to one per server for
        classes the inventory does not report (the paper's assumption)."""
        counts = self.component_counts.get(component)
        if counts is None:
            return np.ones(len(self), dtype=np.int32)
        return counts

    # ------------------------------------------------------------------
    # denominators for the analyses
    # ------------------------------------------------------------------
    def idc_codes(self) -> Tuple[Dict[str, int], np.ndarray]:
        """Interned data centers: ``(code of each name, code of each
        server)``, built once, so per-DC lookups compare ints (do not
        mutate)."""
        if self._idc_codes is None:
            names = self.idcs
            code_of = {name: i for i, name in enumerate(dict.fromkeys(names))}
            codes = np.fromiter(map(code_of.__getitem__, names), np.int32, len(names))
            self._idc_codes = (code_of, codes)
        return self._idc_codes

    def positions_in(self, idc: str) -> np.ndarray:
        """Rack slot of every server in data center ``idc``."""
        code_of, codes = self.idc_codes()
        if idc not in code_of:
            raise ValueError(f"no servers in data center {idc!r}")
        return self.positions[codes == code_of[idc]]

    def servers_per_position(self, idc: Optional[str] = None) -> np.ndarray:
        """Server count per rack slot, optionally restricted to one DC."""
        positions = self.positions if idc is None else self.positions_in(idc)
        return np.bincount(positions).astype(float)

    def component_month_exposure(
        self,
        component: ComponentClass,
        n_months: int,
        window_start: float,
        window_end: float,
    ) -> np.ndarray:
        """Component-months of exposure for each month-of-service.

        ``out[m]`` is the (fractional) number of components that spent
        service-month ``m`` inside the observation window — the
        denominator of the normalized monthly failure rate in Figure 6.
        """
        if window_end <= window_start:
            raise ValueError("window must have positive length")
        counts = self.counts_for(component).astype(float)
        out = np.zeros(n_months, dtype=float)
        deployed = self.deployed_ats
        for m in range(n_months):
            starts = deployed + m * MONTH
            ends = starts + MONTH
            overlap = np.minimum(ends, window_end) - np.maximum(starts, window_start)
            frac = np.clip(overlap / MONTH, 0.0, 1.0)
            out[m] = float((counts * frac).sum())
        return out

    def idc_names(self) -> List[str]:
        return sorted(set(self.idcs))

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    #: Base columns and their dtypes; ``n_<class>`` count columns are int32.
    _CSV_BASE: ClassVar[Dict[str, str]] = {
        "host_id": "i8", "idc": "O", "position": "i4", "deployed_at": "f8", "product_line": "O",
    }

    def save_csv(self, path: Union[str, Path]) -> None:
        from repro.core.io import _atomic_write

        count_cols = sorted(self.component_counts, key=lambda c: c.value)
        fields = [*self._CSV_BASE, *(f"n_{c.value}" for c in count_cols)]
        columns = [
            self.host_ids.tolist(), self.idcs, self.positions.tolist(),
            self.deployed_ats.tolist(), self.product_lines,
            *(self.component_counts[c].tolist() for c in count_cols),
        ]
        with _atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(fields)
            writer.writerows(zip(*columns))

    @classmethod
    def load_csv(cls, path: Union[str, Path]) -> "Inventory":
        """Read an inventory CSV as :meth:`save_csv` writes it.

        A header naming the ``_CSV_BASE`` columns in any order (each
        ``n_<class>`` column becomes a count array; others are ignored),
        then rows of bare or ``"``-quoted fields (quoted names may hold
        commas, ``#`` and newlines), LF or CRLF ended; blank lines are
        skipped.  Numbers are plain decimal literals, ``nan``/``inf``
        included: ``1_0`` is an error.  Raises ``ValueError`` for a missing
        column or an unknown class and, naming the file, for a row missing
        a field or holding a number that does not parse or fit its dtype.
        """
        with open(path, encoding="utf-8", newline="") as fh:
            fields = next(csv.reader(iter(fh.readline, "")), [])
            missing = set(cls._CSV_BASE) - set(fields)
            if missing:
                raise ValueError(f"inventory CSV missing columns: {sorted(missing)}")
            index = {name: i for i, name in enumerate(fields)}
            count_cols = [
                ComponentClass(f[2:]) for f in fields if f.startswith("n_")
            ]
            dtype = [*cls._CSV_BASE.items(), *((f"n_{c.value}", "i4") for c in count_cols)]
            try:
                with warnings.catch_warnings():  # an empty body is 0 servers
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(
                        fh, delimiter=",", quotechar='"', comments=None, ndmin=1,
                        usecols=[index[name] for name, _ in dtype], dtype=dtype,
                    )
            except ValueError as exc:
                raise ValueError(f"malformed inventory CSV {path}: {exc}") from exc
        return cls(
            rows["host_id"], rows["idc"].tolist(), rows["position"],
            rows["deployed_at"], rows["product_line"].tolist(),
            {c: rows[f"n_{c.value}"] for c in count_cols},
        )


__all__ = ["Inventory"]
