"""Data centers: cooling era, spatial profile, rack size."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SpatialProfile
from repro.fleet.rack import slot_risk_multipliers


@dataclass(frozen=True)
class DataCenter:
    """One data center (IDC).

    Attributes:
        name: IDC name, e.g. ``"dc07"``.
        built_year: Construction year; DCs built after 2014 have modern
            cooling and a uniform spatial profile (Section IV).
        spatial_profile: How failure risk varies with rack slot.
        n_slots: Physical slots per rack (every rack of a DC is alike).
    """

    name: str
    built_year: int
    spatial_profile: SpatialProfile
    n_slots: int

    def __post_init__(self) -> None:
        if self.n_slots <= 0:
            raise ValueError("rack needs at least one slot")

    @property
    def is_modern(self) -> bool:
        """Built after 2014 — the paper's cut for uniform cooling."""
        return self.built_year > 2014

    def slot_multipliers(self) -> np.ndarray:
        """Per-slot failure-rate multipliers from the spatial profile."""
        return slot_risk_multipliers(self.spatial_profile, self.n_slots)


__all__ = ["DataCenter"]
