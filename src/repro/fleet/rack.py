"""Rack slots: occupancy and per-slot environment multipliers.

Two physical effects from Section IV live here:

* **Occupancy** — "operators often leave the top position and bottom
  position of the racks empty", so the spatial analysis must normalize
  failures by servers-per-slot, not assume full racks.
* **Per-slot risk** — legacy under-floor-cooled rooms run hotter near
  the top of the rack, and the custom rack design puts a power module
  next to slot 22; both raise the local failure rate (the paper measured
  motherboard temperatures several degrees above rack average there).
"""

from __future__ import annotations

import numpy as np

from repro.config import SpatialProfile


def slot_risk_multipliers(profile: SpatialProfile, n_slots: int) -> np.ndarray:
    """Per-slot failure-rate multiplier implied by a spatial profile.

    * ``uniform`` — all ones.
    * ``hotspot`` — ones except the configured hot slots.
    * ``gradient`` — linear ramp from 1 at slot 0 to ``gradient_top``.
    """
    mult = np.ones(n_slots, dtype=float)
    if profile.kind == "hotspot":
        for slot, factor in profile.hot_slots:
            if 0 <= slot < n_slots:
                mult[slot] = factor
    elif profile.kind == "gradient":
        if n_slots > 1:
            mult = np.linspace(1.0, profile.gradient_top, n_slots)
    return mult


def slot_occupancy_weights(n_slots: int, edge_vacancy: float = 0.5) -> np.ndarray:
    """Relative chance each slot holds a server.

    The two bottom and two top slots carry weight ``edge_vacancy`` —
    operators leave them empty more often — and everything else weight 1.
    """
    if not 0 <= edge_vacancy <= 1:
        raise ValueError(f"edge_vacancy must be in [0, 1], got {edge_vacancy}")
    weights = np.ones(n_slots, dtype=float)
    edge = min(2, n_slots // 2)
    weights[:edge] = edge_vacancy
    weights[n_slots - edge:] = edge_vacancy
    return weights


__all__ = ["slot_risk_multipliers", "slot_occupancy_weights"]
