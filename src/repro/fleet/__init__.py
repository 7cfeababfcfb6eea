"""Fleet substrate: the physical world the failures happen in.

Models data centers (with per-slot cooling profiles and shared PDUs),
servers (rack slot, hardware generation and its component counts,
deployment time, owning product line) and product lines (size,
fault-tolerance level — which drives operator response behaviour).

The builder assembles a whole fleet from a
:class:`~repro.config.FleetConfig` as one table of servers (a struct of
arrays); :class:`~repro.fleet.inventory.Inventory` is the per-server
table the analyses use for exposure normalization (lifecycle rates,
rack-position occupancy).
"""

from repro.fleet.component import ServerGeneration, GENERATIONS
from repro.fleet.datacenter import DataCenter
from repro.fleet.product_line import ProductLine
from repro.fleet.inventory import Inventory
from repro.fleet.fleet import Fleet
from repro.fleet.builder import build_fleet

__all__ = [
    "ServerGeneration",
    "GENERATIONS",
    "DataCenter",
    "ProductLine",
    "Inventory",
    "Fleet",
    "build_fleet",
]
