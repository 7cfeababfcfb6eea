"""Join-semilattices of abstract facts for the dataflow analysis.

Every value the analysis tracks is summarized by one :class:`Fact` — a
product of independent little lattices:

* **unit** — the physical time unit of a number (``"seconds"``,
  ``"hours"``, ``"days"``, ...), ``DIMENSIONLESS`` for plain counts,
  ``None`` (bottom) when nothing is known yet and :data:`TOP` when two
  paths disagree.  Conversion constants from
  :mod:`repro.core.timeutil` (``HOUR = 3600.0`` seconds) carry their
  *target* unit in the separate ``conv`` component: a conversion
  constant is a value measured in seconds whose division semantics
  produce the target unit (``seconds / DAY -> days``).
* **width** — the numpy dtype width of an array expression
  (``"int32"``, ``"float64"``, ...).  The analysis only needs to tell
  *narrow* dtypes (which overflow or lose second resolution over a
  four-year trace) from wide ones.
* **unordered** — True when the value's iteration order depends on set
  hashing or filesystem listing order; anything folded out of such an
  iteration can differ between serial and sharded runs.
* **column** — a human-readable origin description when the value is a
  view of a ``ColumnStore``/``FOTDataset`` column: RPL002's taint, so
  writing through such a value is flagged.
* **created** / **unfrozen** — the creation site ``(line, col,
  name)`` of the array a numpy constructor built in ``repro/core`` that
  the value is on every path (``None`` when it is not one such array),
  and whether that array may still be writable.  RPL002 flags a
  creation that reaches a ``return`` or a store while unfrozen.

Joins are pointwise; each component has finite height (``None`` →
concrete → :data:`TOP`; ``created`` survives a join only when both
sides name the same site), so the worklist fixpoint in
:mod:`repro.devtools.dataflow` terminates.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

#: Conflicting information — the top element of the unit/width/column
#: component lattices.
TOP = "<mixed>"

#: Unit name for plain numbers (counts, ratios, codes).
DIMENSIONLESS = "dimensionless"

#: Concrete time units the analysis reasons about, smallest first.
TIME_UNITS = (
    "seconds",
    "minutes",
    "hours",
    "days",
    "months",
    "years",
)

#: numpy dtype names considered too narrow for second-resolution
#: timestamps spanning a multi-year trace (int32 sums overflow; float32
#: cannot even represent 1.2e8 seconds to the second).
NARROW_WIDTHS = frozenset(
    {"int8", "int16", "int32", "uint8", "uint16", "uint32",
     "float16", "float32", "half", "single"}
)


def is_time_unit(unit: Optional[str]) -> bool:
    """True for a *concrete* time unit (not bottom/top/dimensionless)."""
    return unit in TIME_UNITS


def join_component(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """Join of one string component: bottom (None) is the identity,
    equal values stay, conflicts go to :data:`TOP`."""
    if a is None:
        return b
    if b is None or a == b:
        return a
    return TOP


@dataclasses.dataclass(frozen=True)
class Fact:
    """Abstract summary of one runtime value (see module docstring)."""

    unit: Optional[str] = None
    conv: Optional[str] = None
    width: Optional[str] = None
    unordered: bool = False
    column: Optional[str] = None
    created: Optional[Tuple[int, int, str]] = None
    unfrozen: bool = False

    def join(self, other: "Fact") -> "Fact":
        if self == other:
            return self
        return Fact(
            unit=join_component(self.unit, other.unit),
            conv=join_component(self.conv, other.conv),
            width=join_component(self.width, other.width),
            unordered=self.unordered or other.unordered,
            column=join_component(self.column, other.column),
            created=self.created if self.created == other.created else None,
            unfrozen=self.unfrozen or other.unfrozen,
        )

    # convenience predicates -------------------------------------------
    @property
    def is_time(self) -> bool:
        return is_time_unit(self.unit)

    @property
    def is_conversion(self) -> bool:
        return self.conv is not None and self.conv != TOP

    @property
    def is_narrow(self) -> bool:
        return self.width in NARROW_WIDTHS

    def derived(self, **changes) -> "Fact":
        """The fact of a new value computed from this one: the same
        unit, conversion, width and order, none of its identity (column
        view, creation site)."""
        return dataclasses.replace(self, column=None, created=None,
                                   unfrozen=False, **changes)


#: The bottom element — nothing known.
BOTTOM = Fact()


def unit_fact(unit: str) -> Fact:
    return Fact(unit=unit)


def conversion(target: str) -> Fact:
    """A :mod:`repro.core.timeutil` conversion constant: a value in
    seconds whose division produces ``target`` units."""
    return Fact(unit="seconds", conv=target)


def dimensionless() -> Fact:
    return Fact(unit=DIMENSIONLESS)


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------
Env = Dict[str, Fact]


def join_envs(a: Optional[Env], b: Env) -> Env:
    """Pointwise join; a name bound on only one side keeps its fact
    (missing = bottom, the join identity)."""
    if a is None:
        return dict(b)
    out = dict(a)
    for name, fact in b.items():
        have = out.get(name)
        out[name] = fact if have is None else have.join(fact)
    return out


__all__ = [
    "TOP",
    "DIMENSIONLESS",
    "TIME_UNITS",
    "NARROW_WIDTHS",
    "BOTTOM",
    "Fact",
    "Env",
    "is_time_unit",
    "join_component",
    "join_envs",
    "unit_fact",
    "conversion",
    "dimensionless",
]
