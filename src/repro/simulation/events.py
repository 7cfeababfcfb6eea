"""Raw failure events — the simulator's intermediate representation.

The injectors emit :class:`RawFailure` records; the base process emits
its far more numerous failures as :class:`EventColumns`, one array per
field, and a shard hands the FMS pipeline one :class:`EventColumns`
holding both.  The pipeline turns events into tickets (assigning
detection source, category, operator response) and may grow more events
of its own when a repair proves ineffective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from repro.core.columns import COMPONENT_CODE
from repro.core.types import ComponentClass


@dataclass(frozen=True, order=True)
class RawFailure:
    """One component failure before FMS processing.

    Ordering is by time so event lists can be heapified/sorted directly.

    Attributes:
        time: Detection timestamp (seconds since trace epoch).
        server_row: Row index of the server in the fleet (NOT host_id).
        component: Failing component class.
        slot: Component slot index on the server.
        forced_type: Failure type forced by an injector (e.g. a SMART
            storm emits only ``SMARTFail``); ``None`` means "draw from
            the class's type mix".
        tag: Ground-truth label of the generating mechanism ("base",
            "smart_storm:3", "pdu_outage:1", "flapping", ...).  Analyses
            never read it; validation tests do.
        chain_id: Repeat-chain identifier when this failure is part of a
            pre-materialized repeat sequence, else ``None``.
        suppress_repeat: True when the FMS must not grow a repeat chain
            from this failure (it already belongs to an injected chain).
    """

    time: float
    server_row: int = field(compare=False)
    component: ComponentClass = field(compare=False)
    slot: int = field(compare=False, default=0)
    forced_type: Optional[str] = field(compare=False, default=None)
    tag: str = field(compare=False, default="base")
    chain_id: Optional[int] = field(compare=False, default=None)
    suppress_repeat: bool = field(compare=False, default=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0, got {self.time}")
        if self.server_row < 0:
            raise ValueError(f"server_row must be >= 0, got {self.server_row}")


class EventColumns(NamedTuple):
    """Failure events as columns, one entry per event in event order
    (the order the FMS breaks time ties in).  Each column holds what the
    :class:`RawFailure` attribute of its place does; ``components`` holds
    the store's int8 codes (:data:`~repro.core.columns.COMPONENT_CODE`)."""

    times: np.ndarray  # float64
    rows: np.ndarray  # int64 server rows
    components: np.ndarray  # int8
    slots: np.ndarray  # int64
    forced_types: np.ndarray  # object: None or a failure type name
    tags: np.ndarray  # object
    chain_ids: np.ndarray  # object: None or an int
    suppress: np.ndarray  # bool

    @classmethod
    def sampled(cls, times, rows, components, slots) -> "EventColumns":
        """Base-process events: no forced type, tag ``"base"``, no chain,
        repeats allowed.  Checks the columns as :class:`RawFailure` checks
        one event, raising its ``ValueError`` for the first bad one."""
        bad = np.flatnonzero((times < 0) | (rows < 0))
        if bad.size and times[bad[0]] < 0:
            raise ValueError(f"event time must be >= 0, got {float(times[bad[0]])}")
        if bad.size:
            raise ValueError(f"server_row must be >= 0, got {int(rows[bad[0]])}")
        n = len(times)
        return cls(
            *(np.asarray(c, dtype=d) for c, d in zip((times, rows, components, slots), _DTYPES)),
            np.full(n, None), np.full(n, "base", dtype=object), np.full(n, None),
            np.zeros(n, dtype=bool),
        )

    @classmethod
    def from_raw(cls, events: Sequence[RawFailure]) -> "EventColumns":
        """The columns of ``events``, in their order."""
        rows = [
            (e.time, e.server_row, COMPONENT_CODE[e.component], e.slot, e.forced_type,
             e.tag, e.chain_id, e.suppress_repeat)
            for e in events
        ]
        return cls(*(np.array([r[i] for r in rows], dtype=d) for i, d in enumerate(_DTYPES)))

    @classmethod
    def concatenate(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of ``parts``, one after the other."""
        return cls(*map(np.concatenate, zip(*parts)))

    def take(self, index: np.ndarray) -> "EventColumns":
        """The events at ``index`` (a mask or positions), in its order."""
        return EventColumns(*(column[index] for column in self))


#: The dtype of each :class:`EventColumns` column.
_DTYPES = (np.float64, np.int64, np.int8, np.int64, object, object, object, bool)


__all__ = ["RawFailure", "EventColumns"]
