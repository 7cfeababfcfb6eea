"""Per-event records of simulator events, for tests.

The simulator carries failures as :class:`EventColumns` only.  Tests
that read one event at a time zip the columns into :class:`RawFailure`
records (:func:`records`), and tests that write events one at a time
build them as records and convert the list (:func:`from_raw`).
``RawFailure`` and ``from_raw`` are the simulator's former per-event
format and its conversion, kept verbatim: ``tests/test_fms_oracles.py``
and ``tests/test_injector_oracles.py`` run the per-event reference code
on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.columns import COMPONENT_CODE, COMPONENT_ORDER
from repro.core.types import ComponentClass
from repro.simulation.events import EventColumns


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


#: The dtype of each :class:`EventColumns` column.
_DTYPES = (np.float64, np.int64, np.int8, np.int64, object, object, object, bool)


def from_raw(events: Sequence[RawFailure]) -> EventColumns:
    """The columns of ``events``, in their order."""
    rows = [
        (e.time, e.server_row, COMPONENT_CODE[e.component], e.slot, e.forced_type,
         e.tag, e.chain_id, e.suppress_repeat)
        for e in events
    ]
    return EventColumns(*(np.array([r[i] for r in rows], dtype=d) for i, d in enumerate(_DTYPES)))


def records(events: EventColumns) -> List[RawFailure]:
    """One :class:`RawFailure` per event of ``events``, in their order."""
    return [
        RawFailure(time, row, COMPONENT_ORDER[code], slot, forced, tag, chain_id, suppress)
        for time, row, code, slot, forced, tag, chain_id, suppress in zip(
            *(column.tolist() for column in events)
        )
    ]


def assert_same_columns(new: Mapping[str, np.ndarray], ref: Mapping[str, np.ndarray]) -> None:
    """Every column equal in dtype and bytes; object columns equal by
    the repr of their values, which also tells int from np.int64."""
    assert set(new) == set(ref)
    for name in ref:
        a, b = new[name], ref[name]
        assert a.dtype == b.dtype, name
        if a.dtype == object:
            assert repr(a.tolist()) == repr(b.tolist()), name
        else:
            assert a.tobytes() == b.tobytes(), name
