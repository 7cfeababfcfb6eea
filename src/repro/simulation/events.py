"""Failure events — the simulator's intermediate representation.

Every generator (the base process and each injector) emits its failures
as :class:`EventColumns`, one array per field, and a shard hands the FMS
pipeline one :class:`EventColumns` holding them all.  The pipeline turns
events into tickets (assigning detection source, category, operator
response) and may grow more events of its own when a repair proves
ineffective.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np


class EventColumns(NamedTuple):
    """Component failures before FMS processing, as columns: one entry
    per event, in event order (the order the FMS breaks time ties in).

    Count events with ``times.size``: ``len()`` of the tuple is the
    number of columns.

    Attributes:
        times: Detection timestamps (seconds since trace epoch).
        rows: Row index of each server in the fleet (NOT host_id).
        components: Failing component class, as the store's int8 code
            (:data:`~repro.core.columns.COMPONENT_CODE`).
        slots: Component slot index on the server.
        forced_types: Failure type forced by an injector (e.g. a SMART
            storm emits only ``SMARTFail``); ``None`` means "draw from
            the class's type mix".
        tags: Ground-truth label of the generating mechanism ("base",
            "smart_storm:3", "pdu_outage:1", "bbu_flap", ...).  Analyses
            never read it; validation tests do.
        chain_ids: Repeat-chain identifier (a Python ``int``) when the
            event is part of a pre-materialized repeat sequence, else
            ``None``.
        suppress: True when the FMS must not grow a repeat chain from
            the event (it already belongs to an injected chain).
    """

    times: np.ndarray  # float64
    rows: np.ndarray  # int64 server rows
    components: np.ndarray  # int8
    slots: np.ndarray  # int64
    forced_types: np.ndarray  # object: None or a str
    tags: np.ndarray  # object: str
    chain_ids: np.ndarray  # object: None or an int
    suppress: np.ndarray  # bool

    @classmethod
    def of(
        cls, times, rows, components, slots, forced_types=None, tags="base",
        chain_ids=None, suppress=False,
    ) -> "EventColumns":
        """Events from one value per field each; a scalar stands for
        every event, and ``times`` sets the count.  Object fields take
        Python ``str``/``int``/``None`` values (they reach the tickets'
        JSON ``detail``).  Raises ``ValueError`` for the first event
        with a negative time or server row."""
        times = np.asarray(times, dtype=np.float64)
        n = times.size
        columns = [times] + [
            np.full(n, value, dtype=dtype) if np.ndim(value) == 0
            else np.asarray(value, dtype=dtype)
            for value, dtype in zip(
                (rows, components, slots, forced_types, tags, chain_ids, suppress), _DTYPES[1:]
            )
        ]
        bad = np.flatnonzero((times < 0) | (columns[1] < 0))
        if bad.size and times[bad[0]] < 0:
            raise ValueError(f"event time must be >= 0, got {float(times[bad[0]])}")
        if bad.size:
            raise ValueError(f"server_row must be >= 0, got {int(columns[1][bad[0]])}")
        return cls(*columns)

    @classmethod
    def concatenate(cls, parts: Sequence["EventColumns"]) -> "EventColumns":
        """The events of ``parts``, one after the other."""
        return cls(*map(np.concatenate, zip(*parts)))

    def take(self, index: np.ndarray) -> "EventColumns":
        """The events at ``index`` (a mask or positions), in its order."""
        return EventColumns(*(column[index] for column in self))


#: The dtype of each :class:`EventColumns` column.
_DTYPES = (np.float64, np.int64, np.int8, np.int64, object, object, object, bool)

#: No events: what an injector that finds no victims returns.
NO_EVENTS = EventColumns.of([], [], 0, 0)


__all__ = ["EventColumns", "NO_EVENTS"]
