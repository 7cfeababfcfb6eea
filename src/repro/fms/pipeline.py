"""The FMS pipeline: raw failures in, closed FOTs out.

Walks the events in (time, arrival) order and merges in the repeats it
grows, so that repeat failures — scheduled *while* processing the ticket
that "fixed" them — interleave correctly with everything else, exactly
like the real FMS of Figure 1:

1. a detection agent (or a human) reports a failure;
2. the FMS classifies it: false alarm (1.7 %), out-of-warranty
   (D_error: decommission, no operator response recorded), or D_fixing;
3. for D_fixing / D_falsealarm an operator eventually closes the ticket
   (the response model decides when, and with which user id);
4. an ineffective repair schedules the same failure again.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Dict, List, Optional

import numpy as np

from repro.core.columns import COMPONENT_ORDER, ColumnBuilder, ColumnStore
from repro.core.dataset import FOTDataset
from repro.core.types import (
    ComponentClass,
    FOTCategory,
    OperatorAction,
)
from repro.fleet.fleet import Fleet
from repro.fms.detectors import DetectionModel
from repro.fms.operators import OperatorModel
from repro.fms.repair import RepairModel
from repro.simulation import calibration
from repro.simulation.events import EventColumns

#: Linux block-device letters for drive detail strings.
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"

_FIXING, _ERROR, _FALSE_ALARM = FOTCategory.FIXING, FOTCategory.ERROR, FOTCategory.FALSE_ALARM
_REPAIR_ORDER, _MARK_FALSE_ALARM = OperatorAction.REPAIR_ORDER, OperatorAction.MARK_FALSE_ALARM

#: The pipeline's counters, in the order :meth:`FMSPipeline.run_store` adds to them.
_STATS = (
    "events_in", "dropped_beyond_horizon", "false_alarms", "out_of_warranty", "repairs",
    "repeats_scheduled", "escalations",
)


def device_detail(component: ComponentClass, slot: int) -> str:
    """Human-style device identifier, e.g. ``sdc2`` or ``fan_3``."""
    if component is ComponentClass.HDD:
        return f"sd{_ALPHABET[slot % 26]}{slot % 9 + 1}"
    if component is ComponentClass.SSD:
        return f"nvme{slot}n1"
    if component is ComponentClass.MEMORY:
        return f"DIMM_{_ALPHABET[slot % 8].upper()}{slot % 2}"
    if component is ComponentClass.FAN:
        return f"fan_{slot + 1}"
    if component is ComponentClass.POWER:
        return f"psu_{slot + 1}"
    if component is ComponentClass.CPU:
        return f"cpu_{slot}"
    if component is ComponentClass.FLASH_CARD:
        return f"flash_{slot}"
    if component is ComponentClass.RAID_CARD:
        return "raid_ctrl_0"
    if component is ComponentClass.HDD_BACKBOARD:
        return "backboard_0"
    if component is ComponentClass.MOTHERBOARD:
        return "mb_0"
    return "manual_report"


class FMSPipeline:
    """Event-driven ticket processing for one scenario."""

    def __init__(
        self,
        fleet: Fleet,
        horizon_seconds: float,
        rng: np.random.Generator,
        lemon_rows: Optional[set] = None,
        detection: Optional[DetectionModel] = None,
        operators: Optional[OperatorModel] = None,
        repair: Optional[RepairModel] = None,
        chain_id_base: int = 0,
    ):
        """``fleet`` holds the servers that event rows index: the whole
        fleet, or one data center's
        :meth:`~repro.fleet.fleet.Fleet.take` in the sharded engine.
        ``chain_id_base`` offsets FMS-grown repeat-chain ids so shards of
        one run never collide."""
        self.fleet = fleet
        self.chain_id_base = int(chain_id_base)
        self.horizon = float(horizon_seconds)
        self._rng = rng
        self.lemon_rows = lemon_rows or set()
        self.detection = detection or DetectionModel()
        self.operators = operators or OperatorModel(fleet, rng)
        self.repair = repair or RepairModel(rng)

        # Per-class type samplers (names, cumulative probabilities) and
        # fatal types (for warning -> fatal escalation), indexed by
        # component code.
        from repro.core.failure_types import REGISTRY

        self._type_names: List[List[str]] = []
        self._type_cum: List[List[float]] = []
        self._fatal_types: List[List[str]] = []
        for cls in COMPONENT_ORDER:
            mix = calibration.TYPE_MIX[cls]
            names = sorted(mix)
            probs = np.asarray([mix[n] for n in names], dtype=float)
            self._type_names.append(names)
            self._type_cum.append(np.cumsum(probs / probs.sum()).tolist())
            self._fatal_types.append([name for name in mix if REGISTRY[name].fatal])

        self.stats: Dict[str, int] = dict.fromkeys(_STATS, 0)

    # ------------------------------------------------------------------
    def run(self, events: EventColumns, warranty_seconds: float) -> FOTDataset:
        """Process every failure (plus the repeats they spawn) into a
        time-ordered FOT dataset."""
        return FOTDataset.from_store(self.run_store(events, warranty_seconds))

    def run_store(self, events: EventColumns, warranty_seconds: float) -> ColumnStore:
        """Like :meth:`run` but return the raw
        :class:`~repro.core.columns.ColumnStore` — the sharded engine
        ships these arrays between processes and concatenates once.

        Events go in (time, arrival) order: a stable sort of the given
        events, merged with a heap of the repeats grown on the way.  A
        repeat arrives after every given event, so it goes first only
        when it is strictly earlier.  Per ticket the random draws come
        in a fixed order: the type (unless forced), the false alarm
        (unless repeats are suppressed), the operator's, the repair's,
        and last the escalation."""
        order = np.argsort(events.times, kind="stable").tolist()
        times, rows, codes, slots, forced_types, tags, chain_ids, suppress = (
            column.tolist() for column in events
        )

        fleet = self.fleet
        lines = fleet.lines()
        deployed_ats = fleet.deployed_ats.tolist()
        lemon_rows = self.lemon_rows
        horizon = self.horizon
        random = self._rng.random
        type_names, type_cum, fatal_types = self._type_names, self._type_cum, self._fatal_types

        # (time, seq, row, code, slot, type, chain id) of grown repeats;
        # their seq numbers continue after the given events'.
        repeats: list = []
        seq = len(order)
        next_chain = self.chain_id_base
        chain_lengths: Dict[int, int] = {}
        # Row, code, slot, time, type, category, action, operator, op_time
        # and detail of each ticket in turn; no per-ticket tuple is kept.
        tickets: list = []
        dropped = false_alarms = out_of_warranty = repairs = escalations = 0

        pos, n_given = 0, len(order)
        while True:
            if repeats and (pos == n_given or repeats[0][0] < times[order[pos]]):
                time, _, row, code, slot, forced, chain_id = heapq.heappop(repeats)
                tag, no_repeat = "repeat", False
            elif pos < n_given:
                i = order[pos]
                pos += 1
                time, row, code, slot = times[i], rows[i], codes[i], slots[i]
                forced, tag, chain_id = forced_types[i], tags[i], chain_ids[i]
                no_repeat = suppress[i]
            else:
                break
            if time >= horizon:
                dropped += 1
                continue
            line = lines[row]
            if forced:
                error_type = forced
            else:
                names = type_names[code]
                index = bisect_right(type_cum[code], random())
                error_type = names[min(index, len(names) - 1)]
            is_lemon = row in lemon_rows
            detail: Dict[str, object] = {"tag": tag}
            if chain_id is not None:
                detail["chain_id"] = chain_id

            is_false_alarm = not no_repeat and random() < calibration.FALSE_ALARM_RATE
            # Service age, clamped at zero; the warranty covers its
            # last second.
            age = max(0.0, time - deployed_ats[row])
            in_warranty = age <= warranty_seconds

            op_time: Optional[float]
            if is_false_alarm:
                category, action = _FALSE_ALARM, _MARK_FALSE_ALARM
                op_time, operator_id = self.operators.close_false_alarm(line, time)
                false_alarms += 1
            elif not in_warranty:
                # Out-of-warranty: not repaired, set to decommission; the
                # ticket carries no operator-response fields (Table I).
                category, action, operator_id, op_time = _ERROR, None, None, None
                out_of_warranty += 1
            else:
                category, action = _FIXING, _REPAIR_ORDER
                op_time, operator_id = self.operators.close_fixing(
                    COMPONENT_ORDER[code], line, time, age, is_lemon
                )
                repairs += 1
            tickets.extend(
                (row, code, slot, time, error_type, category, action, operator_id,
                 op_time, detail)
            )

            # Ineffective repair -> the same failure comes back.
            if category is _FIXING and op_time is not None and not no_repeat:
                if chain_id is None or chain_id not in chain_lengths:
                    chain_id = next_chain
                    next_chain += 1
                    chain_lengths[chain_id] = 0
                delay = self.repair.repeat_delay(is_lemon, chain_lengths[chain_id])
                if delay is not None and op_time + delay < horizon:
                    chain_lengths[chain_id] += 1
                    # A recurring warning often escalates: the SMART
                    # alert that came back becomes a dead drive
                    # (Section III-A: warnings precede fatal failures —
                    # the basis of the team's predictor).
                    repeat_type = error_type
                    fatal_options = fatal_types[code]
                    if (
                        repeat_type not in fatal_options
                        and fatal_options
                        and random() < calibration.ESCALATION_PROB
                    ):
                        repeat_type = fatal_options[
                            int(self._rng.integers(len(fatal_options)))
                        ]
                        escalations += 1
                    repeat_at = float(max(op_time + delay, time))
                    heapq.heappush(
                        repeats, (repeat_at, seq, row, code, slot, repeat_type, chain_id)
                    )
                    seq += 1

        n_repeats = seq - n_given  # every repeat is pushed once and popped once
        for key, count in zip(_STATS, (
            n_given + n_repeats, dropped, false_alarms, out_of_warranty, repairs, n_repeats,
            escalations,
        )):
            self.stats[key] += count
        return self._build(tickets, lines)

    def _build(self, tickets: list, lines: List[str]) -> ColumnStore:
        """The store of the loop's tickets.  Server fields come from the
        fleet at each ticket's row, the detection source from a
        per-class table and the device detail from a per-(class, slot)
        one."""
        builder = ColumnBuilder()
        if not tickets:
            return builder.build()
        (rows, codes, slots, times, types, categories, actions, operator_ids,
         op_times, details) = (tickets[i::10] for i in range(10))
        fleet = self.fleet
        at = np.asarray(rows, dtype=np.int64)
        served, at_served = np.unique(at, return_inverse=True)  # name only these servers
        sources = [self.detection.source_for(cls) for cls in COMPONENT_ORDER]
        # One device_detail call per distinct (class, slot).
        slot_at, n_classes = np.asarray(slots, dtype=np.int64), len(COMPONENT_ORDER)
        lowest = int(slot_at.min())
        keys, inverse = np.unique((slot_at - lowest) * n_classes + codes, return_inverse=True)
        device_details = [
            device_detail(COMPONENT_ORDER[key % n_classes], key // n_classes + lowest)
            for key in keys.tolist()
        ]

        def at_rows(values: List[str]) -> List[str]:
            return np.asarray(values, dtype=object)[at].tolist()

        builder.extend(
            fot_id=range(at.size),
            host_id=fleet.host_ids[at].tolist(),
            hostname=np.asarray(fleet.take(served).hostnames(), dtype=object)[at_served].tolist(),
            host_idc=at_rows(fleet.idcs()),
            error_device=list(map(COMPONENT_ORDER.__getitem__, codes)),
            error_type=types,
            error_time=times,
            error_position=fleet.positions[at].tolist(),
            error_detail=list(map(device_details.__getitem__, inverse.tolist())),
            category=categories,
            source=list(map(sources.__getitem__, codes)),
            product_line=at_rows(lines),
            deployed_at=fleet.deployed_ats[at].tolist(),
            device_slot=slots,
            action=actions,
            operator_id=operator_ids,
            op_time=op_times,
            detail=details,
        )
        return builder.build()


__all__ = ["FMSPipeline", "device_detail"]
