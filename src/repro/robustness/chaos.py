"""Deterministic ticket-corruption chaos harness.

Mutates a clean FOT trace — at the *record* (dict) level, so the output
can contain exactly the malformed values a real FMS dump would — to
model the pathologies the paper flags in §VII:

* ``duplicates`` — stateless-FMS re-opened tickets: a sampled fraction
  of tickets is re-emitted with a fresh id and a slightly later
  ``error_time``.
* ``clock_skew`` — a per-data-center clock offset applied to all
  timestamps of the affected IDCs (monitoring hosts with drifting
  clocks).
* ``drop_op_time`` — closed tickets losing their ``op_time`` (partial
  operator logging).
* ``truncate_fields`` — a required field blanked out entirely
  (truncated export rows).
* ``bad_positions`` — rack positions replaced with out-of-range values
  (inventory glitches).
* ``mislabel_category`` — the category silently swapped to another
  *valid* value (operator mis-filing; loads cleanly, skews Table I).

A second registry corrupts at the *stream* level — the delivery
pathologies of a feed of batches hitting the ingestion service
(:mod:`repro.serve`): ``truncate_batch`` (producer crash mid-send),
``duplicate_batch`` (at-least-once delivery), ``reorder_stream``
(out-of-order timestamps), ``oversize_batch`` (backlog flush tripping
the size cap) and ``slow_batch`` (stall metadata for the driver to
enact).  See :func:`corrupt_stream`.

Every corruptor is driven by a :class:`numpy.random.Generator` seeded
from ``(seed, corruptor index)``, so the same seed always yields the
same corrupted records **and** the same machine-readable
:class:`ChaosManifest` of what was injected where.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.timeutil import HOUR

from repro.core.dataset import FOTDataset
from repro.core.io import iter_records
from repro.core.types import FOTCategory

Record = Dict[str, object]

#: Fields ``truncate_fields`` may blank — all required by the loader.
TRUNCATABLE_FIELDS = (
    "hostname",
    "category",
    "error_time",
    "product_line",
    "error_type",
    "host_idc",
)

#: Values ``bad_positions`` draws from.
BAD_POSITION_VALUES = (-1, -40, 999, 100000)

_MAX_SKEW_SECONDS = 6 * HOUR


@dataclass(frozen=True)
class CorruptionSpec:
    """One corruption to inject: a kind plus an intensity knob.

    ``intensity`` is the fraction of eligible items affected (tickets
    for most kinds, data centers for ``clock_skew``), in ``[0, 1]``.
    """

    kind: str
    intensity: float = 0.05

    def __post_init__(self) -> None:
        if (
            self.kind not in CORRUPTION_KINDS
            and self.kind not in STREAM_CORRUPTION_KINDS
        ):
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; "
                f"record kinds: {', '.join(CORRUPTION_KINDS)}; "
                f"stream kinds: {', '.join(STREAM_CORRUPTION_KINDS)}"
            )
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {self.intensity}")

    @classmethod
    def parse(cls, text: str) -> "CorruptionSpec":
        """Parse a CLI-style ``kind`` or ``kind:intensity`` token."""
        if ":" in text:
            kind, raw = text.split(":", 1)
            return cls(kind.strip(), float(raw))
        return cls(text.strip())


@dataclass
class ChaosManifest:
    """Machine-readable account of everything a chaos run injected."""

    seed: int
    n_input: int
    n_output: int
    injections: List[Dict[str, object]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "n_input": self.n_input,
            "n_output": self.n_output,
            "injections": self.injections,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def kinds(self) -> List[str]:
        return [str(entry["kind"]) for entry in self.injections]


def _as_float(value: object) -> Optional[float]:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _sample_indices(rng: np.random.Generator, n: int, intensity: float) -> np.ndarray:
    """A sorted sample of ``round(intensity * n)`` indices (at least one
    when intensity > 0 and there is anything to sample)."""
    if n == 0 or intensity <= 0.0:
        return np.empty(0, dtype=int)
    k = min(n, max(1, int(round(intensity * n))))
    return np.sort(rng.choice(n, size=k, replace=False))


def _next_fot_id(records: Sequence[Record]) -> int:
    ids = [i for i in (_as_float(r.get("fot_id")) for r in records) if i is not None]
    return int(max(ids)) + 1 if ids else 1


# ----------------------------------------------------------------------
# corruptors — each returns (new_records, injection manifest entry)
# ----------------------------------------------------------------------
def _inject_duplicates(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    indices = _sample_indices(rng, len(records), intensity)
    deltas = rng.uniform(60.0, 3600.0, size=indices.size)
    next_id = _next_fot_id(records)
    duplicated = set(indices.tolist())
    out: List[Record] = []
    affected: List[int] = []
    for i, record in enumerate(records):
        out.append(record)
        if i not in duplicated:
            continue
        dup = dict(record)
        delta = float(deltas[len(affected)])
        dup["fot_id"] = next_id
        next_id += 1
        error_time = _as_float(record.get("error_time"))
        if error_time is not None:
            new_time = error_time + delta
            dup["error_time"] = new_time
            op_time = _as_float(record.get("op_time"))
            if op_time is not None:
                dup["op_time"] = max(op_time, new_time)
        out.append(dup)
        affected.append(i)
    return out, {
        "kind": "duplicates",
        "intensity": intensity,
        "n_affected": len(affected),
        "source_rows": affected,
    }


def _inject_clock_skew(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    idcs = sorted({str(r.get("host_idc", "")) for r in records if r.get("host_idc")})
    if not idcs or intensity <= 0.0:
        return records, {
            "kind": "clock_skew",
            "intensity": intensity,
            "n_affected": 0,
            "offsets": {},
        }
    k = min(len(idcs), max(1, int(round(intensity * len(idcs)))))
    chosen = sorted(rng.choice(len(idcs), size=k, replace=False).tolist())
    offsets = {
        idcs[i]: float(rng.uniform(-_MAX_SKEW_SECONDS, _MAX_SKEW_SECONDS))
        for i in chosen
    }
    n_affected = 0
    out: List[Record] = []
    for record in records:
        offset = offsets.get(str(record.get("host_idc", "")))
        if offset is None:
            out.append(record)
            continue
        skewed = dict(record)
        for fld in ("error_time", "op_time"):
            value = _as_float(record.get(fld))
            if value is not None:
                skewed[fld] = max(0.0, value + offset)
        out.append(skewed)
        n_affected += 1
    return out, {
        "kind": "clock_skew",
        "intensity": intensity,
        "n_affected": n_affected,
        "offsets": offsets,
    }


def _inject_drop_op_time(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    closed = [i for i, r in enumerate(records) if _as_float(r.get("op_time")) is not None]
    picked = _sample_indices(rng, len(closed), intensity)
    affected = [closed[i] for i in picked.tolist()]
    out = list(records)
    for i in affected:
        dropped = dict(out[i])
        dropped["op_time"] = ""
        out[i] = dropped
    return out, {
        "kind": "drop_op_time",
        "intensity": intensity,
        "n_affected": len(affected),
        "rows": affected,
    }


def _inject_truncate_fields(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    indices = _sample_indices(rng, len(records), intensity)
    fields = rng.integers(0, len(TRUNCATABLE_FIELDS), size=indices.size)
    out = list(records)
    blanked: List[Dict[str, object]] = []
    for pos, i in enumerate(indices.tolist()):
        fld = TRUNCATABLE_FIELDS[int(fields[pos])]
        truncated = dict(out[i])
        truncated[fld] = ""
        out[i] = truncated
        blanked.append({"row": i, "field": fld})
    return out, {
        "kind": "truncate_fields",
        "intensity": intensity,
        "n_affected": len(blanked),
        "blanked": blanked,
    }


def _inject_bad_positions(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    indices = _sample_indices(rng, len(records), intensity)
    values = rng.integers(0, len(BAD_POSITION_VALUES), size=indices.size)
    out = list(records)
    affected: List[int] = []
    for pos, i in enumerate(indices.tolist()):
        bad = dict(out[i])
        bad["error_position"] = BAD_POSITION_VALUES[int(values[pos])]
        out[i] = bad
        affected.append(i)
    return out, {
        "kind": "bad_positions",
        "intensity": intensity,
        "n_affected": len(affected),
        "rows": affected,
    }


def _inject_mislabel_category(
    records: List[Record], rng: np.random.Generator, intensity: float
) -> Tuple[List[Record], Dict[str, object]]:
    categories = [c.value for c in FOTCategory]
    indices = _sample_indices(rng, len(records), intensity)
    shifts = rng.integers(1, len(categories), size=indices.size)
    out = list(records)
    affected: List[int] = []
    for pos, i in enumerate(indices.tolist()):
        current = str(out[i].get("category", ""))
        try:
            base = categories.index(current)
        except ValueError:
            continue  # already dirty from another corruptor
        mislabeled = dict(out[i])
        mislabeled["category"] = categories[(base + int(shifts[pos])) % len(categories)]
        out[i] = mislabeled
        affected.append(i)
    return out, {
        "kind": "mislabel_category",
        "intensity": intensity,
        "n_affected": len(affected),
        "rows": affected,
    }


_CORRUPTORS: Dict[
    str,
    Callable[[List[Record], np.random.Generator, float], Tuple[List[Record], Dict[str, object]]],
] = {
    "duplicates": _inject_duplicates,
    "clock_skew": _inject_clock_skew,
    "drop_op_time": _inject_drop_op_time,
    "truncate_fields": _inject_truncate_fields,
    "bad_positions": _inject_bad_positions,
    "mislabel_category": _inject_mislabel_category,
}

CORRUPTION_KINDS: Tuple[str, ...] = tuple(_CORRUPTORS)


def default_specs(intensity: float = 0.05) -> List[CorruptionSpec]:
    """One spec per known kind at a common intensity."""
    return [CorruptionSpec(kind, intensity) for kind in CORRUPTION_KINDS]


def corrupt_records(
    records: Iterable[Record],
    specs: Sequence[CorruptionSpec],
    seed: int,
) -> Tuple[List[Record], ChaosManifest]:
    """Apply ``specs`` in order to copies of ``records``.

    Deterministic: each corruptor gets its own generator seeded from
    ``(seed, position in specs)``, so reordering specs changes the
    output but re-running with the same arguments never does.
    """
    for spec in specs:
        if spec.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"{spec.kind!r} is a stream-level corruption; "
                f"use corrupt_stream"
            )
    current = [dict(r) for r in records]
    n_input = len(current)
    manifest = ChaosManifest(seed=seed, n_input=n_input, n_output=n_input)
    for position, spec in enumerate(specs):
        rng = np.random.default_rng([seed, position])
        current, entry = _CORRUPTORS[spec.kind](current, rng, spec.intensity)
        manifest.injections.append(entry)
    manifest.n_output = len(current)
    return current, manifest


def corrupt_dataset(
    dataset: FOTDataset,
    specs: Sequence[CorruptionSpec],
    seed: int,
    include_detail: bool = True,
) -> Tuple[List[Record], ChaosManifest]:
    """Corrupt a clean dataset into raw records (see
    :func:`corrupt_records`); write them out with
    :func:`repro.core.io.write_jsonl_records` / ``write_csv_records``."""
    records = list(iter_records(dataset, include_detail=include_detail))
    return corrupt_records(records, specs, seed)


# ----------------------------------------------------------------------
# stream-level corruptors — delivery pathologies of a *feed* of batches
# (the ingestion service's chaos surface).  Each takes and returns a
# list of batches (lists of records) plus a manifest entry.
# ----------------------------------------------------------------------
StreamBatch = List[Record]


def _stream_truncate_batch(
    batches: List[StreamBatch], rng: np.random.Generator, intensity: float
) -> Tuple[List[StreamBatch], Dict[str, object]]:
    """A producer crashing mid-send: sampled batches lose their tail."""
    indices = _sample_indices(rng, len(batches), intensity)
    fractions = rng.uniform(0.1, 0.9, size=indices.size)
    out = [list(b) for b in batches]
    truncated: List[Dict[str, object]] = []
    for pos, i in enumerate(indices.tolist()):
        if not out[i]:
            continue
        keep = max(1, int(len(out[i]) * float(fractions[pos])))
        n_dropped = len(out[i]) - keep
        if n_dropped <= 0:
            continue
        out[i] = out[i][:keep]
        truncated.append({"batch": i, "n_dropped": n_dropped})
    return out, {
        "kind": "truncate_batch",
        "intensity": intensity,
        "n_affected": len(truncated),
        "batches": truncated,
    }


def _stream_duplicate_batch(
    batches: List[StreamBatch], rng: np.random.Generator, intensity: float
) -> Tuple[List[StreamBatch], Dict[str, object]]:
    """At-least-once delivery: sampled batches arrive twice."""
    duplicated = set(_sample_indices(rng, len(batches), intensity).tolist())
    out: List[StreamBatch] = []
    affected: List[int] = []
    for i, batch in enumerate(batches):
        out.append(list(batch))
        if i in duplicated:
            out.append([dict(r) for r in batch])
            affected.append(i)
    return out, {
        "kind": "duplicate_batch",
        "intensity": intensity,
        "n_affected": len(affected),
        "batches": affected,
    }


def _stream_reorder(
    batches: List[StreamBatch], rng: np.random.Generator, intensity: float
) -> Tuple[List[StreamBatch], Dict[str, object]]:
    """Out-of-order delivery: sampled disjoint adjacent pairs swap, so
    the consumer sees older timestamps after newer ones."""
    out = [list(b) for b in batches]
    candidates = _sample_indices(rng, max(0, len(out) - 1), intensity)
    swapped: List[int] = []
    last = -2
    for i in candidates.tolist():
        if i <= last + 1:
            continue
        out[i], out[i + 1] = out[i + 1], out[i]
        swapped.append(i)
        last = i
    return out, {
        "kind": "reorder_stream",
        "intensity": intensity,
        "n_affected": len(swapped),
        "pairs": swapped,
    }


def _stream_oversize_batch(
    batches: List[StreamBatch], rng: np.random.Generator, intensity: float
) -> Tuple[List[StreamBatch], Dict[str, object]]:
    """A producer flushing a huge backlog in one request: sampled
    batches are tiled ``factor``× (fresh ids), tripping the router's
    ``max_batch_tickets`` poison check."""
    indices = _sample_indices(rng, len(batches), intensity)
    factors = rng.integers(2, 5, size=indices.size)
    out = [list(b) for b in batches]
    affected: List[Dict[str, object]] = []
    for pos, i in enumerate(indices.tolist()):
        base = out[i]
        if not base:
            continue
        factor = int(factors[pos])
        next_id = _next_fot_id(base)
        grown = [dict(r) for r in base]
        for _ in range(factor - 1):
            for record in base:
                clone = dict(record)
                clone["fot_id"] = next_id
                next_id += 1
                grown.append(clone)
        out[i] = grown
        affected.append({"batch": i, "factor": factor, "n_records": len(grown)})
    return out, {
        "kind": "oversize_batch",
        "intensity": intensity,
        "n_affected": len(affected),
        "batches": affected,
    }


def _stream_slow_batch(
    batches: List[StreamBatch], rng: np.random.Generator, intensity: float
) -> Tuple[List[StreamBatch], Dict[str, object]]:
    """A stalling producer.  Records are untouched; the manifest entry
    carries per-batch delay metadata (``{"delays": {index: seconds}}``)
    for the driver (soak bench, tests) to enact — e.g. as a validation
    stall — so determinism stays with the seed, not the wall clock."""
    indices = _sample_indices(rng, len(batches), intensity)
    delays = rng.uniform(0.05, 2.0, size=indices.size)
    return [list(b) for b in batches], {
        "kind": "slow_batch",
        "intensity": intensity,
        "n_affected": int(indices.size),
        "delays": {
            str(i): float(delays[pos])
            for pos, i in enumerate(indices.tolist())
        },
    }


_STREAM_CORRUPTORS: Dict[
    str,
    Callable[
        [List[StreamBatch], np.random.Generator, float],
        Tuple[List[StreamBatch], Dict[str, object]],
    ],
] = {
    "truncate_batch": _stream_truncate_batch,
    "duplicate_batch": _stream_duplicate_batch,
    "reorder_stream": _stream_reorder,
    "oversize_batch": _stream_oversize_batch,
    "slow_batch": _stream_slow_batch,
}

STREAM_CORRUPTION_KINDS: Tuple[str, ...] = tuple(_STREAM_CORRUPTORS)


def default_stream_specs(intensity: float = 0.05) -> List[CorruptionSpec]:
    """One spec per known stream-level kind at a common intensity."""
    return [CorruptionSpec(kind, intensity) for kind in STREAM_CORRUPTION_KINDS]


def corrupt_stream(
    batches: Sequence[Sequence[Record]],
    specs: Sequence[CorruptionSpec],
    seed: int,
) -> Tuple[List[StreamBatch], ChaosManifest]:
    """Apply stream-level ``specs`` in order to copies of ``batches``.

    Same determinism contract as :func:`corrupt_records`: each
    corruptor's generator is seeded from ``(seed, position in specs)``.
    The manifest counts *records* (``n_input``/``n_output``), so the
    soak bench can derive the delivered-ticket denominator of its
    zero-loss ledger directly from it.
    """
    for spec in specs:
        if spec.kind not in STREAM_CORRUPTION_KINDS:
            raise ValueError(
                f"{spec.kind!r} is a record-level corruption; "
                f"use corrupt_records"
            )
    current: List[StreamBatch] = [[dict(r) for r in b] for b in batches]
    n_input = sum(len(b) for b in current)
    manifest = ChaosManifest(seed=seed, n_input=n_input, n_output=n_input)
    for position, spec in enumerate(specs):
        rng = np.random.default_rng([seed, position])
        current, entry = _STREAM_CORRUPTORS[spec.kind](
            current, rng, spec.intensity
        )
        manifest.injections.append(entry)
    manifest.n_output = sum(len(b) for b in current)
    return current, manifest


__all__ = [
    "Record",
    "StreamBatch",
    "CorruptionSpec",
    "ChaosManifest",
    "CORRUPTION_KINDS",
    "STREAM_CORRUPTION_KINDS",
    "TRUNCATABLE_FIELDS",
    "BAD_POSITION_VALUES",
    "default_specs",
    "default_stream_specs",
    "corrupt_records",
    "corrupt_stream",
    "corrupt_dataset",
]
