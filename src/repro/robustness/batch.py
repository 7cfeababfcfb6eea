"""Batch-granular quarantine for the streaming ingestion path.

The line-level loaders in :mod:`repro.core.io` decide per *record*;
a streaming service must also decide per *batch*: a batch that is
structurally broken, absurdly large, or mostly dirt should be rejected
whole (dead-lettered, replayable) instead of having its salvageable
minority silently skew the live statistics.  :func:`validate_batch`
runs the existing quarantining parser over a batch and renders one of
four verdicts:

* ``accepted`` — every line parsed, nothing skipped;
* ``accepted_with_quarantine`` — some lines skipped (within the poison
  threshold); the clean remainder is appendable and the skips are
  accounted in the :class:`~repro.robustness.quarantine.QuarantineReport`;
* ``poison_oversized`` / ``poison_structural`` / ``poison_dirty`` —
  the whole batch is rejected; ``dataset`` is empty and the caller
  should dead-letter the *original* records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.dataset import FOTDataset
from repro.core.io import parse_records
from repro.robustness.quarantine import QuarantineReport

#: Stable verdict vocabulary.
ACCEPTED = "accepted"
ACCEPTED_WITH_QUARANTINE = "accepted_with_quarantine"
POISON_OVERSIZED = "poison_oversized"
POISON_STRUCTURAL = "poison_structural"
POISON_DIRTY = "poison_dirty"

VERDICTS = (
    ACCEPTED,
    ACCEPTED_WITH_QUARANTINE,
    POISON_OVERSIZED,
    POISON_STRUCTURAL,
    POISON_DIRTY,
)

#: Verdicts whose batches are appendable.
ACCEPTING_VERDICTS = frozenset({ACCEPTED, ACCEPTED_WITH_QUARANTINE})


@dataclass(frozen=True)
class BatchValidation:
    """The outcome of validating one ingest batch."""

    verdict: str
    reason: str
    dataset: FOTDataset
    quarantine: QuarantineReport

    @property
    def accepted(self) -> bool:
        return self.verdict in ACCEPTING_VERDICTS

    @property
    def n_accepted(self) -> int:
        return len(self.dataset) if self.accepted else 0

    @property
    def n_quarantined(self) -> int:
        return self.quarantine.n_skipped if self.accepted else 0


def validate_batch(
    records: Sequence[object],
    *,
    source: str = "<batch>",
    max_tickets: int = 10_000,
    poison_skip_fraction: float = 0.5,
) -> BatchValidation:
    """Validate one batch of raw records for the streaming append path.

    Args:
        records: the batch as delivered (list of dicts; a non-dict entry
            is a ``bad_json`` skip, filed in line order with the rest).
        max_tickets: batches larger than this are rejected unparsed.
        poison_skip_fraction: reject the whole batch once skipped lines
            exceed this fraction of it.
    """
    report = QuarantineReport(source)

    if not isinstance(records, (list, tuple)):
        return BatchValidation(
            POISON_STRUCTURAL,
            f"batch payload is {type(records).__name__}, not a record list",
            FOTDataset(),
            report,
        )
    if len(records) > max_tickets:
        return BatchValidation(
            POISON_OVERSIZED,
            f"batch of {len(records)} records exceeds the "
            f"{max_tickets}-ticket limit",
            FOTDataset(),
            report,
        )
    if not records:
        return BatchValidation(ACCEPTED, "empty batch", FOTDataset(), report)

    n_broken = sum(not isinstance(record, dict) for record in records)
    if n_broken > poison_skip_fraction * len(records):
        return BatchValidation(
            POISON_STRUCTURAL,
            f"{n_broken}/{len(records)} records are not JSON objects",
            FOTDataset(),
            report,
        )

    dataset, report = parse_records(
        list(enumerate(records, start=1)), strict=False, source=source, report=report
    )
    if report.n_skipped > poison_skip_fraction * len(records):
        return BatchValidation(
            POISON_DIRTY,
            f"{report.n_skipped}/{len(records)} records quarantined "
            f"(> {poison_skip_fraction:.0%} poison threshold)",
            FOTDataset(),
            QuarantineReport(source),
        )
    if report.n_skipped:
        return BatchValidation(
            ACCEPTED_WITH_QUARANTINE,
            f"accepted {len(dataset)} records, quarantined {report.n_skipped}",
            dataset,
            report,
        )
    return BatchValidation(
        ACCEPTED, f"accepted {len(dataset)} records", dataset, report
    )


__all__ = [
    "ACCEPTED",
    "ACCEPTED_WITH_QUARANTINE",
    "POISON_OVERSIZED",
    "POISON_STRUCTURAL",
    "POISON_DIRTY",
    "VERDICTS",
    "ACCEPTING_VERDICTS",
    "BatchValidation",
    "validate_batch",
]
