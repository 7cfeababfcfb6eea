"""Dirty-data resilience for real ticket dumps.

The paper's own threats-to-validity section (§VII) documents the
pathologies of a production FMS dump: stateless re-opened tickets,
monitoring-coverage changes, incomplete fields.  This package makes the
toolkit survive — and *measure* — such dirt:

* :mod:`repro.robustness.quarantine` — the :class:`QuarantineReport`
  that ``repro.core.io``'s ``strict=False`` loaders fill with every
  skipped line and applied repair.
* :mod:`repro.robustness.batch` — batch-granular quarantine for the
  streaming ingestion service: a whole batch that is oversized,
  structurally broken or mostly dirt is rejected (dead-letterable)
  instead of partially appended.
* :mod:`repro.robustness.chaos` — deterministic, seeded corruptors that
  mutate a clean trace to model real FMS pathologies (duplicates, clock
  skew, dropped ``op_time``, truncated fields, bad rack positions,
  category mislabels), with a machine-readable manifest.
* :mod:`repro.robustness.quality` — the :class:`DataQuality` assessment
  analyses consult to degrade gracefully (exclude-and-report) instead of
  crashing on incomplete data.
* :mod:`repro.robustness.drift` — the corruption-type × intensity sweep
  that records how far each headline paper statistic drifts under dirt.

``chaos`` and ``drift`` build on :mod:`repro.core.io` (which itself uses
``quarantine``), so they are exposed lazily here to keep the import
graph acyclic.
"""

from repro.robustness.quality import (
    DEFAULT_MAX_POSITION,
    DataQuality,
    Exclusion,
    FieldCoverage,
    InsufficientDataError,
    audit_dataset,
    clean_response_times,
)
from repro.robustness.quarantine import (
    QuarantineReport,
    RepairEntry,
    RowError,
    SkipEntry,
)

_LAZY = {
    "BatchValidation": "repro.robustness.batch",
    "validate_batch": "repro.robustness.batch",
    "batch": "repro.robustness.batch",
    "CorruptionSpec": "repro.robustness.chaos",
    "ChaosManifest": "repro.robustness.chaos",
    "CORRUPTION_KINDS": "repro.robustness.chaos",
    "STREAM_CORRUPTION_KINDS": "repro.robustness.chaos",
    "corrupt_records": "repro.robustness.chaos",
    "corrupt_stream": "repro.robustness.chaos",
    "corrupt_dataset": "repro.robustness.chaos",
    "DriftCell": "repro.robustness.drift",
    "DriftTable": "repro.robustness.drift",
    "HEADLINE_STATS": "repro.robustness.drift",
    "robustness_sweep": "repro.robustness.drift",
    "chaos": "repro.robustness.chaos",
    "drift": "repro.robustness.drift",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target)
    if name in ("batch", "chaos", "drift"):
        return module
    return getattr(module, name)


__all__ = [
    "QuarantineReport",
    "SkipEntry",
    "RepairEntry",
    "RowError",
    "DataQuality",
    "FieldCoverage",
    "Exclusion",
    "InsufficientDataError",
    "DEFAULT_MAX_POSITION",
    "clean_response_times",
    "audit_dataset",
    "BatchValidation",
    "validate_batch",
    "CorruptionSpec",
    "ChaosManifest",
    "CORRUPTION_KINDS",
    "STREAM_CORRUPTION_KINDS",
    "corrupt_records",
    "corrupt_stream",
    "corrupt_dataset",
    "DriftCell",
    "DriftTable",
    "HEADLINE_STATS",
    "robustness_sweep",
]
