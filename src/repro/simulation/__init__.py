"""Failure-process simulator.

Synthesizes the four-year FOT trace that stands in for the paper's
proprietary dataset:

* :mod:`repro.simulation.calibration` — every tunable constant and the
  paper targets they aim at (single source of truth).
* :mod:`repro.simulation.hazards` — lifecycle hazard shapes (infant
  mortality / wear-out) per component class.
* :mod:`repro.simulation.base_process` — the vectorized
  hazard-with-frailty sampler that produces the bulk of the failures.
* :mod:`repro.simulation.batch_events` — storm injectors (the SMART
  storm, SAS batch, PDU outage and misoperation cases of Section V-A).
* :mod:`repro.simulation.correlated` — correlated component pairs,
  flapping (BBU-style) servers and synchronous repeat groups.
* :mod:`repro.simulation.events` — :class:`EventColumns`, the one event
  format every generator emits and the FMS pipeline takes.
* :mod:`repro.simulation.trace` — the top-level generator.
"""

from repro.simulation.trace import generate_paper_trace, generate_trace
from repro.simulation.events import EventColumns

__all__ = ["generate_paper_trace", "generate_trace", "EventColumns"]
