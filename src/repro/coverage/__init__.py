"""Micro-behavior coverage maps and the anomaly flight recorder.

Lumina's value proposition is *observing* micro-behaviors of offloaded
stacks; aggregate metrics (``repro.telemetry``) say how often things
happened but not *which* protocol states and pipeline paths a run
actually exercised. This package closes that gap with two deterministic
observability primitives:

* :class:`~repro.coverage.map.CoverageMap` — hit counts plus first-hit
  sim-time for named instrumentation points, grouped into domains that
  mirror the paper's micro-behaviors (switch match-action tables, the
  ITER tracker of Fig. 3, GBN/RNR state-machine edges of §6, DCQCN
  rate-state transitions). Maps merge commutatively, so suite, sweep
  and fuzz campaigns aggregate byte-identically for any worker count.
* :class:`~repro.coverage.recorder.FlightRecorder` — a bounded ring of
  the last N protocol events per component, dumped alongside the report
  when a check FAILs, goes INCONCLUSIVE or an integrity retry fires —
  turning "test 83 failed" into an inspectable micro-behavior timeline.

Both are facets of the one observation session (:mod:`repro.observe`):
``--observe DIR`` writes ``coverage.json`` and the ``flight-*.txt``
dumps next to the metrics and traces, and ``python -m repro
observe-report DIR`` renders the domain table. Nothing here ever feeds
information back into the simulation, so runs with coverage on or off
produce byte-identical traces and verdicts.
"""

from .domains import DOMAINS, known_point_count
from .map import NULL_DOMAIN, CoverageMap, DomainHandle
from .recorder import NULL_RECORDER, FlightRecorder

__all__ = [
    "CoverageMap", "DomainHandle", "FlightRecorder",
    "DOMAINS", "known_point_count",
    "NULL_DOMAIN", "NULL_RECORDER",
]
