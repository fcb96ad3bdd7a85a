"""Runtime telemetry for the whole testbed (metrics, spans, exporters).

Lumina's value is visibility into micro-behaviors; this package gives
the *reproduction* the same property at runtime. Every layer — the
simulation engine, the switch pipeline, the RNIC models, the dumper
pool, the orchestrator and the fuzzer — emits into the metrics facet of
the one observation session (:mod:`repro.observe`):

* **Metrics** (:mod:`.metrics`): counters, gauges and histograms keyed
  by name + labels, exported in Prometheus text format.
* **Sim-time spans** (:mod:`.spans`): phases and point events stamped
  in simulation nanoseconds with wall-clock cost alongside, exported as
  Chrome trace-event JSON (open ``trace.json`` in Perfetto).
* **JSONL event log** (:mod:`.export`): the same records, one JSON
  object per line, for scripts.

Telemetry is **off by default** and free when off: components hold
shared no-op metric handles and the engine skips its probe branch, so
deterministic results are byte-identical either way (see
:mod:`repro.observe` for the guarantee and the tests that enforce it).

Enable with ``--observe DIR`` on any campaign command, programmatically
via :func:`repro.observe.enable`, or scoped with ``with
observe.session("out/"):``. Summarize a run directory with
``python -m repro observe-report out/``.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
)
from .spans import Tracer, SpanRecord, InstantRecord
from .export import (
    export_run,
    jsonl_lines,
    parse_prometheus,
    to_chrome_trace,
    to_prometheus,
)
from .instrument import SimProbe, attach_simulator, attach_testbed
from .report import render_summary, summarize_run

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "NULL_COUNTER", "NULL_GAUGE", "NULL_HISTOGRAM",
    "Tracer", "SpanRecord", "InstantRecord",
    "export_run", "jsonl_lines", "parse_prometheus",
    "to_chrome_trace", "to_prometheus",
    "SimProbe", "attach_simulator", "attach_testbed",
    "render_summary", "summarize_run",
]
