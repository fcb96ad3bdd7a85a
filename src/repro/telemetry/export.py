"""Exporters: Chrome trace-event JSON, Prometheus text, JSONL.

Three output formats, all written into a run directory by
:func:`export_run`:

* ``trace.json`` — Chrome trace-event format (the JSON object form with
  a ``traceEvents`` array), loadable in Perfetto or ``chrome://tracing``.
  One trace "process" per simulated host/switch/dumper, one "thread"
  per QP or pipeline stage; timestamps are simulation microseconds and
  every span carries its wall-clock cost in ``args.wall_us``.
* ``metrics.prom`` — Prometheus text exposition of every counter, gauge
  and histogram (gauges also expose a ``_high_water`` sample).
* ``events.jsonl`` — one compact JSON object per span/instant, in
  recording order, for programmatic consumption.

:func:`parse_prometheus` is the matching reader used by
``repro observe-report`` and the round-trip tests.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Tracer

__all__ = ["to_chrome_trace", "to_prometheus", "jsonl_lines",
           "export_run", "parse_prometheus",
           "TRACE_FILE", "METRICS_FILE", "EVENTS_FILE"]

TRACE_FILE = "trace.json"
METRICS_FILE = "metrics.prom"
EVENTS_FILE = "events.jsonl"


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------
def to_chrome_trace(tracer: Tracer) -> Dict[str, object]:
    """Render a tracer's records as a Chrome trace-event JSON object."""
    events: List[Dict[str, object]] = []
    for pid, name in sorted(tracer.process_names.items()):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": "", "args": {"name": name}})
    for (pid, tid), name in sorted(tracer.thread_names.items()):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": name}})
    for span in tracer.spans:
        args = dict(span.args)
        args["wall_us"] = round(span.wall_ns / 1e3, 3)
        events.append({
            "ph": "X", "name": span.name, "cat": span.category or "sim",
            "pid": span.pid, "tid": span.tid,
            "ts": span.start_ns / 1e3,
            "dur": max(span.duration_ns, 0) / 1e3,
            "args": args,
        })
    for inst in tracer.instants:
        events.append({
            "ph": "i", "s": "t", "name": inst.name,
            "cat": inst.category or "sim",
            "pid": inst.pid, "tid": inst.tid,
            "ts": inst.ts_ns / 1e3,
            "args": dict(inst.args),
        })
    return {"traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"producer": "repro.telemetry",
                          "time_domain": "simulation_ns/1000"}}


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _fmt_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _sanitize(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render every metric in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()
    for metric in registry.all_metrics():
        name = _sanitize(metric.name)
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {metric.kind}")
        if isinstance(metric, Counter):
            lines.append(f"{name}{_fmt_labels(metric.labels)} {metric.value}")
        elif isinstance(metric, Gauge):
            lines.append(f"{name}{_fmt_labels(metric.labels)} {metric.value}")
            lines.append(f"{name}_high_water{_fmt_labels(metric.labels)} "
                         f"{metric.high_water}")
        elif isinstance(metric, Histogram):
            # Bucket counts are cumulative already (observe() increments
            # every bucket whose bound covers the value).
            for bound, count in zip(metric.buckets, metric.counts):
                le = 'le="%s"' % bound
                lines.append(
                    f"{name}_bucket{_fmt_labels(metric.labels, le)} {count}")
            inf = 'le="+Inf"'
            lines.append(
                f"{name}_bucket{_fmt_labels(metric.labels, inf)}"
                f" {metric.count}")
            lines.append(f"{name}_sum{_fmt_labels(metric.labels)} {metric.sum}")
            lines.append(f"{name}_count{_fmt_labels(metric.labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s]+)$')
_LABEL_RE = re.compile(r'(\w+)="([^"]*)"')


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text into {name: {labels: value}}."""
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {line!r}")
        labels = tuple(sorted(_LABEL_RE.findall(match.group("labels") or "")))
        samples.setdefault(match.group("name"), {})[labels] = \
            float(match.group("value"))
    return samples


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def jsonl_lines(tracer: Tracer) -> Iterator[str]:
    """Every span and instant as one compact JSON object per line."""
    records = []
    for span in tracer.spans:
        records.append((span.span_id, {
            "kind": "span", "id": span.span_id, "name": span.name,
            "pid": span.pid, "tid": span.tid, "cat": span.category,
            "ts_ns": span.start_ns, "dur_ns": span.duration_ns,
            "wall_ns": span.wall_ns, "args": span.args,
        }))
    for inst in tracer.instants:
        records.append((inst.span_id, {
            "kind": "instant", "id": inst.span_id, "name": inst.name,
            "pid": inst.pid, "tid": inst.tid, "cat": inst.category,
            "ts_ns": inst.ts_ns, "args": inst.args,
        }))
    for _, record in sorted(records, key=lambda r: r[0]):
        yield json.dumps(record, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Run-directory writer
# ----------------------------------------------------------------------
def export_run(registry: MetricsRegistry, tracer: Tracer,
               out_dir) -> Dict[str, str]:
    """Write all three artefacts into ``out_dir``; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / TRACE_FILE
    trace_path.write_text(json.dumps(to_chrome_trace(tracer)))
    metrics_path = out / METRICS_FILE
    metrics_path.write_text(to_prometheus(registry))
    events_path = out / EVENTS_FILE
    with events_path.open("w") as handle:
        for line in jsonl_lines(tracer):
            handle.write(line + "\n")
    return {"trace": str(trace_path), "metrics": str(metrics_path),
            "events": str(events_path)}
