"""Human-readable summary of an observation directory's metrics facet.

``python -m repro observe-report <dir>`` opens with what a run
recorded: per-component span/event counts, the headline reliability
metrics (retransmissions, timeouts, CNPs, drops), and the top
wall-clock hot spots from the simulator's per-callback profile — the
quick "where did the time go" view before opening trace.json in
Perfetto. The coverage domain table follows it (see
:mod:`repro.coverage.report`).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Dict, List

from .export import EVENTS_FILE, METRICS_FILE, TRACE_FILE, parse_prometheus

__all__ = ["summarize_run", "render_summary", "has_artifacts"]

#: Headline metrics surfaced in their own section, with display names.
_HEADLINE_METRICS = (
    ("nic_retransmitted_packets", "retransmitted packets"),
    ("nic_timeout_fired", "retransmission timeouts fired"),
    ("nic_timer_armed", "retransmission timers armed"),
    ("nic_timer_cancelled", "retransmission timers cancelled"),
    ("nic_cnp_sent", "CNPs sent"),
    ("nic_cnp_handled", "CNPs handled"),
    ("nic_dcqcn_rate_updates", "DCQCN rate updates"),
    ("switch_events_injected", "switch events injected"),
    ("switch_mirrored_packets", "packets mirrored"),
    ("dumper_records", "dumper records captured"),
    ("dumper_discards", "dumper discards"),
    ("fault_mirror_dropped", "mirror clones dropped (fault inj.)"),
    ("store_hits", "campaign store hits"),
    ("store_misses", "campaign store misses"),
    ("fault_mirror_delayed", "mirror clones delayed (fault inj.)"),
    ("run_integrity_failures", "integrity failures"),
    ("run_retries", "integrity-driven retries"),
    ("coverage_domains_hit", "coverage: domains hit"),
    ("coverage_points_hit", "coverage: points hit"),
    ("coverage_points_known", "coverage: points known"),
)


def has_artifacts(path) -> bool:
    """True when ``path`` is a directory holding any metrics-facet file."""
    run = Path(path)
    return any((run / name).is_file()
               for name in (METRICS_FILE, EVENTS_FILE, TRACE_FILE))


def _component_of(record: Dict) -> str:
    name = record.get("name", "")
    return name.split(".", 1)[0] if "." in name else record.get("pid", "?")


def summarize_run(run_dir) -> Dict[str, object]:
    """Parse a run directory into a summary dict (render-ready)."""
    run = Path(run_dir)
    summary: Dict[str, object] = {"dir": str(run)}

    metrics_path = run / METRICS_FILE
    samples: Dict = {}
    if metrics_path.exists():
        samples = parse_prometheus(metrics_path.read_text())
    summary["metrics"] = samples

    components: TallyCounter = TallyCounter()
    span_count = instant_count = 0
    events_path = run / EVENTS_FILE
    if events_path.exists():
        with events_path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line)
                components[_component_of(record)] += 1
                if record.get("kind") == "span":
                    span_count += 1
                else:
                    instant_count += 1
    summary["components"] = dict(components)
    summary["spans"] = span_count
    summary["instants"] = instant_count

    trace_path = run / TRACE_FILE
    summary["trace_events"] = None
    if trace_path.exists():
        with trace_path.open() as handle:
            trace = json.load(handle)
        summary["trace_events"] = len(trace.get("traceEvents", ()))

    # Hot spots from the sim probe's per-callback profile.
    hotspots: List[Dict] = []
    wall = samples.get("sim_callback_wall_ns", {})
    counts = samples.get("sim_callback_count", {})
    for labels, total_ns in wall.items():
        fn = dict(labels).get("fn", "?")
        hotspots.append({"fn": fn, "wall_ns": total_ns,
                         "count": counts.get(labels, 0)})
    hotspots.sort(key=lambda h: -h["wall_ns"])
    summary["hotspots"] = hotspots[:10]
    return summary


def _sum_samples(samples: Dict, name: str) -> float:
    return sum(samples.get(name, {}).values())


def render_summary(run_dir) -> str:
    """Render :func:`summarize_run` as the CLI's plain-text report."""
    summary = summarize_run(run_dir)
    samples = summary["metrics"]
    lines: List[str] = [
        f"Telemetry report — {summary['dir']}",
        "=" * 40,
        f"spans: {summary['spans']}  instants: {summary['instants']}"
        + (f"  trace events: {summary['trace_events']}"
           if summary["trace_events"] is not None else ""),
    ]

    if summary["components"]:
        lines += ["", "Events by component", "-" * 19]
        for component, count in sorted(summary["components"].items(),
                                       key=lambda kv: -kv[1]):
            lines.append(f"  {component:<12s} {count}")

    headline = [(label, _sum_samples(samples, name))
                for name, label in _HEADLINE_METRICS
                if name in samples]
    if headline:
        lines += ["", "Reliability & congestion", "-" * 24]
        for label, value in headline:
            lines.append(f"  {label:<34s} {value:.0f}")

    events_per_sec = _sum_samples(samples, "sim_events_per_sec")
    processed = _sum_samples(samples, "sim_events_processed")
    if processed:
        lines += ["", "Engine", "-" * 6,
                  f"  events processed                   {processed:.0f}",
                  f"  events/sec (wall)                  {events_per_sec:.0f}"]

    if summary["hotspots"]:
        lines += ["", "Top wall-clock hot spots", "-" * 24]
        total_wall = sum(h["wall_ns"] for h in summary["hotspots"]) or 1
        for spot in summary["hotspots"]:
            share = 100.0 * spot["wall_ns"] / total_wall
            lines.append(f"  {spot['wall_ns'] / 1e6:8.2f} ms {share:5.1f}%  "
                         f"{spot['fn']}  (x{spot['count']:.0f})")

    if len(lines) <= 3:
        lines.append("(run directory holds no telemetry artefacts)")
    return "\n".join(lines) + "\n"
