"""Human-readable test reports.

Renders everything a single Lumina run produced — integrity verdict,
traffic metrics, analyzer outcomes and interesting counters — as plain
text, the way an operator would want to read it after a testbed run.
Used by the CLI (``python -m repro run``) and handy in notebooks.
"""

from __future__ import annotations

from typing import List

from ..net.addressing import int_to_ip
from .analyzers.base import AnalyzerContext
from .analyzers.goodput import mct_stats
from .analyzers.registry import get_analyzer
from .results import TestResult

__all__ = ["render_report", "render_fuzz_summary"]

_INTERESTING_COUNTERS = (
    "packet_seq_err", "out_of_sequence", "implied_nak_seq_err",
    "local_ack_timeout_err", "retransmitted_packets", "rx_icrc_errors",
    "rx_discards_phy", "cnp_sent", "cnp_handled", "nak_sent",
    "rnr_nak_sent", "qp_retry_exceeded",
)


def _section(title: str) -> List[str]:
    return ["", title, "-" * len(title)]


def render_report(result: TestResult) -> str:
    """Render one result as a multi-section plain-text report."""
    traffic = result.config.traffic
    ctx = AnalyzerContext.for_result(result)
    lines: List[str] = [
        "Lumina test report",
        "==================",
        f"verb={traffic.rdma_verb} connections={traffic.num_connections} "
        f"msgs/qp={traffic.num_msgs_per_qp} size={traffic.message_size}B "
        f"mtu={traffic.mtu} seed={result.config.seed}",
        f"requester: {result.requester_counters.nic_type}  "
        f"responder: {result.responder_counters.nic_type}",
        f"injected events: {len(traffic.data_pkt_events)} "
        f"(+{len(traffic.periodic_events)} periodic-ECN intents)",
        f"simulated duration: {result.duration_ns / 1e6:.3f} ms",
    ]

    lines += _section("Integrity (§3.5)")
    lines.append(result.integrity.summary())
    if result.dumper_discards:
        lines.append(f"WARNING: {result.dumper_discards} packets discarded "
                     f"by the dumper pool — capture incomplete")
    if result.trace.has_gaps:
        lines.append(f"trace coverage: {result.trace.coverage:.1%} "
                     f"({len(result.trace.gaps)} gap(s))")
        for gap in result.trace.gaps[:10]:
            lines.append(f"  {gap}")
        if len(result.trace.gaps) > 10:
            lines.append(f"  ... ({len(result.trace.gaps) - 10} more)")
    if len(result.attempts) > 1:
        lines.append(f"attempts: {len(result.attempts)} "
                     f"(integrity-driven retry, §3.5)")
        for record in result.attempts:
            status = "PASS" if record.ok else "FAIL"
            extra = (f", backoff {record.backoff_ns / 1e6:.1f} ms"
                     if record.backoff_ns else "")
            lines.append(f"  attempt {record.attempt}: integrity {status}, "
                         f"trace={record.trace_packets} "
                         f"discards={record.dumper_discards}{extra}")
    faults = result.config.measurement_faults
    if faults is not None and faults.injects_faults:
        lines.append("NOTE: measurement-plane faults were injected "
                     "(capture stress test)")

    lines += _section("Application metrics")
    stats = mct_stats(result.traffic_log.all_messages)
    lines.append(f"goodput: {result.traffic_log.total_goodput_bps() / 1e9:.2f} Gbps")
    if stats is not None:
        lines.append(f"MCT: mean {stats.mean_us:.1f} us, p50 "
                     f"{stats.p50_ns / 1e3:.1f} us, p99 {stats.p99_ns / 1e3:.1f} us, "
                     f"max {stats.max_ns / 1e3:.1f} us ({stats.count} messages)")
    if result.traffic_log.aborted_qps:
        lines.append(f"WARNING: {result.traffic_log.aborted_qps} QP(s) "
                     f"aborted (retry exhaustion)")

    lines += _section("Retransmission analysis (§4)")
    events = get_analyzer("retransmission").analyze(result.trace, ctx).data
    if not events:
        lines.append("no injected drops")
    for event in events:
        src, dst, qpn = event.conn_key
        kind = "fast retransmission" if event.fast_retransmission else "timeout"
        detail = f"drop psn={event.dropped_psn} iter={event.drop_iteration} " \
                 f"on {int_to_ip(src)}->{int_to_ip(dst)}: {kind}"
        if event.nack_generation_ns is not None:
            detail += f", NACK gen {event.nack_generation_ns / 1e3:.1f} us"
        if event.nack_reaction_ns is not None:
            detail += f", react {event.nack_reaction_ns / 1e3:.1f} us"
        if not event.recovered:
            detail += " — NOT RECOVERED"
        if not event.conclusive:
            detail += " [INCONCLUSIVE: capture gap in recovery window]"
        lines.append(detail)

    fsm = get_analyzer("gbn").analyze(result.trace, ctx).data
    lines += _section("Go-back-N logic check (§4)")
    if fsm.compliant:
        lines.append(f"compliant ({fsm.connections_checked} connections, "
                     f"{fsm.packets_checked} packets)")
    else:
        lines.append(f"{len(fsm.violations)} VIOLATION(S):")
        lines.extend(f"  {violation}" for violation in fsm.violations[:10])
    if not fsm.conclusive:
        lines.append(f"INCONCLUSIVE: {len(fsm.inconclusive_connections)} "
                     f"connection(s) skipped — capture gaps overlap their "
                     f"window")

    cnps = get_analyzer("cnp").analyze(result.trace, ctx).data
    if cnps.total_cnps or cnps.total_ecn_marked:
        lines += _section("Congestion notification (§4)")
        lines.append(f"ECN-marked data packets: {cnps.total_ecn_marked}, "
                     f"CNPs: {cnps.total_cnps}, spurious: {cnps.spurious_cnps}")
        if not cnps.conclusive:
            lines.append("INCONCLUSIVE: capture gaps — counts are lower "
                         "bounds, spurious CNPs may have visible causes "
                         "lost from the trace")

    counter_report = get_analyzer("counters").analyze(result.trace, ctx).data
    lines += _section("Counter check (§4)")
    if not counter_report.conclusive:
        lines.append("INCONCLUSIVE: capture gaps make trace-derived "
                     "expectations unreliable; no counters checked")
    elif counter_report.consistent:
        lines.append(f"all {counter_report.checked} checked counters "
                     f"consistent with the trace")
    else:
        lines.append("COUNTER BUGS:")
        lines.extend(f"  {mismatch}" for mismatch in counter_report.mismatches)

    lines += _section("Counters (vendor names)")
    from ..rdma.profiles import get_profile

    for host in (result.requester_counters, result.responder_counters):
        names = get_profile(host.nic_type).counter_names
        shown = [f"{names.get(c, c)}={host.canonical.get(c, 0)}"
                 for c in _INTERESTING_COUNTERS if host.canonical.get(c, 0)]
        lines.append(f"{host.host} ({host.nic_type}): "
                     + (", ".join(shown) if shown else "all quiet"))

    if result.coverage is not None:
        # Conditional section: coverage-off reports stay byte-identical
        # to the pre-coverage format.
        from ..coverage.domains import DOMAINS
        from ..coverage.report import summarize_points

        lines += _section("Micro-behavior coverage")
        summary = summarize_points(result.coverage)
        for domain in sorted(DOMAINS):
            row = summary.get(domain)
            hit = row["hit"] if row else 0
            known = row["known"] if row else len(DOMAINS[domain])
            hits = row["hits"] if row else 0
            lines.append(f"{domain:<18s} {hit:>3d}/{known:<3d} points, "
                         f"{hits} hit(s)")
        if result.flight_record:
            lines.append(f"flight record: {len(result.flight_record)} "
                         f"event(s) captured (see --observe dump)")

    return "\n".join(lines) + "\n"


def render_fuzz_summary(report) -> str:
    """The fuzz command's deterministic summary of one FuzzReport.

    The single rendering path for ``python -m repro fuzz``, the campaign
    service and the api facade — a campaign executed through any of them
    yields a byte-identical summary document.
    """
    lines = [f"iterations: {report.iterations_run}  "
             f"findings: {len(report.findings)}  "
             f"invalid: {report.invalid_runs}"]
    lines.extend("  " + finding.summary() for finding in report.findings)
    if report.coverage_growth:
        lines.append("coverage growth:")
        lines.extend(
            f"  gen {row['generation']:>3d}: +{row['new-points']} point(s), "
            f"{row['total-points']} total"
            for row in report.coverage_growth)
    if report.rediscoveries:
        lines.append(f"dedup: {report.rediscoveries} anomalous re-run(s) "
                     f"collapsed into {len(report.findings)} finding(s)")
        lines.append(f"  {'iter':>4s} {'count':>5s} {'score':>7s}  anomaly")
        lines.extend(
            f"  {f.iteration:>4d} {f.count:>5d} {f.score.total:>7.1f}  "
            + (f.score.anomalies[0] if f.score.anomalies else "-")
            for f in report.findings)
    if report.pool_evictions:
        lines.append(f"corpus: {report.pool_evictions} dominated pool "
                     "entries evicted")
    return "\n".join(lines) + "\n"
