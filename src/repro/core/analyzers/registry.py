"""Analyzer registry: the built-in analyzers behind one lookup.

Every analyzer here implements the :class:`~repro.core.analyzers.base.
Analyzer` protocol — ``name`` + ``analyze(trace, ctx)`` — and wraps one
analysis pass, normalising its bespoke report into the uniform
:class:`AnalyzerResult` (the rich report stays available on
``result.data``). Consumers iterate :func:`iter_analyzers` instead of
hard-coding the pass list, so a new analyzer registers once and shows
up in the run report, the API facade and anything else that asks.

Registration is idempotent by name; re-registering a name replaces the
analyzer (latest wins), which keeps interactive reloads painless.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from .base import Analyzer, AnalyzerContext, AnalyzerResult, Outcome, trace_window
from .cnp import _analyze_cnps
from .counter_check import _check_counters
from .gbn_fsm import _check_gbn_compliance
from .goodput import mct_stats
from .latency import ack_rtt_samples, summarize
from .retrans_perf import _analyze_retransmissions

if TYPE_CHECKING:
    from ..trace import PacketTrace

__all__ = ["register", "get_analyzer", "iter_analyzers", "analyzer_names",
           "GbnAnalyzer", "RetransmissionAnalyzer", "CnpAnalyzer",
           "CounterAnalyzer", "GoodputAnalyzer", "LatencyAnalyzer"]

_REGISTRY: Dict[str, Analyzer] = {}


def register(analyzer: Analyzer) -> Analyzer:
    """Add (or replace) an analyzer under its ``name``; returns it."""
    name = getattr(analyzer, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("analyzer must carry a non-empty string .name")
    if not callable(getattr(analyzer, "analyze", None)):
        raise ValueError(f"analyzer {name!r} has no analyze() method")
    _REGISTRY[name] = analyzer
    return analyzer


def get_analyzer(name: str) -> Analyzer:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown analyzer {name!r}; registered: "
                       f"{analyzer_names()}") from None


def iter_analyzers() -> Iterator[Analyzer]:
    """All registered analyzers, in stable name order."""
    for name in analyzer_names():
        yield _REGISTRY[name]


def analyzer_names() -> List[str]:
    return sorted(_REGISTRY)


# ---------------------------------------------------------------------------
# Built-in analyzers
# ---------------------------------------------------------------------------

class GbnAnalyzer:
    """Go-back-N FSM compliance (§4) as a protocol analyzer."""

    name = "gbn"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        report = _check_gbn_compliance(trace, mtu=ctx.mtu)
        violations = [str(v) for v in report.violations]
        if violations:
            outcome = Outcome.FAIL
            detail = f"{len(violations)} violation(s)"
        elif not report.conclusive:
            outcome = Outcome.INCONCLUSIVE
            detail = (f"capture gaps overlap "
                      f"{len(report.inconclusive_connections)} connection(s)")
        else:
            outcome = Outcome.PASS
            detail = (f"compliant ({report.connections_checked} connections, "
                      f"{report.packets_checked} packets)")
        return AnalyzerResult(
            name=self.name, outcome=outcome, violations=violations,
            evidence_window=trace_window(trace),
            metrics={"connections_checked": report.connections_checked,
                     "packets_checked": report.packets_checked,
                     "inconclusive_connections":
                         len(report.inconclusive_connections)},
            detail=detail, data=report)


class RetransmissionAnalyzer:
    """Per-drop Go-back-N recovery breakdown (§4, Fig. 5)."""

    name = "retransmission"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        events = _analyze_retransmissions(trace)
        violations = [
            f"drop psn={e.dropped_psn} iter={e.drop_iteration} not recovered"
            for e in events if e.conclusive and not e.recovered]
        inconclusive = [e for e in events if not e.conclusive]
        window: Optional[Tuple[int, int]] = None
        if events:
            start = min(e.drop_time_ns for e in events)
            end = max((e.retrans_time_ns or e.drop_time_ns) for e in events)
            window = (start, end)
        if violations:
            outcome = Outcome.FAIL
            detail = f"{len(violations)} unrecovered drop(s)"
        elif inconclusive or (not events and trace.has_gaps):
            outcome = Outcome.INCONCLUSIVE
            detail = "capture gaps overlap the recovery window"
        else:
            outcome = Outcome.PASS
            fast = sum(1 for e in events if e.fast_retransmission)
            detail = (f"{len(events)} drop(s), {fast} fast retransmission(s)"
                      if events else "no injected drops")
        return AnalyzerResult(
            name=self.name, outcome=outcome, violations=violations,
            evidence_window=window,
            metrics={"events": len(events),
                     "fast_retransmissions":
                         sum(1 for e in events if e.fast_retransmission),
                     "recovered": sum(1 for e in events if e.recovered)},
            detail=detail, data=events)


class CnpAnalyzer:
    """DCQCN congestion-notification validity (§4, §6.3)."""

    name = "cnp"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        report = _analyze_cnps(trace)
        violations = ([f"{report.spurious_cnps} CNP(s) without a preceding "
                       f"ECN mark"] if report.spurious_cnps else [])
        if violations:
            outcome = Outcome.FAIL
        elif not report.conclusive and (report.total_cnps
                                        or report.total_ecn_marked):
            outcome = Outcome.INCONCLUSIVE
        else:
            outcome = Outcome.PASS
        return AnalyzerResult(
            name=self.name, outcome=outcome, violations=violations,
            evidence_window=trace_window(trace),
            metrics={"total_cnps": report.total_cnps,
                     "total_ecn_marked": report.total_ecn_marked,
                     "spurious_cnps": report.spurious_cnps},
            detail=(f"{report.total_cnps} CNP(s) for "
                    f"{report.total_ecn_marked} mark(s), "
                    f"{report.spurious_cnps} spurious"),
            data=report)


class CounterAnalyzer:
    """NIC counters diffed against trace-derived truth (§4, §6.2.4)."""

    name = "counters"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        if ctx.result is None:
            return AnalyzerResult(
                name=self.name, outcome=Outcome.INCONCLUSIVE,
                detail="no TestResult in context: counters unavailable")
        report = _check_counters(ctx.result)
        violations = [str(m) for m in report.mismatches]
        if not report.conclusive:
            outcome = Outcome.INCONCLUSIVE
            detail = ("capture gaps make trace-derived expectations "
                      "unreliable; no counters checked")
        elif violations:
            outcome = Outcome.FAIL
            detail = f"{len(violations)} counter bug(s)"
        else:
            outcome = Outcome.PASS
            detail = (f"all {report.checked} checked counters consistent "
                      f"with the trace")
        return AnalyzerResult(
            name=self.name, outcome=outcome, violations=violations,
            evidence_window=trace_window(trace),
            metrics={"checked": report.checked,
                     "mismatches": len(report.mismatches)},
            detail=detail, data=report)


class GoodputAnalyzer:
    """Application-level goodput and message-completion times."""

    name = "goodput"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        if ctx.result is None:
            return AnalyzerResult(
                name=self.name, outcome=Outcome.INCONCLUSIVE,
                detail="no TestResult in context: traffic log unavailable")
        log = ctx.result.traffic_log
        stats = mct_stats(log.all_messages)
        metrics = {"goodput_gbps": log.total_goodput_bps() / 1e9,
                   "aborted_qps": log.aborted_qps}
        if stats is not None:
            metrics.update({"mct_mean_us": stats.mean_us,
                            "mct_p50_us": stats.p50_ns / 1e3,
                            "mct_p99_us": stats.p99_ns / 1e3,
                            "messages": stats.count})
        violations = ([f"{log.aborted_qps} QP(s) aborted (retry exhaustion)"]
                      if log.aborted_qps else [])
        outcome = Outcome.FAIL if violations else Outcome.PASS
        detail = (f"{metrics['goodput_gbps']:.2f} Gbps, "
                  + (f"mean MCT {stats.mean_us:.1f} us"
                     if stats else "no completed messages"))
        return AnalyzerResult(
            name=self.name, outcome=outcome, violations=violations,
            evidence_window=trace_window(trace),
            metrics=metrics, detail=detail, data=stats)


class LatencyAnalyzer:
    """Wire-level ACK round-trip latency, per the switch's clock."""

    name = "latency"

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        samples = [s for values in ack_rtt_samples(trace).values()
                   for s in values]
        summary = summarize(samples)
        if summary is None:
            return AnalyzerResult(
                name=self.name, outcome=Outcome.INCONCLUSIVE,
                evidence_window=trace_window(trace),
                detail="no ACK round-trips observable in the trace")
        return AnalyzerResult(
            name=self.name, outcome=Outcome.PASS,
            evidence_window=trace_window(trace),
            metrics={"samples": summary.count,
                     "ack_rtt_mean_us": summary.mean_us,
                     "ack_rtt_min_ns": summary.min_ns,
                     "ack_rtt_max_ns": summary.max_ns},
            detail=(f"{summary.count} ACK RTT sample(s), "
                    f"mean {summary.mean_us:.1f} us"),
            data=summary)


for _analyzer in (GbnAnalyzer(), RetransmissionAnalyzer(), CnpAnalyzer(),
                  CounterAnalyzer(), GoodputAnalyzer(), LatencyAnalyzer()):
    register(_analyzer)
