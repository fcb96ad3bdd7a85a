"""Stable JSON serialization for campaign artefacts.

Everything the store replays — full :class:`TestResult` objects, fuzz
scores, suite check verdicts, fuzz reports — round-trips through plain
JSON dicts such that ``decode(encode(x)) == x`` under dataclass
equality. Trace entries keep their trimmed records' bytes as captured,
so records are stored as those hex wire bytes and reloaded through the
same :func:`~repro.core.trace.reconstruct_trace` path a live run uses —
ITER derivation included, so a replayed trace is indistinguishable
from a fresh one.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.config import TestConfig
from ..core.intent import QpMetadata
from ..core.results import AttemptRecord, HostCounters, TestResult
from ..core.trace import IntegrityReport, PacketTrace, reconstruct_trace
from ..core.trafficgen import MessageRecord, QpStats, TrafficGenLog
from ..dumper.records import DumpRecord
from ..rdma.verbs import Verb, WcStatus

__all__ = [
    "DOCUMENT_SCHEMA_VERSION",
    "wrap_document", "unwrap_document",
    "encode_result", "decode_result",
    "encode_score", "decode_score",
    "encode_check_result", "decode_check_result",
    "encode_analyzer_result", "decode_analyzer_result",
    "encode_fuzz_report", "decode_fuzz_report",
]

#: Version stamped into every JSON document that crosses the wire or
#: lands on disk as a standalone file (job specs, job status payloads,
#: result documents, ``save_result`` files). Bump when an envelope's
#: ``body`` shape changes incompatibly.
DOCUMENT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Versioned document envelope
# ---------------------------------------------------------------------------

def wrap_document(kind: str, body: Dict) -> Dict:
    """Wrap ``body`` in the versioned envelope every persisted or
    wire-crossing JSON document carries.

    The envelope is deliberately tiny — ``schema-version`` names the
    format revision, ``kind`` what the body is (``job-spec``,
    ``job-status``, ``job-result``, ``test-result``, ...) — so readers
    can dispatch before touching the body.
    """
    return {"schema-version": DOCUMENT_SCHEMA_VERSION, "kind": kind,
            "body": body}


def unwrap_document(data: Dict, kind: Optional[str] = None,
                    ) -> Tuple[int, Dict]:
    """``(schema_version, body)`` of a versioned envelope.

    A document without a ``schema-version`` key is rejected, as is one
    from a *newer* schema than this code understands; ``kind`` (when
    given) is validated against the envelope.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if "schema-version" not in data:
        raise ValueError("unversioned document: no schema-version "
                         "envelope")
    try:
        version = int(data["schema-version"])
    except (TypeError, ValueError, OverflowError):
        raise ValueError("schema-version must be an integer") from None
    if version > DOCUMENT_SCHEMA_VERSION:
        raise ValueError(
            f"document schema-version {version} is newer than this "
            f"code understands (max {DOCUMENT_SCHEMA_VERSION})")
    if kind is not None and data.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} document, "
                         f"got {data.get('kind')!r}")
    body = data.get("body")
    if not isinstance(body, dict):
        raise ValueError("versioned document has no body object")
    return version, body


# ---------------------------------------------------------------------------
# Trace records
# ---------------------------------------------------------------------------

def _encode_trace(trace: PacketTrace) -> Dict:
    return {
        "expected-packets": trace.expected_packets,
        "records": [
            {"raw": p.raw.hex(),
             "rx-time-ns": p.rx_time_ns,
             "server": p.server,
             "core": p.core}
            for p in trace.packets
        ],
    }


def _decode_trace(data: Dict) -> PacketTrace:
    records = [
        DumpRecord(raw=bytes.fromhex(r["raw"]), rx_time_ns=r["rx-time-ns"],
                   server=r["server"], core=r["core"])
        for r in data["records"]
    ]
    # A replayed trace is not a new run: the stored result already
    # carries its run's coverage, ITER re-derivation included.
    return reconstruct_trace(records, expected_packets=data["expected-packets"],
                             record_coverage=False)


# ---------------------------------------------------------------------------
# Result components
# ---------------------------------------------------------------------------

def _encode_integrity(report: IntegrityReport) -> Dict:
    return {
        "seq-consecutive": report.seq_consecutive,
        "mirror-count-matches": report.mirror_count_matches,
        "roce-count-matches": report.roce_count_matches,
        "trace-packets": report.trace_packets,
        "mirrored-packets": report.mirrored_packets,
        "roce-rx-packets": report.roce_rx_packets,
        "missing-seqs": list(report.missing_seqs),
    }


def _decode_integrity(data: Dict) -> IntegrityReport:
    return IntegrityReport(
        seq_consecutive=data["seq-consecutive"],
        mirror_count_matches=data["mirror-count-matches"],
        roce_count_matches=data["roce-count-matches"],
        trace_packets=data["trace-packets"],
        mirrored_packets=data["mirrored-packets"],
        roce_rx_packets=data["roce-rx-packets"],
        missing_seqs=list(data["missing-seqs"]),
    )


def _encode_metadata(meta: QpMetadata) -> Dict:
    return {
        "index": meta.index,
        "requester-ip": meta.requester_ip,
        "requester-qpn": meta.requester_qpn,
        "requester-ipsn": meta.requester_ipsn,
        "responder-ip": meta.responder_ip,
        "responder-qpn": meta.responder_qpn,
        "responder-ipsn": meta.responder_ipsn,
        "verb": meta.verb.value,
    }


def _decode_metadata(data: Dict) -> QpMetadata:
    return QpMetadata(
        index=data["index"],
        requester_ip=data["requester-ip"],
        requester_qpn=data["requester-qpn"],
        requester_ipsn=data["requester-ipsn"],
        responder_ip=data["responder-ip"],
        responder_qpn=data["responder-qpn"],
        responder_ipsn=data["responder-ipsn"],
        verb=Verb(data["verb"]),
    )


def _encode_host_counters(hc: HostCounters) -> Dict:
    return {"host": hc.host, "nic-type": hc.nic_type,
            "canonical": dict(hc.canonical), "vendor": dict(hc.vendor),
            "suppressed": dict(hc.suppressed)}


def _decode_host_counters(data: Dict) -> HostCounters:
    return HostCounters(host=data["host"], nic_type=data["nic-type"],
                        canonical=dict(data["canonical"]),
                        vendor=dict(data["vendor"]),
                        suppressed=dict(data["suppressed"]))


def _encode_message(msg: MessageRecord) -> Dict:
    return {
        "qp-index": msg.qp_index,
        "msg-index": msg.msg_index,
        "wr-id": msg.wr_id,
        "verb": msg.verb.value,
        "size": msg.size,
        "posted-at": msg.posted_at,
        "completed-at": msg.completed_at,
        "status": msg.status.value if msg.status is not None else None,
    }


def _decode_message(data: Dict) -> MessageRecord:
    status = data["status"]
    return MessageRecord(
        qp_index=data["qp-index"],
        msg_index=data["msg-index"],
        wr_id=data["wr-id"],
        verb=Verb(data["verb"]),
        size=data["size"],
        posted_at=data["posted-at"],
        completed_at=data["completed-at"],
        status=WcStatus(status) if status is not None else None,
    )


def _encode_traffic_log(log: TrafficGenLog) -> Dict:
    return {
        "per-qp": [
            {"qp-index": qp.qp_index,
             "messages": [_encode_message(m) for m in qp.messages]}
            for qp in log.per_qp
        ],
        "started-at": log.started_at,
        "finished-at": log.finished_at,
        "aborted-qps": log.aborted_qps,
    }


def _decode_traffic_log(data: Dict) -> TrafficGenLog:
    return TrafficGenLog(
        per_qp=[
            QpStats(qp_index=qp["qp-index"],
                    messages=[_decode_message(m) for m in qp["messages"]])
            for qp in data["per-qp"]
        ],
        started_at=data["started-at"],
        finished_at=data["finished-at"],
        aborted_qps=data["aborted-qps"],
    )


def _encode_attempt(attempt: AttemptRecord) -> Dict:
    return {
        "attempt": attempt.attempt,
        "integrity": _encode_integrity(attempt.integrity),
        "trace-packets": attempt.trace_packets,
        "dumper-discards": attempt.dumper_discards,
        "duration-ns": attempt.duration_ns,
        "backoff-ns": attempt.backoff_ns,
    }


def _decode_attempt(data: Dict) -> AttemptRecord:
    return AttemptRecord(
        attempt=data["attempt"],
        integrity=_decode_integrity(data["integrity"]),
        trace_packets=data["trace-packets"],
        dumper_discards=data["dumper-discards"],
        duration_ns=data["duration-ns"],
        backoff_ns=data["backoff-ns"],
    )


# ---------------------------------------------------------------------------
# TestResult
# ---------------------------------------------------------------------------

def encode_result(result: TestResult) -> Dict:
    """``TestResult`` → JSON-serialisable dict (see :func:`decode_result`)."""
    data = {
        "config": result.config.to_dict(),
        "metadata": [_encode_metadata(m) for m in result.metadata],
        "trace": _encode_trace(result.trace),
        "integrity": _encode_integrity(result.integrity),
        "requester-counters": _encode_host_counters(result.requester_counters),
        "responder-counters": _encode_host_counters(result.responder_counters),
        "traffic-log": _encode_traffic_log(result.traffic_log),
        "switch-counters": result.switch_counters,
        "duration-ns": result.duration_ns,
        "dumper-discards": result.dumper_discards,
        "attempts": [_encode_attempt(a) for a in result.attempts],
        "dumper-core-stats": result.dumper_core_stats,
    }
    # Coverage artefacts appear only when recorded, so a coverage-off
    # encoding stays byte-identical to the pre-coverage format.
    if result.coverage is not None:
        data["coverage"] = result.coverage
    if result.flight_record is not None:
        data["flight-record"] = result.flight_record
    return data


def decode_result(data: Dict) -> TestResult:
    """Inverse of :func:`encode_result`: ``decode(encode(r)) == r``."""
    return TestResult(
        config=TestConfig.from_dict(data["config"]),
        metadata=[_decode_metadata(m) for m in data["metadata"]],
        trace=_decode_trace(data["trace"]),
        integrity=_decode_integrity(data["integrity"]),
        requester_counters=_decode_host_counters(data["requester-counters"]),
        responder_counters=_decode_host_counters(data["responder-counters"]),
        traffic_log=_decode_traffic_log(data["traffic-log"]),
        switch_counters=data["switch-counters"],
        duration_ns=data["duration-ns"],
        dumper_discards=data["dumper-discards"],
        attempts=[_decode_attempt(a) for a in data["attempts"]],
        dumper_core_stats=data["dumper-core-stats"],
        coverage=data.get("coverage"),
        flight_record=data.get("flight-record"),
    )


# ---------------------------------------------------------------------------
# Fuzzing artefacts
# ---------------------------------------------------------------------------

def encode_score(score) -> Dict:
    data = {"total": score.total, "valid": score.valid,
            "components": dict(score.components),
            "anomalies": list(score.anomalies)}
    if getattr(score, "coverage", None) is not None:
        data["coverage"] = score.coverage
    # Campaign-relative novelty appears only when assigned (journaled
    # finding scores, never store candidate entries — those are put
    # before selection runs), so cached scores stay campaign-neutral
    # and pre-novelty encodings are byte-unchanged.
    if getattr(score, "novelty", 0.0):
        data["novelty"] = score.novelty
    return data


def decode_score(data: Dict):
    from ..core.fuzz.score import Score

    return Score(total=data["total"], valid=data["valid"],
                 components=dict(data["components"]),
                 anomalies=list(data["anomalies"]),
                 coverage=data.get("coverage"),
                 novelty=data.get("novelty", 0.0))


def encode_fuzz_report(report) -> Dict:
    data = {
        "iterations-run": report.iterations_run,
        "invalid-runs": report.invalid_runs,
        "pool-scores": list(report.pool_scores),
        "findings": [],
    }
    for f in report.findings:
        finding = {"iteration": f.iteration, "config": f.config.to_dict(),
                   "score": encode_score(f.score)}
        if getattr(f, "count", 1) != 1:
            finding["count"] = f.count
        data["findings"].append(finding)
    if getattr(report, "coverage_growth", None):
        data["coverage-growth"] = list(report.coverage_growth)
    if getattr(report, "coverage", None) is not None:
        data["coverage"] = report.coverage
    # Guided-mode corpus accounting; omitted at zero so blind-GA
    # reports keep their historical byte shape.
    if getattr(report, "rediscoveries", 0):
        data["rediscoveries"] = report.rediscoveries
    if getattr(report, "pool_evictions", 0):
        data["pool-evictions"] = report.pool_evictions
    return data


def decode_fuzz_report(data: Dict):
    from ..core.fuzz.fuzzer import FuzzFinding, FuzzReport

    return FuzzReport(
        iterations_run=data["iterations-run"],
        invalid_runs=data["invalid-runs"],
        pool_scores=list(data["pool-scores"]),
        findings=[
            FuzzFinding(iteration=f["iteration"],
                        config=TestConfig.from_dict(f["config"]),
                        score=decode_score(f["score"]),
                        count=f.get("count", 1))
            for f in data["findings"]
        ],
        coverage_growth=list(data.get("coverage-growth", [])),
        coverage=data.get("coverage"),
        rediscoveries=data.get("rediscoveries", 0),
        pool_evictions=data.get("pool-evictions", 0),
    )


# ---------------------------------------------------------------------------
# Suite artefacts
# ---------------------------------------------------------------------------

def encode_check_result(check) -> Dict:
    data = {"name": check.name, "passed": check.passed,
            "detail": check.detail,
            "outcome": check.outcome.value if check.outcome else None}
    if getattr(check, "coverage", None) is not None:
        data["coverage"] = check.coverage
    if getattr(check, "flight_record", None) is not None:
        data["flight-record"] = check.flight_record
    return data


def decode_check_result(data: Dict):
    from ..core.suite import CheckResult, Outcome

    outcome = data["outcome"]
    return CheckResult(name=data["name"], passed=data["passed"],
                       detail=data["detail"],
                       outcome=Outcome(outcome) if outcome else None,
                       coverage=data.get("coverage"),
                       flight_record=data.get("flight-record"))


def encode_analyzer_result(result) -> Dict:
    """Flat projection of an :class:`AnalyzerResult` (drops ``data``)."""
    return result.to_dict()


def decode_analyzer_result(data: Dict):
    from ..core.analyzers.base import AnalyzerResult

    return AnalyzerResult.from_dict(data)


# ---------------------------------------------------------------------------
# Helpers shared by campaign front-ends
# ---------------------------------------------------------------------------

def save_result_file(result: TestResult, path: str) -> str:
    """Write one result as standalone JSON (the ``repro.api`` format).

    The file carries the versioned document envelope
    (:func:`wrap_document`).
    """
    import json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            wrap_document("test-result", encode_result(result)),
            sort_keys=True, indent=1))
    return path


def load_result_file(path: str) -> TestResult:
    """Load a result written by :func:`save_result_file`."""
    import json

    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    _version, body = unwrap_document(data)
    return decode_result(body)
