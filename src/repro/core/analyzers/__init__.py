"""Built-in analyzers of the Lumina test suite (§4).

Every analyzer implements the **analyzer protocol** (:mod:`.base`,
:mod:`.registry`): ``name`` + ``analyze(trace, ctx) -> AnalyzerResult``
with a uniform trichotomous outcome, flat violation list and evidence
window, and its rich report (``FsmReport``, ``CnpReport``, ...) on
``AnalyzerResult.data``. Look analyzers up with :func:`get_analyzer` or
walk them with :func:`iter_analyzers`. The helpers exported beside the
protocol (:func:`min_cnp_interval_ns`, :func:`expected_counters`,
:func:`mct_stats`, ...) measure single micro-behaviors directly.
"""

from .base import (
    Analyzer,
    AnalyzerContext,
    AnalyzerResult,
    Outcome,
    trace_window,
)
from .cnp import (
    CnpReport,
    infer_rate_limit_scope,
    min_cnp_interval_ns,
)
from .counter_check import (
    CounterMismatch,
    CounterReport,
    expected_counters,
)
from .gbn_fsm import FsmReport, FsmViolation, ReceiverState
from .goodput import MctStats, mct_stats, per_qp_goodput_gbps, split_mct
from .latency import (
    LatencySummary,
    ack_rtt_samples,
    read_service_samples,
    stream_rate_bps,
    summarize,
)
from .registry import (
    analyzer_names,
    get_analyzer,
    iter_analyzers,
    register,
)
from .retrans_perf import RetransmissionEvent

__all__ = [
    "Analyzer",
    "AnalyzerContext",
    "AnalyzerResult",
    "Outcome",
    "trace_window",
    "register",
    "get_analyzer",
    "iter_analyzers",
    "analyzer_names",
    "CnpReport",
    "infer_rate_limit_scope",
    "min_cnp_interval_ns",
    "CounterMismatch",
    "CounterReport",
    "expected_counters",
    "FsmReport",
    "FsmViolation",
    "ReceiverState",
    "LatencySummary",
    "ack_rtt_samples",
    "read_service_samples",
    "stream_rate_bps",
    "summarize",
    "MctStats",
    "mct_stats",
    "per_qp_goodput_gbps",
    "split_mct",
    "RetransmissionEvent",
]
