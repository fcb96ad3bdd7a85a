"""The analyzer protocol: one uniform shape for every trace verdict.

Historically each analyzer grew its own report type and its own verdict
vocabulary (``compliant``, ``consistent``, ``spurious_cnps == 0``, …),
so every consumer — the conformance suite, the run report, the fuzz
scorer, the campaign store — re-interpreted each one ad hoc. The
protocol normalises the *verdict* while keeping the rich per-analyzer
report available:

* every analyzer has a ``name`` and one entry point,
  ``analyze(trace, ctx) -> AnalyzerResult``;
* every :class:`AnalyzerResult` states a trichotomous
  :class:`Outcome`, a flat list of human-readable ``violations``, and
  the ``evidence_window`` (simulated-time span) the verdict rests on;
* the analyzer's rich report object rides along as ``data`` for
  consumers that need the full detail (the run report's prose, the
  fuzz scorer's per-field accounting).

INCONCLUSIVE (§3.5 applied to analysis) always means the *capture*
failed the analyzer — a trace gap overlaps the evidence window — never
that the NIC passed or failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from ..results import TestResult
    from ..trace import PacketTrace

try:  # Protocol: typing on 3.8+, typing_extensions not a dependency
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - py3.7 fallback
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls

__all__ = ["Outcome", "AnalyzerResult", "AnalyzerContext", "Analyzer",
           "trace_window"]


class Outcome(str, Enum):
    """Trichotomous verdict (§3.5 applied to analysis).

    INCONCLUSIVE means the capture, not the NIC, failed: a trace gap
    overlaps the evidence the verdict would rest on, so neither PASS
    nor FAIL would be honest. It is rendered distinctly and never
    counts as a pass.
    """

    PASS = "PASS"
    FAIL = "FAIL"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class AnalyzerResult:
    """What every analyzer returns, whatever it inspected.

    ``data`` carries the analyzer's rich report (``FsmReport``,
    ``CnpReport``, event lists, …) for consumers that need more than
    the uniform verdict; it is deliberately excluded from
    :meth:`to_dict`, which is the flat, store-friendly projection.
    """

    name: str
    outcome: Outcome
    violations: List[str] = field(default_factory=list)
    #: Simulated-time span ``(start_ns, end_ns)`` the verdict rests on,
    #: or None when the analyzer saw no evidence at all.
    evidence_window: Optional[Tuple[int, int]] = None
    metrics: Dict[str, float] = field(default_factory=dict)
    detail: str = ""
    data: Any = None

    @property
    def ok(self) -> bool:
        return self.outcome is Outcome.PASS

    @property
    def is_inconclusive(self) -> bool:
        return self.outcome is Outcome.INCONCLUSIVE

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON projection (drops ``data``) for the store."""
        return {
            "name": self.name,
            "outcome": self.outcome.value,
            "violations": list(self.violations),
            "evidence-window": (list(self.evidence_window)
                                if self.evidence_window else None),
            "metrics": dict(self.metrics),
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalyzerResult":
        window = data.get("evidence-window")
        return cls(
            name=data["name"],
            outcome=Outcome(data["outcome"]),
            violations=list(data.get("violations", ())),
            evidence_window=tuple(window) if window else None,
            metrics=dict(data.get("metrics", {})),
            detail=data.get("detail", ""),
        )

    def __str__(self) -> str:
        return f"[{self.outcome.value}] {self.name:<16s} {self.detail}"


@dataclass
class AnalyzerContext:
    """Everything beyond the trace an analyzer may consult.

    Trace-only analyzers ignore it entirely; counter- and
    app-metric-based analyzers need ``result`` and report INCONCLUSIVE
    without one.
    """

    result: Optional["TestResult"] = None
    mtu: int = 1024

    @classmethod
    def for_result(cls, result: "TestResult") -> "AnalyzerContext":
        return cls(result=result, mtu=result.config.traffic.mtu)


@runtime_checkable
class Analyzer(Protocol):
    """The protocol every registered analyzer implements."""

    name: str

    def analyze(self, trace: "PacketTrace",
                ctx: AnalyzerContext) -> AnalyzerResult:
        """Inspect one trace (plus context) and return a verdict."""
        ...  # pragma: no cover - protocol stub


def trace_window(trace: "PacketTrace") -> Optional[Tuple[int, int]]:
    """The full simulated-time span a trace covers, or None if empty."""
    if not trace.packets:
        return None
    return (trace.packets[0].timestamp_ns, trace.packets[-1].timestamp_ns)
