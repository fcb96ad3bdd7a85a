"""Versioned job specifications — the campaign service's unit of work.

A :class:`JobSpec` is a plain JSON document describing one campaign
command (``run``, ``suite``, ``fuzz`` or ``sweep``) with exactly the
inputs the one-shot CLI would have taken, so a job submitted to the
daemon and the same command run locally follow one execution path and
produce byte-identical result documents.

Specs are *content-addressed* through the store canonicalizer: the
fingerprint covers ``(kind, payload)`` — everything that determines the
result — and deliberately excludes execution knobs (``priority``,
``workers``, ``timeout_s``), which change how fast a job runs, never
what it produces. Resubmitting a finished spec therefore replays its
result document straight from the service store without spawning a
worker process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..core.config import TestConfig
from ..store.fingerprint import fingerprint
from ..store.serialize import unwrap_document, wrap_document

__all__ = ["JobSpec", "encode_jobspec", "decode_jobspec",
           "JOB_KINDS"]

#: The campaign commands a daemon accepts.
JOB_KINDS = ("run", "suite", "fuzz", "sweep")

#: Allowed payload keys per kind — submissions with unknown keys are
#: rejected up front (a typoed knob must not silently fingerprint as a
#: different job).
_PAYLOAD_KEYS = {
    "run": {"config", "faults", "observe"},
    "suite": {"nic", "seed", "checks", "faults", "observe"},
    "fuzz": {"config", "target", "nic", "seed", "iterations", "batch",
             "threshold", "stop-on-first", "coverage-fitness", "faults",
             "observe"},
    "sweep": {"config", "nics", "seeds", "base-seed", "verb",
              "connections", "messages", "size", "faults", "timeout",
              "observe"},
}


def _observed(payload: Dict, observe: bool) -> Dict:
    """Fold an observation request into a payload.

    The key appears only when set, so a plain spec fingerprints
    identically to one built before observation existed — and an
    observed job (whose inner runs cache at coverage-flagged store
    addresses) is a *different* document from a plain one, just as
    ``--observe`` changes a local campaign's store addresses.
    """
    if observe:
        payload["observe"] = True
    return payload


def _config_dict(config: Union[TestConfig, Dict, None]) -> Optional[Dict]:
    if config is None:
        return None
    if isinstance(config, TestConfig):
        return config.to_dict()
    return dict(config)


@dataclass(frozen=True)
class JobSpec:
    """One queued unit of campaign work.

    ``payload`` is kind-specific plain JSON (see the ``for_*``
    constructors); ``priority`` orders the queue (higher first, FIFO
    within a priority); ``workers`` sizes the job's internal
    :class:`~repro.exec.ParallelRunner` pool; ``timeout_s`` bounds the
    job's wall-clock execution in the daemon (None: unbounded).
    """

    kind: str
    payload: Dict = field(default_factory=dict)
    priority: int = 0
    workers: int = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}; "
                             f"known: {list(JOB_KINDS)}")
        unknown = set(self.payload) - _PAYLOAD_KEYS[self.kind]
        if unknown:
            raise ValueError(f"unknown {self.kind} payload keys: "
                             f"{sorted(unknown)}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    # -- content address ------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """SHA-256 content address over ``(kind, payload)`` only.

        Execution knobs are excluded by design: results are
        byte-identical for any worker count (the repo-wide determinism
        contract), so two specs differing only in ``workers`` /
        ``priority`` / ``timeout_s`` share one cached result.
        """
        return fingerprint("job", {"job-kind": self.kind,
                                   "payload": self.payload})

    # -- constructors (one per campaign command) ------------------------
    @classmethod
    def for_run(cls, config: Union[TestConfig, Dict],
                faults: Optional[str] = None, observe: bool = False,
                **opts) -> "JobSpec":
        """One end-to-end test run of ``config`` (dict or TestConfig)."""
        return cls("run", _observed(
            {"config": _config_dict(config), "faults": faults},
            observe), **opts)

    @classmethod
    def for_suite(cls, nic: str, seed: Optional[int] = None,
                  checks: Optional[List[str]] = None,
                  faults: Optional[str] = None, observe: bool = False,
                  **opts) -> "JobSpec":
        """The conformance battery (or a subset) against one NIC model."""
        return cls("suite", _observed(
            {"nic": nic, "seed": seed,
             "checks": list(checks) if checks else None,
             "faults": faults}, observe), **opts)

    @classmethod
    def for_fuzz(cls, config: Union[TestConfig, Dict, None] = None,
                 target: Optional[str] = None, nic: str = "cx5",
                 seed: Optional[int] = None, iterations: int = 20,
                 batch: int = 4, threshold: float = 3.0,
                 stop_on_first: bool = False,
                 coverage_fitness: Optional[bool] = None,
                 faults: Optional[str] = None, observe: bool = False,
                 **opts) -> "JobSpec":
        """Algorithm-1 fuzzing around a config or a named target."""
        if config is None and target is None:
            raise ValueError("fuzz jobs need a config or a target")
        return cls("fuzz", _observed(
            {"config": _config_dict(config),
             "target": target, "nic": nic, "seed": seed,
             "iterations": iterations, "batch": batch,
             "threshold": threshold,
             "stop-on-first": bool(stop_on_first),
             "coverage-fitness": coverage_fitness,
             "faults": faults}, observe), **opts)

    @classmethod
    def for_sweep(cls, nics: List[str], seeds: int = 1, base_seed: int = 1,
                  config: Union[TestConfig, Dict, None] = None,
                  verb: str = "write", connections: int = 2,
                  messages: int = 4, size: int = 20480,
                  faults: Optional[str] = None,
                  timeout: Optional[float] = None, observe: bool = False,
                  **opts) -> "JobSpec":
        """One workload across a NIC × seed grid."""
        return cls("sweep", _observed(
            {"config": _config_dict(config),
             "nics": list(nics), "seeds": seeds,
             "base-seed": base_seed, "verb": verb,
             "connections": connections,
             "messages": messages, "size": size,
             "faults": faults, "timeout": timeout},
            observe), **opts)


def encode_jobspec(spec: JobSpec) -> Dict:
    """``JobSpec`` → versioned wire/disk document."""
    return wrap_document("job-spec", {
        "job-kind": spec.kind,
        "payload": spec.payload,
        "priority": spec.priority,
        "workers": spec.workers,
        "timeout-s": spec.timeout_s,
    })


def decode_jobspec(data: Dict) -> JobSpec:
    """Inverse of :func:`encode_jobspec`; rejects unversioned bodies
    and wrongly typed fields, always with :class:`ValueError`."""
    _version, body = unwrap_document(data, kind="job-spec")
    try:
        kind = body["job-kind"]
    except KeyError:
        raise ValueError("job-spec document has no job-kind") from None
    payload, timeout_s = body.get("payload") or {}, body.get("timeout-s")
    if not isinstance(payload, dict) or not (
            timeout_s is None or type(timeout_s) in (int, float)):
        raise ValueError("job-spec payload must be an object and "
                         "timeout-s a number")
    try:
        priority = int(body.get("priority", 0))
        workers = int(body.get("workers", 1))
    except (TypeError, ValueError, OverflowError):
        raise ValueError("job-spec priority and workers must be "
                         "integers") from None
    return JobSpec(kind=kind, payload=dict(payload), priority=priority,
                   workers=workers, timeout_s=timeout_s)
