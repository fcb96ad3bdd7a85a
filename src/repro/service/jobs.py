"""Job execution: the one path every campaign front-end shares.

:func:`execute_jobspec` turns a :class:`~repro.service.jobspec.JobSpec`
into a finished :class:`JobOutcome` — report text, exit code and
encoded result document — with semantics identical
to the historical one-shot CLI commands. ``python -m repro suite``,
``repro.api.run_suite`` and a daemon-dispatched suite job all call this
function, which is what makes service results byte-identical to local
ones.

:func:`job_worker_main` is what every job executor runs — in the
dispatcher thread, or inside an isolated job process started from the
preloaded process server (arguments picklable by reference, like
:mod:`repro.exec.tasks`): it opens the shared campaign store, observes
the job when the spec needs it, executes, and atomically persists
``result.json`` into the job directory.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Optional, Union

from .. import observe
from .jobspec import JobSpec, decode_jobspec

__all__ = ["JobOutcome", "execute_jobspec", "result_document",
           "write_result_document", "read_result_document",
           "job_worker_main", "RESULT_FILE", "OBSERVE_DIR"]

#: The result document's file name inside a job directory.
RESULT_FILE = "result.json"
#: The observation directory's name inside a job directory.
OBSERVE_DIR = "observe"


class JobOutcome:
    """Everything one executed job produced.

    ``report`` is the deterministic text the one-shot CLI would have
    printed / written with ``--output``; ``value`` the rich in-process
    object (TestResult / Scorecard / FuzzReport / SweepExecution) for
    api-facade callers; ``data`` the JSON-encoded artefacts that go
    into the result document; ``notes`` stdout-only banner lines (never
    part of the document); ``stats`` small JSON-able execution counts.
    Flight-recorder timelines of anomalous runs and checks are queued
    on the live observation session, which dumps them on export.

    ``report`` and ``data`` may be given as zero-argument callables:
    they are then computed on first access, so an api-facade caller
    that only wants ``value`` never renders or encodes.
    """

    def __init__(self, kind: str, report: Union[str, Callable[[], str]],
                 exit_code: int, value: Any = None,
                 data: Union[Dict, Callable[[], Dict], None] = None,
                 notes: Optional[List[str]] = None,
                 stats: Optional[Dict] = None):
        self.kind = kind
        self.exit_code = exit_code
        self.value = value
        self.notes = notes if notes is not None else []
        self.stats = stats if stats is not None else {}
        self._report = report
        self._data = data if data is not None else {}

    @property
    def report(self) -> str:
        if callable(self._report):
            self._report = self._report()
        return self._report

    @property
    def data(self) -> Dict:
        if callable(self._data):
            self._data = self._data()
        return self._data


def _scenario(name: Optional[str]):
    if not name:
        return None
    from ..faults import get_scenario

    return get_scenario(name)


def _execute_run(spec: JobSpec, store) -> JobOutcome:
    from ..core.config import TestConfig
    from ..core.orchestrator import run_test
    from ..core.report import render_report
    from ..store.serialize import encode_result

    config = TestConfig.from_dict(spec.payload["config"])
    scenario = _scenario(spec.payload.get("faults"))
    if scenario is not None:
        config = scenario.apply(config)
    result = run_test(config, store=store)
    if result.flight_record:
        trigger = ("integrity-retry" if result.integrity.ok
                   else "integrity-fail")
        observe.current().dump_flight(f"run-seed{config.seed}", trigger,
                                      result.flight_record)
    return JobOutcome(kind="run", report=lambda: render_report(result),
                      exit_code=0 if result.ok else 1, value=result,
                      data=lambda: {"result": encode_result(result)})


def _execute_suite(spec: JobSpec, store) -> JobOutcome:
    from ..core.suite import run_conformance_suite
    from ..store.serialize import encode_check_result

    payload = spec.payload
    card = run_conformance_suite(payload["nic"], seed=payload.get("seed"),
                                 checks=payload.get("checks") or None,
                                 workers=spec.workers,
                                 faults=payload.get("faults") or None,
                                 store=store)
    for check in card.results:
        if check.flight_record:
            observe.current().dump_flight(
                check.name, check.outcome.value if check.outcome else "FAIL",
                check.flight_record)
    return JobOutcome(
        kind="suite", report=card.render,
        exit_code=0 if card.all_passed else 1, value=card,
        data=lambda: {"nic": card.nic,
                      "results": [encode_check_result(c)
                                  for c in card.results]})


def _execute_fuzz(spec: JobSpec, store,
                  campaign_dir: Optional[str]) -> JobOutcome:
    from ..core.fuzz import LuminaFuzzer
    from ..core.report import render_fuzz_summary
    from ..store.serialize import encode_fuzz_report

    payload = spec.payload
    scenario = _scenario(payload.get("faults"))
    seed = payload.get("seed")
    notes: List[str] = []
    if payload.get("target"):
        from ..core.fuzz import make_fuzzer

        fuzzer, target = make_fuzzer(payload["target"], payload["nic"],
                                     seed=1 if seed is None else seed)
        if scenario is not None:
            # Fault scenarios touch only the measurement-plane fields,
            # never the traffic shape the preset pool was seeded from.
            fuzzer.base_config = scenario.apply(fuzzer.base_config)
        notes.append(f"target: {target.name} — {target.description} "
                     f"(nic={payload['nic']})")
    else:
        from ..core.config import TestConfig

        config = TestConfig.from_dict(payload["config"])
        if scenario is not None:
            config = scenario.apply(config)
        fuzzer = LuminaFuzzer(config,
                              seed=config.seed if seed is None else seed,
                              anomaly_threshold=payload["threshold"])
    report = fuzzer.run(iterations=payload["iterations"],
                        stop_on_first=payload["stop-on-first"],
                        workers=spec.workers, batch_size=payload["batch"],
                        store=store, campaign_dir=campaign_dir,
                        coverage_fitness=payload.get("coverage-fitness"))
    return JobOutcome(kind="fuzz", report=render_fuzz_summary(report),
                      exit_code=0 if report.found_anomaly else 2,
                      value=report,
                      data={"fuzz-report": encode_fuzz_report(report)},
                      notes=notes)


def _execute_sweep(spec: JobSpec, store) -> JobOutcome:
    from ..core.sweep import render_sweep_report, run_sweep

    execution = run_sweep(spec.payload, workers=spec.workers, store=store)
    report, failures = render_sweep_report(execution.cells,
                                           execution.outcomes)
    summaries = []
    for outcome in execution.outcomes:
        entry: Dict[str, Any] = {"ok": outcome.ok, "cached": outcome.cached}
        if outcome.ok:
            entry["summary"] = outcome.value
        else:
            entry["error"] = outcome.error
        summaries.append(entry)
    return JobOutcome(
        kind="sweep", report=report, exit_code=1 if failures else 0,
        value=execution,
        data={"cells": [[nic, seed] for nic, seed in execution.cells],
              "summaries": summaries},
        stats={"executed": execution.executed,
               "total": len(execution.cells),
               "crashes": execution.crashes})


def execute_jobspec(spec: JobSpec, store=None,
                    campaign_dir: Optional[str] = None) -> JobOutcome:
    """Execute one spec locally and return its full outcome.

    ``store`` replays cached units of work (runs, check verdicts, sweep
    cells, fuzz candidate scores) exactly as the one-shot CLI's
    ``--campaign`` flag does. ``campaign_dir`` (fuzz only) additionally
    journals per-generation state there, so a killed fuzz job resumes
    byte-identically — the daemon passes each fuzz job's own directory.
    """
    if spec.kind == "run":
        return _execute_run(spec, store)
    if spec.kind == "suite":
        return _execute_suite(spec, store)
    if spec.kind == "fuzz":
        return _execute_fuzz(spec, store, campaign_dir)
    if spec.kind == "sweep":
        return _execute_sweep(spec, store)
    raise ValueError(f"unknown job kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Result documents
# ---------------------------------------------------------------------------

def result_document(spec: JobSpec, outcome: JobOutcome) -> Dict:
    """The versioned, deterministic result document for one outcome.

    Contains no wall-clock content, so a replayed job serves the exact
    bytes the original execution produced.
    """
    from ..store.serialize import wrap_document

    return wrap_document("job-result", {
        "job-kind": spec.kind,
        "fingerprint": spec.fingerprint,
        "exit-code": outcome.exit_code,
        "report": outcome.report,
        "stats": outcome.stats,
        "data": outcome.data,
    })


def write_result_document(doc: Dict, job_dir: str) -> str:
    """Atomically persist a result document; returns its path."""
    from ..store.index import atomic_write_json

    os.makedirs(job_dir, exist_ok=True)
    path = os.path.join(job_dir, RESULT_FILE)
    atomic_write_json(path, doc)
    return path


def read_result_document(job_dir: str) -> Optional[Dict]:
    """The job's result document, or None when not (yet) produced."""
    try:
        with open(os.path.join(job_dir, RESULT_FILE), "r",
                  encoding="utf-8") as handle:
            return json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        return None


# ---------------------------------------------------------------------------
# The job process body
# ---------------------------------------------------------------------------

def job_worker_main(spec_doc: Dict, job_dir: str,
                    store_root: Optional[str],
                    campaign_dir: Optional[str] = None) -> Dict:
    """Run one job to completion inside the current process.

    The dispatcher's process executor runs this inside a fresh job
    process; the inline executor calls it directly. Either way the
    result document lands atomically in ``job_dir/result.json`` (and is
    returned, for in-process callers). A spec that asks to be observed
    runs under an observation session that exports into
    ``job_dir/observe/``; a fuzz spec with ``coverage-fitness`` and no
    ``observe`` gets the in-memory, coverage-only session the local
    CLI would open (:func:`repro.observe.session_for`).

    ``campaign_dir`` hosts a fuzz job's generation journal. The
    dispatcher keys it by spec *fingerprint* (not job id), so a fuzz
    job that crashed or timed out resumes mid-campaign when the same
    spec is resubmitted as a brand-new job.
    """
    spec = decode_jobspec(spec_doc)
    if campaign_dir is None:
        campaign_dir = job_dir
    store = None
    if store_root:
        from ..store import CampaignStore

        store = CampaignStore(store_root)
    out_dir = (os.path.join(job_dir, OBSERVE_DIR)
               if spec.payload.get("observe") else None)
    with observe.session_for(out_dir, spec.payload.get("coverage-fitness")):
        outcome = execute_jobspec(
            spec, store=store,
            campaign_dir=campaign_dir if spec.kind == "fuzz" else None)
    doc = result_document(spec, outcome)
    write_result_document(doc, job_dir)
    return doc
