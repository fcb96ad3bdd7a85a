"""The dispatch loop: claims queued jobs and sees them to a terminal state.

Modeled on FlockLab2's ``flocklab_dispatcher``: one background thread
claims the highest-priority queued job, gives it a private job
directory, and executes it through a pluggable *executor*:

* :class:`ProcessJobExecutor` (production) starts an isolated job
  process on :func:`~repro.service.jobs.job_worker_main` and supervises
  it by blocking on the process's sentinel: the job's exit wakes it at
  once, and a set cancel event or an elapsed per-job timeout
  terminates the process. Job processes come from
  :func:`repro.exec.procs.context`, the same factory as
  :class:`~repro.exec.ParallelRunner`'s pool workers: forks of a
  ``forkserver`` that has already imported the job modules (``spawn``
  where the platform has no ``forkserver``). The
  server starts lazily, so the first cold job after a daemon starts
  pays its start-up, and it freezes the environment at that moment —
  a variable set in the daemon later does not reach job processes.
  Fuzz jobs journal per-generation state into their job directory, so
  a terminated fuzz job resubmitted later resumes mid-campaign.
* :class:`InlineJobExecutor` runs the job in the dispatcher thread —
  no isolation, but instant; used by tests and tiny deployments.

Before starting anything the dispatcher probes the service store for
the spec's fingerprint: a finished spec resubmitted (even across daemon
restarts) replays its result document byte-for-byte with **zero**
worker processes. The store handle is opened fresh for every probe and
every put — the job process writes the same store, and a long-lived
parent handle would hold a stale index snapshot.
"""

from __future__ import annotations

import math
import os
import threading
import time
from typing import Dict, Optional

from .jobs import (job_worker_main, read_result_document,
                   write_result_document)
from .jobspec import encode_jobspec
from .queue import Job, JobQueue, JobState

__all__ = ["Dispatcher", "InlineJobExecutor", "ProcessJobExecutor",
           "JobCancelled", "JobFailed", "JobTimeout"]

#: How often a running job's cancel event is checked, in seconds.
CANCEL_CHECK_S = 0.1


class JobFailed(Exception):
    """The job process died or produced no result document."""


class JobCancelled(Exception):
    """The job was cancelled while running."""


class JobTimeout(Exception):
    """The job exceeded its spec's ``timeout_s``."""


class InlineJobExecutor:
    """Run jobs in the dispatcher thread (tests / tiny deployments)."""

    def execute(self, job: Job, job_dir: str, store_root: Optional[str],
                campaign_dir: Optional[str] = None) -> Dict:
        return job_worker_main(encode_jobspec(job.spec), job_dir,
                               store_root, campaign_dir)


def _job_process_main(spec_doc: Dict, job_dir: str,
                      store_root: Optional[str],
                      campaign_dir: Optional[str]) -> None:
    """Entry point of a job process.

    A job may fan out over its own pool, so the process clears the
    daemonic flag it was started with (daemonic processes may not start
    children) and leads its own process group. A SIGTERM — the
    executor's cancel or timeout, or the parent's exit-time cleanup of
    daemonic children — kills the whole group, so no pool worker or
    nested process server outlives its job.
    """
    import multiprocessing
    import signal

    multiprocessing.current_process().daemon = False
    if hasattr(os, "setpgrp"):
        os.setpgrp()
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: os.killpg(0, signal.SIGKILL))
    job_worker_main(spec_doc, job_dir, store_root, campaign_dir)


class ProcessJobExecutor:
    """Run each job in a fresh, supervised job process.

    The executor blocks on the child's sentinel, so the job's exit
    wakes it at once and a per-job ``timeout_s`` is exact; the cancel
    event is checked every :data:`CANCEL_CHECK_S`. The child runs the
    module-level :func:`_job_process_main`, so everything it needs
    travels as picklable JSON + paths.
    """

    def execute(self, job: Job, job_dir: str, store_root: Optional[str],
                campaign_dir: Optional[str] = None) -> Dict:
        # Imported here, not at module level: the process machinery
        # stays out of daemon start-up and out of importers that never
        # run a job process.
        from multiprocessing.connection import wait

        from ..exec import procs

        process = procs.context().Process(
            target=_job_process_main,
            args=(encode_jobspec(job.spec), job_dir, store_root,
                  campaign_dir),
            daemon=True)
        deadline = time.monotonic() + (job.spec.timeout_s or math.inf)
        process.start()
        try:
            while not wait([process.sentinel], max(0.0, min(
                    CANCEL_CHECK_S, deadline - time.monotonic()))):
                if job.cancel_event.is_set():
                    raise JobCancelled(f"{job.id} cancelled while running")
                if time.monotonic() >= deadline:
                    raise JobTimeout(
                        f"{job.id} exceeded timeout of "
                        f"{job.spec.timeout_s:g}s")
        finally:
            if process.is_alive():
                process.terminate()
            process.join(5.0)
        if process.exitcode != 0:
            raise JobFailed(f"{job.id} job process exited with code "
                            f"{process.exitcode}")
        doc = read_result_document(job_dir)
        if doc is None:
            raise JobFailed(f"{job.id} job process wrote no result "
                            f"document")
        return doc


class Dispatcher:
    """Background thread turning queued jobs into result documents.

    The thread blocks in :meth:`JobQueue.claim_next` until a job is
    queued or :meth:`stop` wakes it; :attr:`busy` and :meth:`wait_idle`
    read the queue itself under its lock, so there is no second flag to
    fall out of step with a claimed job.
    """

    def __init__(self, queue: JobQueue, jobs_root: str,
                 store_root: Optional[str] = None, executor=None,
                 campaigns_root: Optional[str] = None):
        self.queue = queue
        self.jobs_root = jobs_root
        self.store_root = store_root
        #: Fuzz generation journals live here, keyed by spec
        #: fingerprint, so an interrupted campaign resumes even though
        #: its resubmission is a different job id.
        self.campaigns_root = campaigns_root if campaigns_root is not None \
            else os.path.join(os.path.dirname(jobs_root.rstrip(os.sep))
                              or ".", "campaigns")
        self.executor = executor if executor is not None \
            else ProcessJobExecutor()
        #: Small operational counters, surfaced by /api/v1/health.
        self.counters: Dict[str, int] = {
            "dispatched": 0, "replayed": 0, "done": 0,
            "failed": 0, "cancelled": 0, "timeouts": 0,
        }
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-dispatcher",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Stop claiming; the queue stays open for submissions."""
        self._stop.set()
        self.queue.wake()
        if self._thread is not None:
            self._thread.join(timeout_s)
            self._thread = None

    @property
    def busy(self) -> bool:
        """True while a job is RUNNING (retention passes wait)."""
        return self.queue.counts()[JobState.RUNNING.value] > 0

    def wait_idle(self, timeout_s: float = 30.0) -> bool:
        """Block until the queue is drained and no job is running."""
        return self.queue.wait_idle(timeout_s)

    # -- the loop -------------------------------------------------------
    def _loop(self) -> None:
        while True:
            job = self.queue.claim_next(until=self._stop)
            if job is None:
                return
            if self._stop.is_set():
                # Shutting down: hand the claim back for the next boot.
                self.queue.requeue(job.id)
                return
            self._run_job(job)

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.jobs_root, job_id)

    def _store(self):
        if self.store_root is None:
            return None
        from ..store import CampaignStore

        return CampaignStore(self.store_root)

    def _run_job(self, job: Job) -> None:
        self.counters["dispatched"] += 1
        job_dir = self.job_dir(job.id)
        os.makedirs(job_dir, exist_ok=True)
        self._write_spec(job, job_dir)

        store = self._store()
        if store is not None:
            cached = store.get(job.fingerprint)
            if cached is not None:
                # Store replay: the exact document a previous execution
                # produced, with zero worker processes spawned.
                write_result_document(cached, job_dir)
                self.counters["replayed"] += 1
                self.counters["done"] += 1
                self.queue.finish(
                    job.id, JobState.DONE,
                    exit_code=cached.get("body", {}).get("exit-code"),
                    replayed=True)
                return

        campaign_dir = None
        if job.spec.kind == "fuzz":
            campaign_dir = os.path.join(self.campaigns_root,
                                        job.fingerprint[:32])
        try:
            doc = self.executor.execute(job, job_dir, self.store_root,
                                        campaign_dir)
        except JobCancelled:
            self.counters["cancelled"] += 1
            self.queue.finish(job.id, JobState.CANCELLED,
                              error="cancelled while running")
            return
        except JobTimeout as exc:
            self.counters["timeouts"] += 1
            self.counters["failed"] += 1
            self.queue.finish(job.id, JobState.FAILED, error=str(exc))
            return
        except Exception as exc:  # noqa: BLE001 — a job must never
            # take the dispatch loop down with it.
            self.counters["failed"] += 1
            self.queue.finish(job.id, JobState.FAILED,
                              error=f"{type(exc).__name__}: {exc}")
            return

        store = self._store()  # reopened: the job process updated it
        if store is not None:
            store.put(job.fingerprint, "job-result", doc)
        self.counters["done"] += 1
        self.queue.finish(job.id, JobState.DONE,
                          exit_code=doc.get("body", {}).get("exit-code"))

    def _write_spec(self, job: Job, job_dir: str) -> None:
        import json

        path = os.path.join(job_dir, "spec.json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(encode_jobspec(job.spec), handle, sort_keys=True,
                      indent=1)
        os.replace(tmp, path)
