"""CampaignDaemon: queue + dispatcher + retention + HTTP under one roof.

State-directory layout (everything the daemon knows survives a kill)::

    <state_dir>/
      queue.jsonl        # the journaled job queue
      store/             # shared campaign store (results + unit caches)
      jobs/<job-id>/     # per-job: spec.json, result.json and the
                         # observe/ export of an observed job
      campaigns/<fp>/    # fuzz generation journals, keyed by spec
                         # fingerprint (survive resubmission)

Start/stop are idempotent; ``run_forever`` blocks for the CLI's
``serve`` command. Tests drive the daemon in-process (often with an
:class:`~repro.service.dispatcher.InlineJobExecutor`) on an ephemeral
loopback port.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional

from ..coverage.report import COVERAGE_FILE
from .dispatcher import Dispatcher
from .jobs import OBSERVE_DIR
from .queue import Job, JobQueue, JobState
from .retention import RetentionDaemon

__all__ = ["CampaignDaemon"]


class CampaignDaemon:
    """The long-running campaign service (ROADMAP item 1)."""

    def __init__(self, state_dir: str, host: str = "127.0.0.1",
                 port: int = 0, executor=None,
                 retention_interval_s: float = 60.0,
                 retain_entries: Optional[int] = None):
        self.state_dir = state_dir
        self.host = host
        self._requested_port = port
        os.makedirs(state_dir, exist_ok=True)
        self.store_root = os.path.join(state_dir, "store")
        self.jobs_root = os.path.join(state_dir, "jobs")
        os.makedirs(self.jobs_root, exist_ok=True)
        self.queue = JobQueue(state_dir)
        self.dispatcher = Dispatcher(
            self.queue, self.jobs_root, store_root=self.store_root,
            executor=executor,
            campaigns_root=os.path.join(state_dir, "campaigns"))
        self.retention = RetentionDaemon(
            store_factory=self._open_store,
            busy=lambda: self.dispatcher.busy,
            interval_s=retention_interval_s,
            retain_entries=retain_entries)
        self._server = None
        self._server_thread: Optional[threading.Thread] = None
        self._started = False

    def _open_store(self):
        from ..store import CampaignStore

        return CampaignStore(self.store_root)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        from .http import make_server

        self._server = make_server(self, self.host, self._requested_port)
        self._server_thread = threading.Thread(
            target=self._server.serve_forever, name="repro-service-http",
            daemon=True)
        self._server_thread.start()
        self.dispatcher.start()
        self.retention.start()
        self._started = True

    def stop(self) -> None:
        if not self._started:
            return
        self.retention.stop()
        self.dispatcher.stop()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._server_thread is not None:
            self._server_thread.join(5.0)
            self._server_thread = None
        self._started = False

    def run_forever(self) -> None:
        """Start and block until interrupted (the ``serve`` command)."""
        self.start()
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "CampaignDaemon":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- introspection --------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def job_dir(self, job_id: str) -> str:
        return self.dispatcher.job_dir(job_id)

    def health_body(self) -> Dict:
        store = self._open_store()
        counts = self.queue.counts()
        return {
            "state-dir": self.state_dir,
            "jobs": counts,
            "queue-depth": counts[JobState.QUEUED.value],
            "dispatcher": dict(self.dispatcher.counters),
            "retention": dict(self.retention.counters),
            "store-entries": len(store),
        }

    def progress_body(self, job: Job) -> Dict:
        """Incremental progress for one job, fed from on-disk state.

        Fuzz jobs report their campaign journal's latest generation,
        written incrementally by the job process, so this works while
        the job is still running; observed jobs report the exported
        coverage point count once they finish.
        """
        body: Dict = {"id": job.id, "state": job.state.value,
                      "job-kind": job.spec.kind}
        position = self.queue.position(job.id)
        if position is not None:
            body["queue-position"] = position
        job_dir = self.job_dir(job.id)
        if job.spec.kind == "fuzz":
            from ..store.journal import CampaignJournal

            journal = CampaignJournal(os.path.join(
                self.dispatcher.campaigns_root, job.fingerprint[:32],
                "journal.jsonl"))
            last = journal.last("generation")
            if last is not None:
                body["generation"] = last.get("generation")
                body["completed-iterations"] = last.get("completed")
        coverage_path = os.path.join(job_dir, OBSERVE_DIR, COVERAGE_FILE)
        if os.path.exists(coverage_path):
            import json

            try:
                with open(coverage_path, "r", encoding="utf-8") as handle:
                    doc = json.load(handle)
                body["coverage-points"] = len(doc.get("points", []))
            except (OSError, json.JSONDecodeError):
                pass  # a torn snapshot just means "no number yet"
        return body
