"""Persistent priority job queue with a crash-resumable journal.

The daemon's source of truth for "what work exists and where it
stands". Submissions and every state transition append one JSONL
record to ``queue.jsonl`` (via the same torn-tail-tolerant
:class:`~repro.store.journal.CampaignJournal` the fuzzer uses), so a
killed daemon reloads the journal and finds its queue exactly as it
was — jobs that were QUEUED are still queued in the same order, and a
job that was RUNNING when the process died goes back to QUEUED for
re-dispatch (job execution is deterministic and store-cached, so
re-running loses nothing; fuzz jobs additionally resume mid-campaign
from their own generation journal).

Ordering is ``(-priority, seq)``: higher priority first, FIFO within a
priority band — deterministic for any submission interleaving.
"""

from __future__ import annotations

import enum
import heapq
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..store.journal import CampaignJournal
from .jobspec import JobSpec, decode_jobspec, encode_jobspec

__all__ = ["Job", "JobQueue", "JobState", "QUEUE_JOURNAL"]

#: The queue journal's file name inside a daemon state directory.
QUEUE_JOURNAL = "queue.jsonl"


class JobState(str, enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


@dataclass
class Job:
    """One queue entry: a spec plus its lifecycle bookkeeping."""

    id: str
    seq: int
    spec: JobSpec
    state: JobState = JobState.QUEUED
    #: Exit code of the finished job's command (0/1/2 semantics match
    #: the one-shot CLI); None until DONE.
    exit_code: Optional[int] = None
    error: Optional[str] = None
    #: True when the result was served from the store without running.
    replayed: bool = False
    #: Set to ask a running job's executor to stop (never journaled).
    cancel_event: threading.Event = field(default_factory=threading.Event,
                                          repr=False, compare=False)

    @property
    def priority(self) -> int:
        return self.spec.priority

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint

    def status_body(self) -> Dict:
        """The JSON status body (wrapped by the API layer)."""
        return {
            "id": self.id,
            "job-kind": self.spec.kind,
            "state": self.state.value,
            "priority": self.priority,
            "fingerprint": self.fingerprint,
            "exit-code": self.exit_code,
            "error": self.error,
            "replayed": self.replayed,
        }


class JobQueue:
    """Priority queue + job table, journaled to ``<root>/queue.jsonl``.

    Thread-safe: the HTTP handler threads submit/cancel/inspect while
    the dispatcher thread claims and finishes jobs. Every state change
    notifies one Condition, and every wait in the service blocks on it:
    the dispatcher's claim, :meth:`wait_idle`, and the HTTP long-poll
    in :meth:`wait_terminal`.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._journal = CampaignJournal(os.path.join(root, QUEUE_JOURNAL))
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._heap: List[tuple] = []  # (-priority, seq, id)
        self._next_seq = 0
        self._load()

    # -- persistence ----------------------------------------------------
    def _load(self) -> None:
        """Rebuild queue state from the journal (crash recovery)."""
        for record in self._journal.load():
            rtype = record.get("type")
            if rtype == "submit":
                try:
                    spec = decode_jobspec(record["spec"])
                except (KeyError, ValueError):
                    continue  # unreadable legacy record: skip it
                job = Job(id=record["id"], seq=int(record["seq"]),
                          spec=spec)
                self._jobs[job.id] = job
                self._next_seq = max(self._next_seq, job.seq + 1)
            elif rtype == "state":
                job = self._jobs.get(record.get("id", ""))
                if job is None:
                    continue
                job.state = JobState(record["state"])
                job.exit_code = record.get("exit-code")
                job.error = record.get("error")
                job.replayed = bool(record.get("replayed", False))
        # A job RUNNING at the crash goes back to QUEUED: execution is
        # deterministic and store-cached, so re-dispatching is safe.
        for job in self._jobs.values():
            if job.state is JobState.RUNNING:
                job.state = JobState.QUEUED
        for job in sorted(self._jobs.values(), key=lambda j: j.seq):
            if job.state is JobState.QUEUED:
                heapq.heappush(self._heap, (-job.priority, job.seq, job.id))

    def _journal_state(self, job: Job) -> None:
        record = {"type": "state", "id": job.id, "state": job.state.value}
        if job.exit_code is not None:
            record["exit-code"] = job.exit_code
        if job.error is not None:
            record["error"] = job.error
        if job.replayed:
            record["replayed"] = True
        self._journal.append(record)

    # -- submission / inspection ---------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Enqueue one spec; returns the journaled Job."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            job = Job(id=f"job-{seq:06d}", seq=seq, spec=spec)
            self._jobs[job.id] = job
            self._journal.append({"type": "submit", "id": job.id,
                                  "seq": seq,
                                  "fingerprint": job.fingerprint,
                                  "spec": encode_jobspec(spec)})
            heapq.heappush(self._heap, (-job.priority, seq, job.id))
            self._ready.notify_all()
            return job

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> List[Job]:
        """All jobs, submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                counts[job.state.value] += 1
            return counts

    def position(self, job_id: str) -> Optional[int]:
        """0-based dispatch position of a queued job, else None."""
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.QUEUED:
                return None
            ahead = [j for j in self._jobs.values()
                     if j.state is JobState.QUEUED
                     and (-j.priority, j.seq) < (-job.priority, job.seq)]
            return len(ahead)

    # -- dispatch -------------------------------------------------------
    def claim_next(self, until: Optional[threading.Event] = None
                   ) -> Optional[Job]:
        """Pop the highest-priority queued job and mark it RUNNING.

        Returns None when nothing is queued; given ``until``, blocks
        instead until a job is queued or ``until`` is set and
        :meth:`wake` called.
        """
        with self._ready:
            job = self._pop_ready()
            while job is None and until is not None and not until.is_set():
                self._ready.wait()
                job = self._pop_ready()
            if job is None:
                return None
            job.state = JobState.RUNNING
            self._journal_state(job)
            self._ready.notify_all()
            return job

    def wake(self) -> None:
        """Wake every waiter to re-check its condition."""
        with self._ready:
            self._ready.notify_all()

    def wait_idle(self, timeout_s: Optional[float] = None) -> bool:
        """Block until no job is QUEUED or RUNNING; False on timeout."""
        with self._ready:
            return self._ready.wait_for(lambda: not any(
                job.state in (JobState.QUEUED, JobState.RUNNING)
                for job in self._jobs.values()), timeout_s)

    def wait_terminal(self, job: Job, timeout_s: float) -> bool:
        """Block until ``job`` is terminal; False on timeout."""
        with self._ready:
            return self._ready.wait_for(lambda: job.state.terminal,
                                        timeout_s)

    def _pop_ready(self) -> Optional[Job]:
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            job = self._jobs.get(job_id)
            # Cancelled-while-queued entries stay in the heap until
            # popped; skip anything no longer dispatchable.
            if job is not None and job.state is JobState.QUEUED:
                return job
        return None

    def finish(self, job_id: str, state: JobState,
               exit_code: Optional[int] = None,
               error: Optional[str] = None,
               replayed: bool = False) -> None:
        """Record a terminal state (journaled)."""
        if not state.terminal:
            raise ValueError(f"finish() needs a terminal state, got {state}")
        with self._lock:
            job = self._jobs[job_id]
            job.state = state
            job.exit_code = exit_code
            job.error = error
            job.replayed = replayed
            self._journal_state(job)
            self._ready.notify_all()

    def requeue(self, job_id: str) -> None:
        """Put a claimed job back (daemon shutting down mid-run)."""
        with self._lock:
            job = self._jobs[job_id]
            job.state = JobState.QUEUED
            self._journal_state(job)
            heapq.heappush(self._heap, (-job.priority, job.seq, job.id))
            self._ready.notify_all()

    def cancel(self, job_id: str) -> str:
        """Cancel a job; returns what happened.

        ``"cancelled"``  — it was queued and is now terminally cancelled;
        ``"cancelling"`` — it is running, the executor has been signalled
        (the dispatcher records the terminal state once it stops);
        ``"finished"``   — already terminal, nothing to do.
        Raises KeyError for unknown ids.
        """
        with self._lock:
            job = self._jobs[job_id]
            if job.state is JobState.QUEUED:
                job.state = JobState.CANCELLED
                self._journal_state(job)
                self._ready.notify_all()
                return "cancelled"
            if job.state is JobState.RUNNING:
                job.cancel_event.set()
                return "cancelling"
            return "finished"
