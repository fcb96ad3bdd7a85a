"""Client — a tiny urllib front door to the campaign daemon.

Speaks the versioned-document protocol of :mod:`repro.service.http`:
submissions are encoded :class:`~repro.service.jobspec.JobSpec`
documents, every response is unwrapped through the shared envelope
helper, and :meth:`Client.results_bytes` fetches the result document
*verbatim* so a caller (or CI's ``cmp``) can compare it byte-for-byte
against a local execution.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from ..store.serialize import unwrap_document
from .jobspec import JobSpec, encode_jobspec
from .queue import JobState

__all__ = ["Client", "ServiceError"]


class ServiceError(Exception):
    """The daemon refused or the transport failed.

    ``status`` is the HTTP status code, or None for transport errors.
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


class Client:
    """Submit/inspect/cancel jobs against one daemon URL."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    # -- transport ------------------------------------------------------
    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Tuple[int, bytes]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(self.base_url + path, data=data,
                                         headers=headers, method=method)
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout_s) as reply:
                return reply.status, reply.read()
        except urllib.error.HTTPError as exc:
            raise ServiceError(self._error_message(exc),
                               status=exc.code) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach campaign service at {self.base_url}: "
                f"{exc.reason}") from None

    @staticmethod
    def _error_message(exc: urllib.error.HTTPError) -> str:
        try:
            doc = json.loads(exc.read().decode("utf-8"))
            _, body = unwrap_document(doc)
            return body.get("error") or f"HTTP {exc.code}"
        except (ValueError, KeyError):
            return f"HTTP {exc.code}"

    def _json(self, method: str, path: str, body: Optional[Dict] = None,
              kind: Optional[str] = None) -> Dict:
        _, payload = self._request(method, path, body)
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            raise ServiceError(f"{path}: response is not JSON") from None
        _, unwrapped = unwrap_document(doc, kind=kind)
        return unwrapped

    # -- API ------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Dict:
        """Enqueue a spec; returns the new job's status body."""
        return self._json("POST", "/api/v1/jobs", body=encode_jobspec(spec),
                          kind="job-status")

    def status(self, job_id: str, wait_s: float = 0.0) -> Dict:
        """The status body, held up to ``wait_s`` until terminal."""
        query = f"?wait={wait_s:.3f}" if wait_s > 0 else ""
        return self._json("GET", f"/api/v1/jobs/{job_id}{query}",
                          kind="job-status")

    def jobs(self) -> List[Dict]:
        return self._json("GET", "/api/v1/jobs",
                          kind="job-list")["jobs"]

    def results(self, job_id: str) -> Dict:
        """The finished job's full result document (parsed)."""
        doc = json.loads(self.results_bytes(job_id).decode("utf-8"))
        _, body = unwrap_document(doc, kind="job-result")
        return body

    def results_bytes(self, job_id: str) -> bytes:
        """The result document exactly as the job process wrote it."""
        _, payload = self._request("GET",
                                   f"/api/v1/jobs/{job_id}/results")
        return payload

    def cancel(self, job_id: str) -> str:
        """Cancel; returns 'cancelled', 'cancelling' or 'finished'."""
        return self._json("POST", f"/api/v1/jobs/{job_id}/cancel",
                          kind="job-cancel")["cancel"]

    def progress(self, job_id: str) -> Dict:
        return self._json("GET", f"/api/v1/jobs/{job_id}/progress",
                          kind="job-progress")

    def health(self) -> Dict:
        return self._json("GET", "/api/v1/health", kind="service-health")

    def wait(self, job_id: str, timeout_s: Optional[float] = None,
             poll_interval_s: Optional[float] = None) -> Dict:
        """Block until the job reaches a terminal state.

        Re-issues a long-poll :meth:`status`, which the daemon answers
        the moment the job finishes. Returns the final status body;
        raises :class:`ServiceError` when ``timeout_s`` elapses first.
        ``poll_interval_s`` has no effect; existing callers pass it.
        """
        deadline = (time.monotonic() + timeout_s
                    if timeout_s is not None else None)
        while True:
            # Half the socket timeout: a held reply never times out.
            wait_s = self.timeout_s / 2
            if deadline is not None:
                wait_s = min(wait_s, deadline - time.monotonic())
            body = self.status(job_id, wait_s=wait_s)
            if JobState(body["state"]).terminal:
                return body
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {body['state']} after "
                    f"{timeout_s:g}s")
