"""The daemon's REST/JSON surface — stdlib ``http.server`` only.

Routes (all under ``/api/v1``, all payloads versioned documents):

====== ============================ =======================================
POST   /api/v1/jobs                 submit a job-spec document → job-status
GET    /api/v1/jobs                 list every job → job-list
GET    /api/v1/jobs/<id>            one job → job-status
GET    /api/v1/jobs/<id>?wait=S     the same, held ≤ S s until terminal
GET    /api/v1/jobs/<id>/results    the result document, byte-verbatim
GET    /api/v1/jobs/<id>/progress   incremental progress → job-progress
POST   /api/v1/jobs/<id>/cancel     cancel queued/running → job-cancel
GET    /api/v1/health               daemon health → service-health
====== ============================ =======================================

A ``?wait=S`` long poll (S capped at ``MAX_WAIT_S``) blocks on the job
queue's Condition, so it answers the moment the job turns terminal.

The results route streams ``result.json`` exactly as the job process
wrote it (no re-serialization), which is what lets CI ``cmp`` a fetched
result against the one-shot CLI artifact.
"""

from __future__ import annotations

import json
import math
import os
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs

from ..store.serialize import wrap_document
from .jobs import RESULT_FILE
from .jobspec import decode_jobspec

__all__ = ["MAX_WAIT_S", "make_server"]

_JOB_ROUTE = re.compile(
    r"^/api/v1/jobs/([A-Za-z0-9_-]+)(/results|/progress|/cancel)?$")

#: Submission bodies are small JSON documents; anything bigger is a
#: client bug, not a job.
_MAX_BODY_BYTES = 4 * 1024 * 1024

#: The longest one ``?wait=S`` request blocks, in seconds: below the
#: :class:`~repro.service.client.Client`'s 30 s socket timeout, so a
#: long poll answers before its client gives up on the connection.
MAX_WAIT_S = 20.0


def _wait_seconds(query: str) -> float:
    """The ``wait`` parameter of a query string, capped (0 if absent)."""
    value = parse_qs(query, keep_blank_values=True).get("wait", ["0"])[-1]
    try:
        wait_s = float(value)
    except ValueError:
        wait_s = math.nan
    if not wait_s >= 0.0:  # negative, NaN or not a number
        raise ValueError(f"wait must be a non-negative number of "
                         f"seconds, got {value!r}")
    return min(wait_s, MAX_WAIT_S)


class _Handler(BaseHTTPRequestHandler):
    daemon = None  # injected by make_server's subclass
    protocol_version = "HTTP/1.1"

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the daemon is quiet; health/status carry the signal

    def _send_json(self, status: int, doc: Dict) -> None:
        self._send_payload(status,
                           json.dumps(doc, sort_keys=True).encode("utf-8"))

    def _send_payload(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json(status, wrap_document("error",
                                              {"error": message}))

    def _read_body(self) -> Optional[Dict]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > _MAX_BODY_BYTES:
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None

    def _route(self, path: str) -> Tuple[Optional[str], Optional[str]]:
        """``(job_id, action)`` for job routes, else ``(None, None)``."""
        match = _JOB_ROUTE.match(path)
        if match is None:
            return None, None
        return match.group(1), (match.group(2) or "").lstrip("/") or None

    # -- verbs ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path, _, query = self.path.partition("?")
        if path == "/api/v1/health":
            self._send_json(200, wrap_document(
                "service-health", self.daemon.health_body()))
            return
        if path == "/api/v1/jobs":
            self._send_json(200, wrap_document("job-list", {
                "jobs": [job.status_body()
                         for job in self.daemon.queue.jobs()]}))
            return
        job_id, action = self._route(path)
        if job_id is None or action == "cancel":
            self._send_error_json(404, f"no route for GET {self.path}")
            return
        job = self.daemon.queue.get(job_id)
        if job is None:
            self._send_error_json(404, f"unknown job {job_id}")
            return
        if action is None:
            try:
                wait_s = _wait_seconds(query)
            except ValueError as exc:
                self._send_error_json(400, str(exc))
                return
            if wait_s:
                self.daemon.queue.wait_terminal(job, wait_s)
            self._send_json(200, wrap_document("job-status",
                                               job.status_body()))
        elif action == "progress":
            self._send_json(200, wrap_document(
                "job-progress", self.daemon.progress_body(job)))
        elif action == "results":
            self._send_results(job)

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.partition("?")[0]
        if path == "/api/v1/jobs":
            self._submit()
            return
        job_id, action = self._route(path)
        if job_id is None or action != "cancel":
            self._send_error_json(404, f"no route for POST {self.path}")
            return
        try:
            outcome = self.daemon.queue.cancel(job_id)
        except KeyError:
            self._send_error_json(404, f"unknown job {job_id}")
            return
        self._send_json(200, wrap_document("job-cancel",
                                           {"id": job_id,
                                            "cancel": outcome}))

    # -- handlers -------------------------------------------------------
    def _submit(self) -> None:
        body = self._read_body()
        if body is None:
            self._send_error_json(400, "request body is not JSON")
            return
        try:
            spec = decode_jobspec(body)
        except ValueError as exc:
            self._send_error_json(400, f"bad job spec: {exc}")
            return
        job = self.daemon.queue.submit(spec)
        self._send_json(201, wrap_document("job-status",
                                           job.status_body()))

    def _send_results(self, job) -> None:
        path = os.path.join(self.daemon.job_dir(job.id), RESULT_FILE)
        try:
            with open(path, "rb") as handle:
                payload = handle.read()
        except FileNotFoundError:
            self._send_error_json(
                404, f"job {job.id} has no result document "
                     f"(state: {job.state.value})")
            return
        self._send_payload(200, payload)


def make_server(daemon, host: str, port: int) -> ThreadingHTTPServer:
    """A ready-to-serve (not yet serving) HTTP server bound to the daemon."""
    handler = type("CampaignHandler", (_Handler,), {"daemon": daemon})
    return ThreadingHTTPServer((host, port), handler)
