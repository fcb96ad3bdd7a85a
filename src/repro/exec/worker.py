"""Worker side of the parallel campaign runner.

A :class:`~repro.exec.runner.ParallelRunner` worker is a long-lived
child of :func:`repro.exec.procs.start` running :func:`serve`, the
task loop, on one duplex pipe: it answers each ``(payload, metrics)``
with ``(True, (value, snapshot))``, or ``(False, error_text)`` when
the task raised or its value does not pickle. ``task_fn`` arrives
pickled *by reference* — so task functions must be module-level
callables (see :mod:`repro.exec.tasks`). When the parent is observed,
each task runs under a private worker session with the parent's
facets: coverage rides on the task's value, and the metrics registry
is snapshotted and shipped back beside it for the parent to merge
(span traces stay in the worker).
"""

from __future__ import annotations

import pickle
from multiprocessing.connection import Connection
from typing import Any, Callable

from .. import observe

#: True inside runner workers (set by :func:`serve`). Task functions
#: may consult this to tell worker execution apart from the
#: in-process fallback path; the runner's fault-injection tests rely
#: on it to crash only inside an expendable worker process.
IN_WORKER = False


def serve(conn: Connection, task_fn: Callable[[Any], Any]) -> None:
    """Worker main: run tasks from ``conn`` until the runner closes it."""
    global IN_WORKER
    # repro-lint: ignore[RACE001] — the flag exists precisely to differ
    # between worker and parent processes; it never feeds results.
    IN_WORKER = True  # repro-lint: ignore[RACE001]
    while True:
        try:
            # metrics: None to run unobserved, else the facet of the
            # worker-local session to open.
            payload, metrics = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        try:
            if metrics is None:
                reply = pickle.dumps((True, (task_fn(payload), None)))
            else:
                with observe.session(metrics=metrics) as obs:
                    value = task_fn(payload)
                    reply = pickle.dumps(
                        (True, (value, obs.registry.snapshot() or None)))
        except Exception as exc:
            # The task raised, or its value does not pickle.
            reply = pickle.dumps((False, f"{type(exc).__name__}: {exc}"))
        conn.send_bytes(reply)
