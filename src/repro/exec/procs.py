"""The one process supervisor: start, wait on and stop child processes.

Every process the system starts — a service job process
(:class:`~repro.service.dispatcher.ProcessJobExecutor`) and every
:class:`~repro.exec.runner.ParallelRunner` worker — is started by
:func:`start` from :func:`context`, waited on (sentinels, pipes) by
:func:`wait` and stopped by :func:`stop`. :func:`context` returns a
``forkserver`` context whose server has already imported the modules a
job or task needs (:data:`PRELOAD`), so each child is a ``fork()`` of
an imported, single-threaded server instead of a fresh interpreter.
Targets and arguments still cross by pickling, as under ``spawn``, so
the same code runs where :func:`context` returns ``spawn`` instead.

Three properties follow from the server's lifetime:

* **Lazy start.** The server starts on a process's first
  :func:`context` call, never at import, so set-up pays nothing.
* **Frozen environment.** A child inherits the environment the server
  started with, not the parent's current one. A variable set later in
  the parent (for example ``REPRO_CAMPAIGN_CRASH_AFTER_GEN``, which the
  fuzzer reads in whichever process runs the campaign) reaches a job
  process only if it was set before the server started.
* **Per process.** A server belongs to the process that started it. A
  job process that runs its own workers starts its own server.

:data:`PRELOAD` holds every module a job or task imports: a cold job
of each kind adds nothing to the ``sys.modules`` it inherits.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
from multiprocessing import connection, forkserver
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import Any, Callable, List, Optional, Sequence

__all__ = ["PRELOAD", "context", "deadline", "expired", "start", "stop",
           "wait"]

#: Imported once by the server, inherited by every child it forks:
#: the job entry points, the campaign front-ends they call, the store,
#: the runner, its worker loop and tasks, and the process machinery a
#: job that runs its own workers starts them with.
PRELOAD = (
    "repro.service.dispatcher",
    "repro.service.jobs",
    "repro.core.orchestrator",
    "repro.core.suite",
    "repro.core.sweep",
    "repro.core.fuzz",
    "repro.core.report",
    "repro.store",
    "repro.store.serialize",
    "repro.exec.runner",
    "repro.exec.tasks",
    "repro.exec.worker",
    "multiprocessing.popen_forkserver",
    "multiprocessing.synchronize",
)

_start_lock = threading.Lock()


def context() -> BaseContext:
    """The start-method context for job processes and runner workers.

    ``forkserver`` with :data:`PRELOAD` where the platform has it,
    otherwise ``spawn``. Ensures this process's server is running.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    ctx = multiprocessing.get_context("forkserver")
    with _start_lock:
        ctx.set_forkserver_preload(list(PRELOAD))
        _ensure_server()
    return ctx


def _ensure_server() -> None:
    """Start (or restart) the server with this process's ``sys.path``.

    The server is a fresh interpreter that ignores the ``sys_path`` it
    is handed and swallows a failed preload import, so a ``repro`` put
    on ``sys.path`` at runtime would silently preload nothing. The
    parent's path therefore travels as ``PYTHONPATH``, set only while
    the server starts.
    """
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def start(target: Callable[..., Any], *args: Any) -> BaseProcess:
    """Start a daemonic child (one the parent's exit cleanup stops)
    running ``target(*args)``; raises when the platform cannot."""
    process: BaseProcess = context().Process(target=target, args=args,
                                             daemon=True)
    process.start()
    return process


def stop(process: BaseProcess, timeout_s: float = 5.0) -> None:
    """Terminate ``process`` if it still runs, then reap it."""
    if process.is_alive():
        process.terminate()
    process.join(timeout_s)


def deadline(timeout_s: Optional[float]) -> float:
    """The monotonic time ``timeout_s`` from now; inf for no timeout."""
    return math.inf if timeout_s is None else time.monotonic() + timeout_s


def expired(deadline: float) -> bool:
    """True once the monotonic ``deadline`` has passed."""
    return time.monotonic() >= deadline


def wait(handles: Sequence[Any], deadline: float) -> List[Any]:
    """The ready ``handles``, waiting until one is or ``deadline``."""
    timeout = None if deadline == math.inf \
        else max(0.0, deadline - time.monotonic())
    return connection.wait(handles, timeout)
