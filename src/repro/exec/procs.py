"""The one place the process start method is decided.

Every process the system starts — a service job process
(:class:`~repro.service.dispatcher.ProcessJobExecutor`) and every
:class:`~repro.exec.runner.ParallelRunner` pool worker — comes from
:func:`context`. It returns a ``forkserver`` context whose server has
already imported the modules a job or pool task needs (:data:`PRELOAD`),
so each child is a ``fork()`` of an imported, single-threaded server
instead of a fresh interpreter re-importing :mod:`repro`. Each job and
each pool still gets fresh processes; only their start-up is cheaper.

Children are still started through pickling, exactly as under
``spawn``: the target and its arguments cross the boundary by
reference, and a child sees the parent's ``sys.path`` and working
directory, never its in-memory state. The same code therefore runs
unchanged on platforms without ``forkserver``, where :func:`context`
returns ``spawn`` instead.

Three properties follow from the server's lifetime:

* **Lazy start.** The server starts on the first :func:`context` call
  of a process — its first job or pool — never at import or daemon
  start, so set-up pays nothing. That first job pays one server start.
* **Frozen environment.** A child inherits the environment the server
  started with, not the parent's current one. A variable set later in
  the parent (for example ``REPRO_CAMPAIGN_CRASH_AFTER_GEN``, which the
  fuzzer reads in whichever process runs the campaign) reaches a job
  process only if it was set before the server started.
* **Per process.** A server belongs to the process that started it. A
  job process that builds its own pool starts its own server.

:data:`PRELOAD` holds every module a job or pool task imports: a cold
job of each kind adds nothing to the ``sys.modules`` it inherits, which
``tests/test_job_processes.py`` checks.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from multiprocessing import forkserver
from multiprocessing.context import BaseContext

__all__ = ["PRELOAD", "context"]

#: Imported once by the server, inherited by every child it forks:
#: the job entry points, the campaign front-ends they call, the store,
#: the pool and its tasks, and the process machinery a job that builds
#: its own pool starts it with.
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
    """The start-method context for job processes and pool workers.

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
