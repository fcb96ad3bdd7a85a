"""Worker-side shim for the parallel campaign runner.

Pool workers are forks of the preloaded process server
(:func:`repro.exec.procs.context`; ``spawn``-ed interpreters where the
platform has no ``forkserver``), and this module is among the ones the
server imports up front. The :class:`~repro.exec.runner.ParallelRunner`
submits ``invoke(task_fn, payload, metrics)`` to the pool, and the
child unpickles ``task_fn`` *by reference* — so task functions must be
plain module-level callables (see :mod:`repro.exec.tasks`), and a
worker never sees state the parent built in memory.

When the parent is observed, each invocation runs under a private,
worker-local observation session with the parent's facets. Coverage
crosses the process boundary on the task's *return value* (results,
scores and check verdicts carry their own snapshots); the metrics
registry is snapshotted into a plain, picklable structure and shipped
back alongside the value so the parent can merge it into its own
(span traces stay in the worker — metrics are compact and mergeable,
traces are neither).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from .. import observe

#: True inside pool workers (set by the pool initializer). Task
#: functions may consult this to tell pool execution apart from the
#: in-process fallback path; the runner's fault-injection tests rely
#: on it to crash only inside an expendable worker process.
IN_WORKER = False


def init_worker() -> None:
    """Pool initializer: mark this process as an expendable worker."""
    global IN_WORKER
    # repro-lint: ignore[RACE001] — the flag exists precisely to differ
    # between worker and parent processes; it never feeds results.
    IN_WORKER = True  # repro-lint: ignore[RACE001]


def invoke(task_fn: Callable[[Any], Any], payload: Any,
           metrics: Optional[bool]) -> Tuple[Any, Optional[list]]:
    """Run one task, optionally under a worker-local observation session.

    ``metrics`` is None to run unobserved, else the metrics facet of
    the session to open. Returns ``(value, metrics_snapshot_or_None)``.
    Raises whatever the task raises — the parent maps exceptions to
    error outcomes.
    """
    if metrics is None:
        return task_fn(payload), None
    with observe.session(metrics=metrics) as obs:
        value = task_fn(payload)
        return value, obs.registry.snapshot() or None
