"""Parallel campaign execution.

Lumina campaigns — fuzzing generations, conformance batteries,
benchmark sweeps — are bags of independent, seed-deterministic
simulations. This package fans them out over supervised worker
processes while keeping results byte-identical to serial execution:

* :class:`ParallelRunner` — per-task timeouts, retry-on-worker-crash,
  graceful in-process fallback, per-worker telemetry merge, and
  :meth:`~ParallelRunner.map_cached`, the cached fan-out that
  ``run_test``, the suite, sweeps and fuzzing generations all call.
* :mod:`repro.exec.tasks` — the picklable task functions.
* :mod:`repro.exec.worker` — the worker's task loop.
* :mod:`repro.exec.procs` — the one process supervisor (start, wait,
  stop) for runner workers and service job processes.
"""

__all__ = ["ParallelRunner", "RunnerStats", "TaskOutcome",
           "UnpicklableTaskError"]


def __getattr__(name: str):
    # The runner resolves lazily: the campaign daemon imports
    # repro.exec.procs to start job processes but never maps tasks
    # itself, so it should not carry the runner and its imports.
    if name in __all__:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
