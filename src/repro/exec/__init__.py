"""Parallel campaign execution.

Lumina campaigns — fuzzing generations, conformance batteries,
benchmark sweeps — are bags of independent, seed-deterministic
simulations. This package fans them out over a process pool while
keeping results byte-identical to serial execution:

* :class:`ParallelRunner` — the pool itself: per-task timeouts,
  retry-on-worker-crash, graceful in-process fallback, per-worker
  telemetry merge, and :meth:`~ParallelRunner.map_cached`, the cached
  fan-out (store probe, write-back, coverage fold) that ``run_test``,
  the conformance suite, sweeps and fuzzing generations all call.
* :mod:`repro.exec.tasks` — the picklable task functions (score a fuzz
  candidate, run a conformance check, summarise a sweep run).
* :mod:`repro.exec.worker` — the worker-side shim that wraps each task
  in a worker-local observation session.
* :mod:`repro.exec.procs` — the one process factory: a preloaded
  ``forkserver`` context for pool workers and service job processes.
"""

__all__ = ["ParallelRunner", "RunnerStats", "TaskOutcome",
           "UnpicklableTaskError"]


def __getattr__(name: str):
    # The runner resolves lazily: the campaign daemon imports
    # repro.exec.procs to start job processes but never runs a pool
    # itself, so it should not carry the runner and its imports.
    if name in __all__:
        from . import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
