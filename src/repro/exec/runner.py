"""Supervised-worker campaign runner.

Lumina's value comes from running *many* tests, and every
``run_test`` is an independent, seed-deterministic simulation — a
perfect fan-out target. :class:`ParallelRunner` maps picklable task
payloads over long-lived workers (:mod:`repro.exec.procs` children,
one task at a time each) and hides the operational sharp edges:

* ``workers=1`` (or a platform that cannot start a worker) degrades to
  in-process serial execution with identical semantics,
* a task past its deadline has its worker terminated and replaced; a
  worker that dies is replaced and its task re-run, and in-process
  after ``max_retries`` attempts — the other in-flight tasks run on,
* per-worker metrics registries are snapshotted in the worker and
  merged into the parent's live session in task order, keeping merged
  metrics deterministic for any worker count.

:meth:`ParallelRunner.map_cached` is the cached fan-out every campaign
front-end (``run_test``, the conformance suite, sweeps, fuzzing
generations) shares: probe a campaign store, run the misses, write
fresh results back, and fold coverage into the live session under one
rule — *in-process units fold themselves, the fan-out folds everything
else*.

Determinism contract: the runner never reorders results (outcome ``i``
always corresponds to payload ``i``) and injects no randomness, so any
campaign whose tasks are themselves deterministic produces identical
results for every value of ``workers``. Tasks and payloads are
pickled across, so the rules are ``spawn``'s: module-level task
functions, plain picklable payloads, no state inherited from the
parent.
"""

from __future__ import annotations

import dataclasses
import pickle
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, Pipe
from multiprocessing.process import BaseProcess
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from .. import observe
from . import procs
from . import worker as worker_mod

if TYPE_CHECKING:  # avoid a runtime exec -> store import cycle
    from ..store.index import CampaignStore

__all__ = ["TaskOutcome", "RunnerStats", "ParallelRunner",
           "UnpicklableTaskError"]


class UnpicklableTaskError(TypeError):
    """A task function or payload cannot cross the spawn boundary.

    Raised *before* any submission, naming the offending field — a
    non-picklable payload would otherwise surface much later as an
    opaque worker crash followed by pointless retries.
    """


def _unpicklable_path(obj: Any, prefix: str) -> Optional[Tuple[str, str]]:
    """(path, reason) for the deepest unpicklable element, or None.

    Descends dicts, dataclasses and sequences so the error names the
    actual field (``payload['config'].on_done``) rather than the
    payload as a whole.
    """
    try:
        pickle.dumps(obj)
        return None
    except Exception as exc:
        failure = (prefix, f"{type(exc).__name__}: {exc}")
    children: List[Tuple[str, Any]] = []
    if isinstance(obj, dict):
        children = [(f"{prefix}[{key!r}]", value)
                    for key, value in obj.items()]
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        children = [(f"{prefix}.{f.name}", getattr(obj, f.name))
                    for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = [(f"{prefix}[{index}]", value)
                    for index, value in enumerate(obj)]
    for path, value in children:
        deeper = _unpicklable_path(value, path)
        if deeper is not None:
            return deeper
    return failure


def _identity(value: Any) -> Any:
    return value


def _carried_coverage(value: Any) -> Optional[list]:
    """The coverage snapshot a task value carries, if any.

    Result objects (``TestResult``, ``CheckResult``, ``Score``) carry
    it as ``.coverage``; sweep summaries as a ``"coverage"`` key.
    """
    if isinstance(value, dict):
        return value.get("coverage")
    return getattr(value, "coverage", None)


@dataclass
class TaskOutcome:
    """Result envelope for one mapped payload (same index as input).

    ``cached`` marks outcomes :meth:`ParallelRunner.map_cached` replayed
    from a campaign store rather than executed. ``exception`` keeps the
    original exception of an in-process failure, so a one-unit caller
    such as ``run_test`` can re-raise it unchanged.
    """

    index: int
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    ran_in_process: bool = False
    cached: bool = False
    exception: Optional[BaseException] = field(default=None, repr=False,
                                               compare=False)


@dataclass
class RunnerStats:
    """Operational counters accumulated across ``map`` calls."""

    tasks_completed: int = 0
    tasks_failed: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    in_process_runs: int = 0
    pools_created: int = 0


class ParallelRunner:
    """Maps payloads through a task function on supervised workers.

    ``task_fn`` must be a module-level callable (pickled by reference
    into the workers) taking one picklable payload and
    returning one picklable value. ``in_process_fn`` (default
    ``task_fn``) replaces it wherever a payload runs in this process —
    ``workers=1``, a platform without worker processes, the crash
    fallback — and need not be picklable; it must return the same kind
    of value.
    """

    def __init__(self, task_fn: Callable[[Any], Any], workers: int = 1,
                 task_timeout_s: Optional[float] = None,
                 max_retries: int = 2,
                 in_process_fn: Optional[Callable[[Any], Any]] = None):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if workers > 1:
            problem = _unpicklable_path(task_fn, "task_fn")
            if problem is not None:
                name = getattr(task_fn, "__qualname__", None) or repr(task_fn)
                raise UnpicklableTaskError(
                    f"task_fn {name} cannot be pickled by reference into "
                    f"spawn workers ({problem[1]}); pass a module-level "
                    f"function (see repro.exec.tasks)")
        self.task_fn = task_fn
        self.in_process_fn = in_process_fn or task_fn
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_retries = max(1, max_retries)
        self.stats = RunnerStats()
        #: each worker's end of its task pipe -> its process
        self._workers: Dict[Connection, BaseProcess] = {}
        self._pool_dead = False

    def _idle_worker(self, busy: Dict[Connection, Any]
                     ) -> Optional[Connection]:
        """An idle worker's pipe, a fresh worker's, or None: all busy,
        ``workers`` is 1, or a worker could not be started (no process
        server, ...) and the rest of the campaign runs in-process."""
        if self._pool_dead or self.workers == 1:
            return None
        idle = [conn for conn in self._workers if conn not in busy]
        if idle or len(self._workers) == self.workers:
            return idle[0] if idle else None
        conn, child = Pipe()
        try:
            process = procs.start(worker_mod.serve, child, self.task_fn)
        except Exception:
            conn.close()
            self._pool_dead = True
            return None
        finally:
            child.close()
        if not self._workers:
            self.stats.pools_created += 1
        self._workers[conn] = process
        return conn

    def _retire(self, conn: Connection) -> None:
        """Stop one worker (timed out, crashed, or closing)."""
        conn.close()
        procs.stop(self._workers.pop(conn))

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        for conn in list(self._workers):
            self._retire(conn)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _run_in_process(self, index: int, payload: Any,
                        attempts: int = 1) -> TaskOutcome:
        self.stats.in_process_runs += 1
        try:
            value = self.in_process_fn(payload)
        except Exception as exc:
            self.stats.tasks_failed += 1
            return TaskOutcome(index=index, ok=False,
                               error=f"{type(exc).__name__}: {exc}",
                               attempts=attempts, ran_in_process=True,
                               exception=exc)
        self.stats.tasks_completed += 1
        return TaskOutcome(index=index, ok=True, value=value,
                           attempts=attempts, ran_in_process=True)

    def map(self, payloads: Sequence[Any]) -> List[TaskOutcome]:
        """Run every payload; outcomes come back in payload order.

        Never raises for task-level failures — inspect the outcomes.
        The exception is a *programming* error: a payload that cannot
        be pickled into the spawn workers raises
        :class:`UnpicklableTaskError` (naming the offending field)
        before anything is submitted.
        """
        if self.workers > 1 and not self._pool_dead:
            for index, payload in enumerate(payloads):
                problem = _unpicklable_path(payload, f"payloads[{index}]")
                if problem is not None:
                    path, reason = problem
                    raise UnpicklableTaskError(
                        f"{path} cannot be pickled into spawn workers: "
                        f"{reason}; campaign payloads must be plain "
                        f"picklable data")
        outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
        # Workers open a private session with the parent's facets.
        obs = observe.active()
        metrics = obs.metrics if obs is not None and self.workers > 1 \
            else None
        pending = deque(range(len(payloads)))
        attempts = [0] * len(payloads)
        snapshots: dict = {}
        #: busy worker's pipe -> (payload index, monotonic deadline)
        busy: Dict[Connection, Tuple[int, float]] = {}

        def crashed(conn: Connection, i: int) -> None:
            self._retire(conn)
            self.stats.worker_crashes += 1
            attempts[i] += 1
            if attempts[i] < self.max_retries:
                pending.appendleft(i)
            else:
                # Last resort: run where a crash cannot be papered
                # over. The campaign keeps its result.
                outcomes[i] = self._run_in_process(
                    i, payloads[i], attempts=attempts[i] + 1)

        try:
            while pending or busy:
                conn = self._idle_worker(busy) if pending else None
                if conn is not None:
                    i = pending.popleft()
                    try:
                        conn.send_bytes(pickle.dumps((payloads[i], metrics)))
                    except OSError:
                        crashed(conn, i)
                    else:
                        busy[conn] = (i, procs.deadline(self.task_timeout_s))
                    continue
                if not busy:
                    # No worker could be started: the rest runs here.
                    for i in pending:
                        outcomes[i] = self._run_in_process(
                            i, payloads[i], attempts=attempts[i] + 1)
                    break
                ready = procs.wait(
                    list(busy) + [self._workers[conn].sentinel
                                  for conn in busy],
                    min(deadline for _, deadline in busy.values()))
                for conn, (i, deadline) in list(busy.items()):
                    if conn in ready:
                        try:
                            ok, reply = pickle.loads(conn.recv_bytes())
                        except Exception:
                            # A dead pipe, or a reply that does not
                            # unpickle here.
                            ok = None
                    elif self._workers[conn].sentinel in ready:
                        ok = None
                    elif procs.expired(deadline):
                        # Wedged: stop it; a fresh worker takes its
                        # place on the next hand-out.
                        self._retire(conn)
                        self.stats.timeouts += 1
                        ok, reply = False, \
                            f"timed out after {self.task_timeout_s}s"
                    else:
                        continue
                    del busy[conn]
                    if ok is None:
                        crashed(conn, i)
                    elif ok:
                        # reply is (value, metrics snapshot or None)
                        self.stats.tasks_completed += 1
                        outcomes[i] = TaskOutcome(
                            index=i, ok=True, value=reply[0],
                            attempts=attempts[i] + 1)
                        if reply[1]:
                            snapshots[i] = reply[1]
                    else:
                        # The task raised (tasks are deterministic, so
                        # a retry would fail the same way) or timed out.
                        self.stats.tasks_failed += 1
                        outcomes[i] = TaskOutcome(
                            index=i, ok=False, error=reply,
                            attempts=attempts[i] + 1)
        finally:
            # Only a map interrupted by an exception leaves tasks in
            # flight; their late replies must not reach the next map.
            for conn in busy:
                self._retire(conn)

        # Merge worker telemetry in task order so the parent registry
        # is identical for any worker count / completion order.
        if obs is not None:
            for i in sorted(snapshots):
                obs.registry.merge(snapshots[i])
        return outcomes  # type: ignore[return-value]

    def map_cached(self, payloads: Sequence[Any],
                   keys: Sequence[str] = (),
                   store: Optional["CampaignStore"] = None,
                   kind: str = "",
                   encode: Callable[[Any], Any] = _identity,
                   decode: Callable[[Any], Any] = _identity,
                   ) -> List[TaskOutcome]:
        """The cached fan-out: :meth:`map` behind a campaign store.

        With a ``store``, ``keys[i]`` (the caller's fingerprint for
        payload ``i``) is probed first and a hit becomes a ``cached``
        outcome holding ``decode(document)``; only the misses go
        through :meth:`map`, and each fresh, ok value is written back
        as ``encode(value)`` under ``kind``. Failures are never cached.

        Coverage follows one rule: a unit that ran in this process
        already folded its own scope into the live session, so only
        the snapshots carried by worker-executed and store-replayed
        values are folded here, in unit order. Coverage merges are
        commutative, so the session total is the same for any worker
        count and on replay.
        """
        outcomes: List[Optional[TaskOutcome]] = [None] * len(payloads)
        pending = list(range(len(payloads)))
        if store is not None:
            pending = []
            for i, key in enumerate(keys):
                doc = store.get(key)
                if doc is None:
                    pending.append(i)
                else:
                    outcomes[i] = TaskOutcome(index=i, ok=True,
                                              value=decode(doc), cached=True)
        if pending:
            fresh = self.map([payloads[i] for i in pending])
            for i, outcome in zip(pending, fresh):
                outcome.index = i
                outcomes[i] = outcome
                if store is not None and outcome.ok:
                    store.put(keys[i], kind, encode(outcome.value))
        cov = observe.active()
        if cov is not None:
            for outcome in outcomes:
                if outcome.ok and not outcome.ran_in_process:
                    rows = _carried_coverage(outcome.value)
                    if rows:
                        cov.merge_snapshot(rows)
        return outcomes  # type: ignore[return-value]

