"""One observation session: metrics, spans, coverage and flight records.

Every layer of the testbed reports into the single live :class:`Session`:

* **metrics and spans** — a :class:`~repro.telemetry.metrics.
  MetricsRegistry` and a sim-time :class:`~repro.telemetry.spans.Tracer`,
  exported as ``metrics.prom``, ``trace.json`` and ``events.jsonl``;
* **coverage** — a stack of :class:`~repro.coverage.map.CoverageMap`
  scopes, exported as ``coverage.json``;
* **flight records** — one bounded event ring per component, plus the
  triggered dumps (``flight-<name>.txt``) of anomalous runs and checks.

At most one session is live. Components reach it through two accessors
with different cost profiles:

* :func:`current` — never None. Returns the live session or the shared
  :data:`NULL_SESSION`, whose factories hand out no-op twins. Components
  fetch their handles once at construction and bump them on the hot
  path, which costs one empty method call when nothing is observed.
* :func:`active` — the live session or ``None``. Guards work that is not
  free even in no-op form (scope pushes, snapshot merges).

A live session always records coverage and flight records: coverage is
the coverage-guided fuzzer's fitness signal, so it must stay cheap to
turn on alone. The metrics facet (registry, tracer, simulator probe) is
on unless the session is enabled with ``metrics=False``; sites that take
wall-clock readings or attach the probe check :attr:`Session.metrics`.

**Scopes.** Campaign layers need per-run and per-check maps (carried on
results across process boundaries) *and* a campaign total. The
orchestrator opens a :meth:`Session.scope` around each run and the
suite one around each check; a scope folds into its parent when it
closes. One fold rule then holds everywhere: **in-process units fold
themselves, and the fan-out folds everything else** —
:meth:`~repro.exec.runner.ParallelRunner.map_cached` folds the
snapshots carried by pool-executed and store-replayed units. Coverage
merges are commutative, so every path reaches the same total — the
root of the workers∈{1,2,4} byte-identity guarantee.

Determinism guarantee: nothing here feeds back into the simulation. A
session observes sim state and wall time but never schedules events,
draws from the seeded PRNG or mutates component state, so observed and
unobserved runs produce byte-identical traces and verdicts (enforced by
``tests/test_telemetry_determinism.py`` and ``tests/test_coverage.py``).
"""

from __future__ import annotations

import os
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from .coverage.map import NULL_DOMAIN, CoverageMap, DomainHandle
from .coverage.recorder import NULL_RECORDER, FlightRecorder
from .telemetry.metrics import NULL_REGISTRY, MetricsRegistry
from .telemetry.spans import NULL_TRACER, Tracer

__all__ = ["Session", "NULL_SESSION", "enable", "disable", "current",
           "active", "session", "session_for"]


class Session:
    """A live observation: metrics facet, coverage scopes, flight rings."""

    enabled = True

    def __init__(self, out_dir: Optional[str] = None, *,
                 metrics: bool = True):
        self.out_dir = out_dir
        #: True when the metrics facet (registry, tracer, probe) is on.
        self.metrics = metrics
        self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        self.tracer = Tracer() if metrics else NULL_TRACER
        root = CoverageMap()
        self._stack: List[CoverageMap] = [root]
        #: The innermost coverage scope — where hits land right now.
        self.live: CoverageMap = root
        self._domains: Dict[str, DomainHandle] = {}
        self._recorders: Dict[str, FlightRecorder] = {}
        self._seq = 0  # session-wide flight-record ordering
        self._flight_dumps: List[Tuple[str, str, List[list]]] = []

    # ------------------------------------------------------------------
    # Metrics facet (null twins when ``metrics=False``)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, buckets=None, **labels):
        return self.registry.histogram(name, buckets=buckets, **labels)

    def span(self, name: str, pid: str = "lumina", tid: str = "main",
             category: str = "", **args):
        return self.tracer.span(name, pid, tid, category, **args)

    def wall_span(self, name: str, pid: str = "lumina", tid: str = "main",
                  category: str = "", **args):
        return self.tracer.wall_span(name, pid, tid, category, **args)

    def instant(self, name: str, pid: str = "lumina", tid: str = "main",
                category: str = "", ts_ns=None, **args):
        return self.tracer.instant(name, pid, tid, category, ts_ns, **args)

    # ------------------------------------------------------------------
    # Coverage facet
    # ------------------------------------------------------------------
    def domain(self, name: str) -> DomainHandle:
        handle = self._domains.get(name)
        if handle is None:
            handle = self._domains[name] = DomainHandle(self, name)
        return handle

    @contextmanager
    def scope(self) -> Iterator[CoverageMap]:
        """Isolate hits in a fresh scope, then fold them into the parent.

        ``with session.scope() as run_map:`` hands out the pushed scope
        so the caller can snapshot the isolated delta; on exit — by any
        path — it is popped and merged into the enclosing scope.
        """
        scope = CoverageMap()
        self._stack.append(scope)
        self.live = scope
        try:
            yield scope
        finally:
            self._stack.pop()
            self.live = self._stack[-1]
            self.live.merge_map(scope)

    def merge_snapshot(self, snapshot) -> None:
        """Fold a result-carried snapshot into the innermost scope."""
        self.live.merge_snapshot(snapshot)

    def total_snapshot(self) -> List[List]:
        """Everything the session has seen, across all open scopes."""
        total = CoverageMap()
        for scope in self._stack:
            total.merge_map(scope)
        return total.snapshot()

    # ------------------------------------------------------------------
    # Flight recorder
    # ------------------------------------------------------------------
    def recorder(self, component: str) -> FlightRecorder:
        rec = self._recorders.get(component)
        if rec is None:
            rec = self._recorders[component] = FlightRecorder(self, component)
        return rec

    def reset_recorders(self) -> None:
        """Clear every ring (called at the start of each run attempt)."""
        for rec in self._recorders.values():
            rec.clear()
        self._seq = 0

    def flight_snapshot(self) -> List[List]:
        """All rings as one timeline, ordered by recording sequence."""
        entries: List[tuple] = []
        for component in sorted(self._recorders):
            entries.extend(self._recorders[component].entries())
        entries.sort()
        return [list(entry) for entry in entries]

    def dump_flight(self, name: str, trigger: str,
                    entries: List[list]) -> None:
        """Queue one triggered timeline for ``flight-<name>.txt``."""
        self._flight_dumps.append((name, trigger, entries))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, out_dir: Optional[str] = None) -> List[str]:
        """Write every artifact into one directory; returns their paths.

        ``coverage.json`` and the queued flight dumps always; with the
        metrics facet also ``metrics.prom``, ``trace.json`` and
        ``events.jsonl``, after publishing the coverage headline gauges
        so the metrics snapshot carries them.
        """
        from .coverage.domains import known_point_count
        from .coverage.report import (export_coverage, flight_dump_name,
                                      render_flight_record)
        from .telemetry.export import export_run

        target = out_dir or self.out_dir
        if target is None:
            raise ValueError("no output directory for the session export")
        points = self.total_snapshot()
        paths = [export_coverage(points, target)]
        if self.metrics:
            self.gauge("coverage_domains_hit").set(
                len({row[0] for row in points}))
            self.gauge("coverage_points_hit").set(len(points))
            self.gauge("coverage_points_known").set(known_point_count())
            paths.extend(export_run(self.registry, self.tracer,
                                    target).values())
        for name, trigger, entries in self._flight_dumps:
            path = os.path.join(target, flight_dump_name(name))
            with open(path, "w") as handle:
                handle.write(render_flight_record(entries, name, trigger))
            paths.append(path)
        return paths


class _NullSession(Session):
    """The shared disabled-mode session: factories hand out no-op twins."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(metrics=False)

    def domain(self, name: str):
        return NULL_DOMAIN

    def recorder(self, component: str):
        return NULL_RECORDER

    @contextmanager
    def scope(self) -> Iterator[CoverageMap]:
        yield CoverageMap()

    def merge_snapshot(self, snapshot) -> None:
        pass

    def dump_flight(self, name: str, trigger: str,
                    entries: List[list]) -> None:
        pass

    def export(self, out_dir: Optional[str] = None) -> List[str]:
        raise RuntimeError("no observation session is live; "
                           "nothing to export")


NULL_SESSION = _NullSession()

_current: Session = NULL_SESSION


def enable(out_dir: Optional[str] = None, *,
           metrics: bool = True) -> Session:
    """Start a fresh session (replacing any live one) and return it."""
    global _current
    new_session = Session(out_dir, metrics=metrics)
    # repro-lint: ignore[RACE001] — session lifecycle singleton: workers
    # enable/disable their own session and results travel via snapshots.
    _current = new_session  # repro-lint: ignore[RACE001]
    return new_session


def disable() -> None:
    """End the live session; components fall back to no-op twins."""
    global _current
    _current = NULL_SESSION  # repro-lint: ignore[RACE001] — lifecycle


def current() -> Session:
    """The live session, or the no-op :data:`NULL_SESSION`. Never None."""
    return _current


def active() -> Optional[Session]:
    """The live session, or ``None`` when nothing is observed."""
    return _current if _current.enabled else None


@contextmanager
def session(out_dir: Optional[str] = None, *,
            metrics: bool = True) -> Iterator[Session]:
    """``with observe.session(dir) as obs:`` — scoped enable/disable.

    With an ``out_dir`` the session exports there when the block exits
    cleanly; it is disabled on every exit path.
    """
    live = enable(out_dir, metrics=metrics)
    try:
        yield live
        if out_dir is not None:
            live.export()
    finally:
        disable()


def session_for(out_dir: Optional[str] = None,
                coverage_fitness: Optional[bool] = None
                ) -> AbstractContextManager:
    """The session one campaign command needs, as a context manager.

    An ``out_dir`` gets a full session exported there; otherwise a
    ``coverage_fitness`` request still needs coverage for its feedback
    and gets an in-memory, coverage-only session; anything else runs
    unobserved. The CLI and the service's job process both decide
    through here, so a local and a remote campaign see the same
    session.
    """
    if out_dir is None and not coverage_fitness:
        return nullcontext()
    return session(out_dir, metrics=out_dir is not None)
