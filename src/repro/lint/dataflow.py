"""Transitive dataflow analyses on top of the cross-module call graph.

Four rule families run over the whole :class:`~repro.lint.callgraph.\
Program` rather than one module at a time:

=========  ===========================================================
FLOW001    Wall-clock taint. DET001 catches a ``time.time()`` *inside*
           the scanned simulation directories; FLOW001 follows call
           chains out of them — a sim-scope function calling a helper
           (in any module) that transitively reaches a wall-clock read
           is flagged at the scope-exit call site, with the chain in
           the message. It also tracks wall-clock *values*: an
           expression derived from a wall-clock read (directly or via
           a function whose return value is tainted) assigned to a
           sim-time field (``*_ns``/``*_us``/``*_ms``) or passed into
           fingerprint/coverage sinks is flagged wherever it lands.
FLOW002    RNG provenance. Every stream must descend from the seeded
           root: constructing ``random.Random``/``SystemRandom``
           outside ``sim/rng.py`` is an orphan stream; ``.seed()``/
           ``.setstate()`` on an RNG inside a worker-reachable path
           reseeds mid-campaign; a ``SimRandom`` built from a literal
           (or no) seed forks a stream that ignores the run config.
RACE001    Spawn-safety races. Module-level mutable state written on
           any call path reachable from a ``ParallelRunner`` task
           function diverges between pool workers and the in-process
           fallback; observation-session ``merge*()`` calls outside the
           declared single merge points break the "merge once, in
           deterministic order" contract that keeps campaign maps
           byte-identical across worker counts.
UNIT001    Dimension checking from the naming convention. ``*_ns``,
           ``*_us``, ``*_bytes``, ``*_gbps``, ``*_pps`` names carry
           their unit; adding/comparing/assigning across different
           units (``delay_ns + gap_us``) or passing a ``*_us`` value
           to a ``*_ns`` parameter across a module boundary is flagged.
           Multiplication/division launder units (conversions look
           like ``x_us * 1000``), so only additive/comparative mixes
           and direct assignments are checked.
=========  ===========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .callgraph import Program
from .context import ModuleContext, dotted_name
from .findings import FileStats, Finding, Severity
from .rules import (_WALL_CLOCK, ProgramRule, all_rules, in_det001_scope,
                    register)

__all__ = ["run_program_rules", "worker_root_qnames"]


def run_program_rules(program: Program,
                      select: Optional[Set[str]] = None,
                      stats: Optional[FileStats] = None) -> List[Finding]:
    """Run every registered whole-program rule; suppressions applied."""
    findings: List[Finding] = []
    for rule in all_rules():
        if not isinstance(rule, ProgramRule):
            continue
        if select and rule.code not in select:
            continue
        for finding in rule.check_program(program):
            ctx = program.contexts.get(finding.path)
            if ctx is not None and ctx.skip_file:
                continue
            if ctx is not None and ctx.is_suppressed(finding.code,
                                                     finding.line):
                if stats is not None:
                    stats.suppressed += 1
                continue
            findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


# ======================================================================
# Shared helpers
# ======================================================================
def _is_telemetry_path(path: str) -> bool:
    """The metrics facet's modules: telemetry/ and the session itself."""
    return "telemetry" in path.split("/")[:-1] or \
        path.endswith("repro/observe.py")


def _leaf(qname: str) -> str:
    return qname.rsplit(".", 1)[-1]


def worker_root_qnames(program: Program) -> Set[str]:
    """Functions that execute inside pool workers.

    * every callable handed to a ``ParallelRunner`` as its task
      function, resolved through the call graph,
    * every module-level function of an ``exec.tasks`` module (the
      canonical task catalogue), and
    * the worker's task loop itself (``exec.worker.serve``).
    """
    roots: Set[str] = set()
    for mod_name in sorted(program.modules):
        if mod_name.endswith(".exec.tasks") or \
                mod_name.endswith(".exec.worker"):
            for qname in sorted(program.functions):
                info = program.functions[qname]
                if info.module == mod_name and info.class_qname is None \
                        and "." not in qname[len(mod_name) + 1:]:
                    roots.add(qname)
    for caller in sorted(program.calls_by_fn):
        for call, candidates in program.calls_by_fn[caller]:
            is_runner_ctor = any(
                (".ParallelRunner." in c and _leaf(c) == "__init__")
                or _leaf(c) == "ParallelRunner"
                for c, _ext in candidates)
            if not is_runner_ctor:
                continue
            task_expr: Optional[ast.AST] = call.args[0] if call.args else None
            for kw in call.keywords:
                if kw.arg == "task_fn":
                    task_expr = kw.value
            if task_expr is None:
                continue
            resolved = _resolve_function_ref(program, call, caller, task_expr)
            if resolved is not None:
                roots.add(resolved)
    return roots


def _resolve_function_ref(program: Program, call: ast.Call, caller: str,
                          expr: ast.AST) -> Optional[str]:
    """Resolve a function *reference* (not a call) to a program qname."""
    info = program.functions.get(caller)
    ctx: Optional[ModuleContext] = None
    if info is not None:
        ctx = program.contexts.get(info.path)
    else:
        # module pseudo-scope: caller is "<mod>.<module>"
        ctx = program.modules.get(caller.rsplit(".", 1)[0])
    if ctx is None:
        return None
    dotted = ctx.resolve(expr)
    if dotted is None:
        return None
    if dotted in program.functions:
        return dotted
    mod = caller.split(".<module>")[0] if caller.endswith(".<module>") else \
        (info.module if info is not None else None)
    if mod is not None and f"{mod}.{dotted}" in program.functions:
        return f"{mod}.{dotted}"
    return None


# ======================================================================
# FLOW001 — transitive wall-clock taint
# ======================================================================
@register
class WallClockFlowRule(ProgramRule):
    code = "FLOW001"
    name = "wall-clock-taint"
    severity = Severity.ERROR
    description = ("call chain from simulation code reaches a wall-clock "
                   "read outside the scanned dirs, or a wall-clock-derived "
                   "value lands in a sim-time field / fingerprint / "
                   "coverage sink")

    #: internal callees whose arguments must never be wall-derived
    _SINK_CALL_MARKERS = ("fingerprint", "canonical_json")
    _TIME_SUFFIXES = ("_ns", "_us", "_ms")

    def check_program(self, program: Program) -> Iterator[Finding]:
        wall_callers = self._wall_callers(program)
        tainted_fns = program.functions_reaching(wall_callers)
        yield from self._check_scope_exits(program, wall_callers,
                                           tainted_fns)
        returns_wall = self._returns_wall(program)
        yield from self._check_value_sinks(program, returns_wall)

    # -- direct sources ------------------------------------------------
    def _sanctioned_source(self, path: str, callee: str) -> bool:
        if _is_telemetry_path(path):
            return True  # wall deltas annotate, never schedule
        if path.endswith("sim/engine.py") and \
                callee == "time.perf_counter_ns":
            return True  # the probe's sanctioned timing site
        return False

    def _wall_callers(self, program: Program) -> Set[str]:
        callers: Set[str] = set()
        for qname in sorted(program.calls_by_fn):
            info = program.functions.get(qname)
            path = info.path if info else qname  # pseudo-scopes skipped below
            if info is None:
                continue
            for _call, candidates in program.calls_by_fn[qname]:
                for callee, external in candidates:
                    if external and callee in _WALL_CLOCK and \
                            not self._sanctioned_source(path, callee):
                        callers.add(qname)
        return callers

    def _check_scope_exits(self, program: Program, wall_callers: Set[str],
                           tainted_fns: Set[str]) -> Iterator[Finding]:
        seen: Set[Tuple[str, int, str]] = set()
        for edge in program.iter_edges():
            if edge.external:
                continue
            caller_info = program.functions.get(edge.caller)
            callee_info = program.functions.get(edge.callee)
            if caller_info is None or callee_info is None:
                continue
            if not in_det001_scope(caller_info.path):
                continue
            if in_det001_scope(callee_info.path):
                continue  # DET001 flags the eventual read at its own site
            if _is_telemetry_path(callee_info.path):
                continue  # sanctioned annotation-only wall usage
            if edge.callee not in tainted_fns:
                continue
            key = (edge.path, edge.lineno, edge.callee)
            if key in seen:
                continue
            seen.add(key)
            chain = self._chain_to_source(program, edge.callee, wall_callers)
            ctx = program.contexts[edge.path]
            yield Finding(
                code=self.code, severity=self.severity, path=edge.path,
                line=edge.lineno, col=edge.col,
                message=(f"call into {edge.callee}() transitively reaches "
                         f"a wall-clock read outside the DET001-scanned "
                         f"dirs ({' -> '.join(chain)}); sim behaviour must "
                         f"not depend on host speed — plumb sim time "
                         f"(Simulator.now) through instead"),
                snippet=ctx.line_text(edge.lineno))

    @staticmethod
    def _chain_to_source(program: Program, start: str,
                         wall_callers: Set[str]) -> List[str]:
        for target in sorted(wall_callers):
            chain = program.call_chain(start, target)
            if chain:
                return chain + ["<wall-clock>"]
        return [start, "<wall-clock>"]

    # -- value taint ---------------------------------------------------
    def _returns_wall(self, program: Program) -> Set[str]:
        """Functions whose return value derives from a wall-clock read."""
        tainted: Set[str] = set()
        resolutions = self._call_resolution_index(program)
        changed = True
        while changed:
            changed = False
            for qname in sorted(program.calls_by_fn):
                if qname in tainted:
                    continue
                info = program.functions.get(qname)
                if info is None or _is_telemetry_path(info.path):
                    continue
                for node in Program._iter_own_statements(info.node):
                    if not isinstance(node, ast.Return) or node.value is None:
                        continue
                    if self._expr_tainted(node.value, resolutions, tainted):
                        tainted.add(qname)
                        changed = True
                        break
        return tainted

    @staticmethod
    def _call_resolution_index(program: Program
                               ) -> Dict[int, List[Tuple[str, bool]]]:
        index: Dict[int, List[Tuple[str, bool]]] = {}
        for qname in program.calls_by_fn:
            for call, candidates in program.calls_by_fn[qname]:
                index[id(call)] = candidates
        return index

    def _expr_tainted(self, expr: ast.AST,
                      resolutions: Dict[int, List[Tuple[str, bool]]],
                      returns_wall: Set[str]) -> bool:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            for callee, external in resolutions.get(id(node), []):
                if external and callee in _WALL_CLOCK:
                    return True
                if not external and callee in returns_wall:
                    return True
        return False

    def _check_value_sinks(self, program: Program,
                           returns_wall: Set[str]) -> Iterator[Finding]:
        resolutions = self._call_resolution_index(program)
        for qname in sorted(program.calls_by_fn):
            info = program.functions.get(qname)
            if qname.endswith(".<module>"):
                mod = qname[:-len(".<module>")]
                ctx = program.modules.get(mod)
                scope: Optional[ast.AST] = ctx.tree if ctx else None
                path = ctx.path if ctx else None
            elif info is not None:
                ctx = program.contexts.get(info.path)
                scope, path = info.node, info.path
            else:
                continue
            if ctx is None or scope is None or _is_telemetry_path(path):
                continue
            for node in Program._iter_own_statements(scope):
                yield from self._check_stmt_sink(ctx, node, resolutions,
                                                 returns_wall)
                if isinstance(node, ast.Call):
                    yield from self._check_call_sink(ctx, node, resolutions,
                                                     returns_wall)

    def _time_named(self, target: ast.AST) -> Optional[str]:
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is None:
            return None
        if name.lstrip("_").startswith("wall"):
            return None  # honestly-labelled wall-clock annotations
        if any(name.endswith(s) for s in self._TIME_SUFFIXES):
            return name
        return None

    def _check_stmt_sink(self, ctx: ModuleContext, node: ast.AST,
                         resolutions, returns_wall) -> Iterator[Finding]:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target]
            value = node.value
            if value is None:
                return
            for target in targets:
                name = self._time_named(target)
                if name is None:
                    continue
                if self._expr_tainted(value, resolutions, returns_wall):
                    yield Finding(
                        code=self.code, severity=self.severity,
                        path=ctx.path, line=node.lineno,
                        col=node.col_offset,
                        message=(f"sim-time field {name!r} assigned a "
                                 f"wall-clock-derived value; sim timestamps "
                                 f"come from the engine clock, never the "
                                 f"host's"),
                        snippet=ctx.line_text(node.lineno))

    def _check_call_sink(self, ctx: ModuleContext, call: ast.Call,
                         resolutions, returns_wall) -> Iterator[Finding]:
        sink = None
        for callee, external in resolutions.get(id(call), []):
            if external:
                continue
            leaf = _leaf(callee)
            if any(marker in leaf for marker in self._SINK_CALL_MARKERS):
                sink = callee
        if sink is None:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if self._expr_tainted(arg, resolutions, returns_wall):
                yield Finding(
                    code=self.code, severity=self.severity,
                    path=ctx.path, line=call.lineno, col=call.col_offset,
                    message=(f"wall-clock-derived value flows into "
                             f"{sink}(); fingerprints and canonical "
                             f"documents must be byte-identical across "
                             f"runs"),
                    snippet=ctx.line_text(call.lineno))
                return


# ======================================================================
# FLOW002 — RNG provenance
# ======================================================================
@register
class RngProvenanceRule(ProgramRule):
    code = "FLOW002"
    name = "rng-provenance"
    severity = Severity.ERROR
    description = ("RNG stream not derived from the seeded root: orphan "
                   "random.Random construction, reseeding in a "
                   "worker-reachable path, or a literal-seeded SimRandom "
                   "fork")

    _ORPHAN_CLASSES = {"random.Random", "random.SystemRandom",
                       "numpy.random.RandomState"}
    _RESEEDERS = {"seed", "setstate"}

    def check_program(self, program: Program) -> Iterator[Finding]:
        worker_reach = program.reachable_from(worker_root_qnames(program))
        for qname in sorted(program.calls_by_fn):
            info = program.functions.get(qname)
            path = self._scope_path(program, qname)
            if path is None:
                continue
            ctx = program.contexts[path]
            for call, candidates in program.calls_by_fn[qname]:
                yield from self._check_orphan(ctx, path, call, candidates)
                yield from self._check_simrandom_fork(ctx, path, call,
                                                      candidates)
                if qname in worker_reach and info is not None:
                    yield from self._check_reseed(program, ctx, info, call)

    @staticmethod
    def _scope_path(program: Program, qname: str) -> Optional[str]:
        info = program.functions.get(qname)
        if info is not None:
            return info.path
        if qname.endswith(".<module>"):
            mod = program.modules.get(qname[:-len(".<module>")])
            return mod.path if mod is not None else None
        return None

    def _check_orphan(self, ctx: ModuleContext, path: str, call: ast.Call,
                      candidates) -> Iterator[Finding]:
        if path.endswith("sim/rng.py"):
            return
        for callee, external in candidates:
            if external and callee in self._ORPHAN_CLASSES:
                yield Finding(
                    code=self.code, severity=self.severity, path=path,
                    line=call.lineno, col=call.col_offset,
                    message=(f"{callee}() constructs an RNG stream with no "
                             f"provenance from the run seed; derive one "
                             f"from the seeded root via "
                             f"repro.sim.rng.SimRandom.child() instead"),
                    snippet=ctx.line_text(call.lineno))
                return

    def _check_simrandom_fork(self, ctx: ModuleContext, path: str,
                              call: ast.Call, candidates
                              ) -> Iterator[Finding]:
        if path.endswith("sim/rng.py"):
            return
        is_simrandom = any(
            not external and (".SimRandom.__init__" in callee
                              or callee.endswith(".SimRandom"))
            for callee, external in candidates)
        if not is_simrandom:
            return
        seed_expr: Optional[ast.AST] = call.args[0] if call.args else None
        for kw in call.keywords:
            if kw.arg == "seed":
                seed_expr = kw.value
        if seed_expr is None:
            yield Finding(
                code=self.code, severity=self.severity, path=path,
                line=call.lineno, col=call.col_offset,
                message=("SimRandom constructed without a seed; every "
                         "stream must descend from the run config's seed"),
                snippet=ctx.line_text(call.lineno))
        elif isinstance(seed_expr, ast.Constant):
            yield Finding(
                code=self.code, severity=self.severity, path=path,
                line=call.lineno, col=call.col_offset,
                message=(f"SimRandom seeded with the literal "
                         f"{seed_expr.value!r} forks a stream that ignores "
                         f"the run seed; pass the config seed through, or "
                         f"derive a child stream via .child(namespace)"),
                snippet=ctx.line_text(call.lineno))

    def _check_reseed(self, program: Program, ctx: ModuleContext,
                      info, call: ast.Call) -> Iterator[Finding]:
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in self._RESEEDERS):
            return
        receiver = func.value
        rname = (dotted_name(receiver) or "").lower()
        looks_rng = "rng" in rname or "random" in rname
        if not looks_rng:
            # Inferred receiver type: any program class named *Random*.
            for callee, external in self._candidates_for(program, info,
                                                         call):
                if not external and "random" in callee.lower():
                    looks_rng = True
        if not looks_rng:
            return
        yield Finding(
            code=self.code, severity=self.severity, path=info.path,
            line=call.lineno, col=call.col_offset,
            message=(f".{func.attr}() reseeds an RNG stream on a "
                     f"worker-reachable path; mid-campaign reseeding makes "
                     f"results depend on task scheduling — streams are "
                     f"seeded once at the root and advanced only by "
                     f"drawing"),
            snippet=ctx.line_text(call.lineno))

    @staticmethod
    def _candidates_for(program: Program, info, call: ast.Call):
        for node, candidates in program.calls_by_fn.get(info.qname, []):
            if node is call:
                return candidates
        return []


# ======================================================================
# RACE001 — spawn-safety race detection
# ======================================================================
@register
class SpawnRaceRule(ProgramRule):
    code = "RACE001"
    name = "worker-path-race"
    severity = Severity.ERROR
    description = ("module-level mutable state written on a path "
                   "reachable from a ParallelRunner task fn, or a "
                   "observation-session merge outside the declared merge "
                   "points")

    _MUTATORS = {"append", "add", "update", "setdefault", "pop", "clear",
                 "extend", "remove", "insert", "discard", "popitem",
                 "appendleft"}
    _MERGE_METHODS = {"merge", "merge_snapshot", "merge_map"}
    #: The declared single merge points (qname suffixes): the runner's
    #: task-order registry fold, the cached fan-out's coverage fold and
    #: the fuzzer's campaign-map fold. Everything else merging
    #: observability state is a second merge path waiting to
    #: double-count.
    _MERGE_POINTS = (
        "exec.runner.ParallelRunner.map",
        "exec.runner.ParallelRunner.map_cached",
        "core.fuzz.fuzzer.LuminaFuzzer.run",
    )
    _MERGE_RECEIVER_HINTS = ("observe", "coverage", "telemetry", "registry")
    _MERGE_RECEIVER_NAMES = {"obs", "cov", "session", "registry", "total",
                             "tel"}

    def check_program(self, program: Program) -> Iterator[Finding]:
        reach = program.reachable_from(worker_root_qnames(program))
        globals_by_module = self._module_globals(program)
        for qname in sorted(program.functions):
            info = program.functions[qname]
            ctx = program.contexts[info.path]
            if qname in reach:
                mutables, bindings = globals_by_module.get(
                    info.module, (set(), set()))
                yield from self._check_global_writes(ctx, info, mutables,
                                                     bindings)
            yield from self._check_merge_discipline(program, ctx, info)

    # -- module-global writes ------------------------------------------
    @staticmethod
    def _module_globals(program: Program
                        ) -> Dict[str, Tuple[Set[str], Set[str]]]:
        out: Dict[str, Tuple[Set[str], Set[str]]] = {}
        for mod_name in sorted(program.modules):
            ctx = program.modules[mod_name]
            mutables: Set[str] = set()
            bindings: Set[str] = set()
            for node in ast.iter_child_nodes(ctx.tree):
                targets: List[ast.AST] = []
                value: Optional[ast.AST] = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign):
                    targets, value = [node.target], node.value
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if target.id == "__all__":
                        continue
                    bindings.add(target.id)
                    if value is not None and _is_mutable_ctor(value):
                        mutables.add(target.id)
            out[mod_name] = (mutables, bindings)
        return out

    def _check_global_writes(self, ctx: ModuleContext, info,
                             mutables: Set[str],
                             bindings: Set[str]) -> Iterator[Finding]:
        # Pass 1: names that are locals of this function (params, plain
        # assignments, loop/with targets) shadow module globals; a
        # ``global`` declaration un-shadows.
        declared_global: Set[str] = set()
        local_names: Set[str] = set(info.params)
        body_nodes = list(Program._iter_own_statements(info.node))
        for node in body_nodes:
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name) and \
                                isinstance(leaf.ctx, ast.Store):
                            local_names.add(leaf.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                for leaf in ast.walk(node.target):
                    if isinstance(leaf, ast.Name):
                        local_names.add(leaf.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        local_names.add(item.optional_vars.id)
        local_names -= declared_global
        # Pass 2: judge the writes.
        for node in body_nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and \
                            target.id in declared_global and \
                            target.id in bindings:
                        yield self._global_finding(ctx, node, target.id,
                                                   "rebound")
                    elif isinstance(target, ast.Subscript):
                        yield from self._subscript_write(
                            ctx, node, target, mutables, local_names)
            elif isinstance(node, ast.AugAssign):
                target = node.target
                if isinstance(target, ast.Name) and \
                        target.id in declared_global and target.id in bindings:
                    yield self._global_finding(ctx, node, target.id,
                                               "rebound")
                elif isinstance(target, ast.Subscript):
                    yield from self._subscript_write(ctx, node, target,
                                                     mutables, local_names)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._MUTATORS and \
                    isinstance(node.func.value, ast.Name):
                name = node.func.value.id
                if name in mutables and name not in local_names:
                    yield self._global_finding(ctx, node, name, "mutated")

    def _subscript_write(self, ctx: ModuleContext, node: ast.AST,
                         target: ast.Subscript, mutables: Set[str],
                         local_names: Set[str]) -> Iterator[Finding]:
        base = target.value
        if isinstance(base, ast.Name) and base.id in mutables and \
                base.id not in local_names:
            yield self._global_finding(ctx, node, base.id, "mutated")

    def _global_finding(self, ctx: ModuleContext, node: ast.AST,
                        name: str, verb: str) -> Finding:
        return Finding(
            code=self.code, severity=self.severity, path=ctx.path,
            line=node.lineno, col=node.col_offset,
            message=(f"module-level state {name!r} {verb} on a "
                     f"worker-reachable path; each spawn worker gets its "
                     f"own copy, so results diverge between pool and "
                     f"in-process execution — pass state through the task "
                     f"payload or return value instead"),
            snippet=ctx.line_text(node.lineno))

    # -- merge discipline ----------------------------------------------
    def _check_merge_discipline(self, program: Program, ctx: ModuleContext,
                                info) -> Iterator[Finding]:
        parts = info.path.split("/")[:-1]
        if "coverage" in parts or "telemetry" in parts or \
                info.path.endswith("repro/observe.py"):
            return  # the merge implementations themselves
        if any(info.qname.endswith(point) for point in self._MERGE_POINTS):
            return
        for node in Program._iter_own_statements(info.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._MERGE_METHODS):
                continue
            if not self._receiver_is_observability(ctx, node.func.value):
                continue
            yield Finding(
                code=self.code, severity=self.severity, path=ctx.path,
                line=node.lineno, col=node.col_offset,
                message=(f".{node.func.attr}() outside the declared merge "
                         f"points ({', '.join(self._MERGE_POINTS)}); a "
                         f"second merge path double-counts or reorders "
                         f"observability state and breaks workers-parity"),
                snippet=ctx.line_text(node.lineno))

    def _receiver_is_observability(self, ctx: ModuleContext,
                                   receiver: ast.AST) -> bool:
        resolved = (ctx.resolve(receiver) or "").lower()
        if any(h in resolved for h in self._MERGE_RECEIVER_HINTS):
            return True
        if isinstance(receiver, ast.Name) and \
                receiver.id in self._MERGE_RECEIVER_NAMES:
            return True
        if isinstance(receiver, ast.Attribute):
            leaf = receiver.attr.lstrip("_").lower()
            return leaf in self._MERGE_RECEIVER_NAMES or \
                any(h in leaf for h in self._MERGE_RECEIVER_HINTS)
        return False


def _is_mutable_ctor(value: ast.AST) -> bool:
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
        return value.func.id in {"dict", "list", "set", "defaultdict",
                                 "deque", "OrderedDict", "Counter"}
    return False


# ======================================================================
# UNIT001 — dimension checking from the naming convention
# ======================================================================
#: suffix token → (dimension, scale relative to the dimension's base)
_UNITS: Dict[str, Tuple[str, int]] = {
    "ns": ("time", 1), "us": ("time", 10**3), "ms": ("time", 10**6),
    "s": ("time", 10**9),
    "bytes": ("size", 1), "kb": ("size", 2**10), "mb": ("size", 2**20),
    "gb": ("size", 2**30),
    "bps": ("bitrate", 1), "kbps": ("bitrate", 10**3),
    "mbps": ("bitrate", 10**6), "gbps": ("bitrate", 10**9),
    "pps": ("pktrate", 1),
}

_UNIT_PASSTHROUGH = {"min", "max", "abs", "sum", "round", "int", "float",
                     "sorted"}


def _unit_of_name(name: Optional[str]) -> Optional[str]:
    """``delay_ns`` → ``ns``; None when the name carries no unit."""
    if not name or "_" not in name:
        return None
    token = name.rsplit("_", 1)[-1].lower()
    return token if token in _UNITS else None


@register
class UnitConsistencyRule(ProgramRule):
    code = "UNIT001"
    name = "mixed-units"
    severity = Severity.WARNING
    description = ("arithmetic/comparison/assignment or call argument "
                   "mixing differently-united names (*_ns vs *_us, "
                   "*_bytes vs *_gbps); convert explicitly first")

    def check_program(self, program: Program) -> Iterator[Finding]:
        resolutions = {}
        for qname in program.calls_by_fn:
            for call, candidates in program.calls_by_fn[qname]:
                resolutions[id(call)] = candidates
        for path in sorted(program.contexts):
            ctx = program.contexts[path]
            yield from self._check_module(program, ctx, resolutions)

    # -- unit inference ------------------------------------------------
    def _expr_unit(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return _unit_of_name(node.id)
        if isinstance(node, ast.Attribute):
            return _unit_of_name(node.attr)
        if isinstance(node, ast.Subscript):
            return self._expr_unit(node.value)
        if isinstance(node, ast.UnaryOp):
            return self._expr_unit(node.operand)
        if isinstance(node, ast.IfExp):
            a, b = self._expr_unit(node.body), self._expr_unit(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.BoolOp):
            units = {self._expr_unit(v) for v in node.values
                     if not isinstance(v, ast.Constant)}
            units.discard(None)
            return units.pop() if len(units) == 1 else None
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                a = self._expr_unit(node.left)
                b = self._expr_unit(node.right)
                return a if a == b else None
            return None  # * and / convert between units
        if isinstance(node, ast.Call):
            func = node.func
            fname = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if fname in _UNIT_PASSTHROUGH:
                units = {self._expr_unit(a) for a in node.args
                         if not isinstance(a, ast.Constant)}
                units.discard(None)
                return units.pop() if len(units) == 1 else None
            return _unit_of_name(fname)
        return None

    @staticmethod
    def _describe(a: str, b: str) -> str:
        dim_a, dim_b = _UNITS[a][0], _UNITS[b][0]
        if dim_a != dim_b:
            return f"different dimensions ({dim_a} vs {dim_b})"
        return f"different scales ({a} vs {b})"

    def _mismatch(self, a: Optional[str], b: Optional[str]) -> bool:
        return a is not None and b is not None and a != b

    def _finding(self, ctx: ModuleContext, node: ast.AST, what: str,
                 a: str, b: str) -> Finding:
        return Finding(
            code=self.code, severity=self.severity, path=ctx.path,
            line=node.lineno, col=node.col_offset,
            message=(f"{what} mixes *_{a} with *_{b} — "
                     f"{self._describe(a, b)}; convert explicitly "
                     f"(e.g. x_{b} * <factor>) before combining"),
            snippet=ctx.line_text(node.lineno))

    # -- the checks ----------------------------------------------------
    def _check_module(self, program: Program, ctx: ModuleContext,
                      resolutions) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, (ast.Add, ast.Sub)):
                a = self._expr_unit(node.left)
                b = self._expr_unit(node.right)
                if self._mismatch(a, b):
                    yield self._finding(ctx, node, "arithmetic", a, b)
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                ops = node.ops
                for i, op in enumerate(ops):
                    if not isinstance(op, (ast.Lt, ast.LtE, ast.Gt,
                                           ast.GtE, ast.Eq, ast.NotEq)):
                        continue
                    a = self._expr_unit(operands[i])
                    b = self._expr_unit(operands[i + 1])
                    if self._mismatch(a, b):
                        yield self._finding(ctx, node, "comparison", a, b)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, (ast.Add, ast.Sub)):
                a = self._expr_unit(node.target)
                b = self._expr_unit(node.value)
                if self._mismatch(a, b):
                    yield self._finding(ctx, node, "arithmetic", a, b)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                if value is None:
                    continue
                b = self._expr_unit(value)
                if b is None:
                    continue
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    a = self._expr_unit(target) if not isinstance(
                        target, ast.Subscript) else None
                    if self._mismatch(a, b):
                        yield self._finding(ctx, node, "assignment", a, b)
            elif isinstance(node, ast.Call):
                yield from self._check_call_args(program, ctx, node,
                                                 resolutions)

    def _check_call_args(self, program: Program, ctx: ModuleContext,
                         call: ast.Call, resolutions) -> Iterator[Finding]:
        info = None
        for callee, external in resolutions.get(id(call), []):
            if not external and callee in program.functions:
                info = program.functions[callee]
                break
        if info is None:
            return
        for index, arg in enumerate(call.args):
            if index >= len(info.params):
                break
            param_unit = _unit_of_name(info.params[index])
            arg_unit = self._expr_unit(arg)
            if self._mismatch(param_unit, arg_unit):
                yield self._finding(
                    ctx, call,
                    f"argument {index + 1} of {info.qname}() "
                    f"(parameter {info.params[index]!r})",
                    param_unit, arg_unit)
        for kw in call.keywords:
            if kw.arg is None or kw.arg not in info.params:
                continue
            param_unit = _unit_of_name(kw.arg)
            arg_unit = self._expr_unit(kw.value)
            if self._mismatch(param_unit, arg_unit):
                yield self._finding(
                    ctx, call,
                    f"keyword {kw.arg!r} of {info.qname}()",
                    param_unit, arg_unit)
