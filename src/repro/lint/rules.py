"""The rule registry and the shipped determinism/spawn-safety rules.

Each rule maps one *invariant* of the testbed onto a syntactic hazard:

========  ==========================================================
DET001    No wall-clock reads inside simulation code. Sim time is the
          engine's integer nanosecond clock; a ``time.time()`` in
          ``sim/``, ``switch/``, ``rdma/`` or ``core/`` makes behaviour
          depend on host speed. (Telemetry's wall-clock *deltas* are
          sanctioned via a scoped allowlist — they only ever annotate,
          never schedule.)
DET002    No global-RNG use outside ``sim/rng.py``. Every stochastic
          element must draw from a seed-derived :class:`SimRandom`
          stream, or two runs of the same config diverge.
DET003    No ordering-sensitive iteration over sets. With string hash
          randomisation, ``for x in some_set`` enumerates in a
          different order every interpreter run — fatal when the loop
          feeds event scheduling or report assembly. Wrap in
          ``sorted(...)`` or prove order-insensitivity (a set
          comprehension target is exempt).
DET004    No ordering by object identity: ``sorted(..., key=id)`` (or
          ``hash``) changes between runs because addresses do.
EXEC001   Only module-level callables cross the process-pool boundary.
          Spawned workers pickle functions *by reference*; lambdas,
          closures and bound methods either fail to pickle or drag
          unpicklable state along.
TEL001    Telemetry handles are constructed once (module scope or
          ``__init__``), not per loop iteration — registry lookups in a
          hot loop are exactly the overhead the no-op-twin design
          exists to avoid.
API001    Engine-owned state (``Simulator._now``, ``_queue``, ...) is
          mutated only by the engine itself; outside code goes through
          ``schedule``/``cancel``/``reset`` or a registered process
          callback, or event accounting breaks silently.
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from .context import ModuleContext, dotted_name
from .findings import Finding, Severity

__all__ = ["Rule", "ProgramRule", "RULES", "register", "all_rules",
           "get_rule", "run_rules", "in_det001_scope"]


class Rule:
    """Base class: subclass, set the class attrs, implement ``check``."""

    code: str = ""
    name: str = ""
    severity: Severity = Severity.WARNING
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError

    # Helper: build a finding at a node, already severity/code-stamped.
    def finding(self, ctx: ModuleContext, node: ast.AST,
                message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(code=self.code, severity=self.severity,
                       path=ctx.path, line=line, col=col,
                       message=message, snippet=ctx.line_text(line))


class ProgramRule(Rule):
    """A whole-program rule: runs once over the cross-module call graph.

    Program rules live in the same registry (same codes, baseline,
    suppressions, ``--select``) but are skipped by the per-module
    :func:`run_rules` pass; :func:`repro.lint.dataflow.run_program_rules`
    drives them with a :class:`~repro.lint.callgraph.Program` instead.
    """

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_program(self, program) -> Iterator[Finding]:
        raise NotImplementedError


RULES: Dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and add to the registry."""
    rule = cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def all_rules() -> List[Rule]:
    return [RULES[code] for code in sorted(RULES)]


def get_rule(code: str) -> Rule:
    return RULES[code.upper()]


def run_rules(ctx: ModuleContext,
              select: Optional[Set[str]] = None,
              stats=None) -> List[Finding]:
    """Run every (selected) rule over one module; suppressions applied.

    ``stats`` (a :class:`~repro.lint.findings.FileStats`) receives the
    count of findings removed by inline ``# repro-lint: ignore``
    comments.
    """
    findings: List[Finding] = []
    if ctx.skip_file:
        return findings
    for rule in all_rules():
        if select and rule.code not in select:
            continue
        if isinstance(rule, ProgramRule):
            continue  # driven by dataflow.run_program_rules instead
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding.code, finding.line):
                if stats is not None:
                    stats.suppressed += 1
                continue
            findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def _in_dir(path: str, *dirs: str) -> bool:
    parts = path.split("/")
    return any(d in parts[:-1] for d in dirs)


def _path_endswith(path: str, suffix: str) -> bool:
    return path == suffix or path.endswith("/" + suffix)


# ======================================================================
# DET001 — wall-clock reads inside simulation code
# ======================================================================
_WALL_CLOCK = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: Sanctioned wall-clock sites: telemetry measures real execution cost
#: (wall deltas annotate the trace, they never feed back into the sim).
#: Keyed by path suffix; value is the set of allowed callees there.
_DET001_SCOPED_ALLOW = {
    "sim/engine.py": {"time.perf_counter_ns"},  # probe callback timing
    # process supervision: deadlines bound child processes, never a sim
    "exec/procs.py": {"time.monotonic"},
}

#: Directories whose code runs (or feeds) the deterministic simulation.
_DET_SCOPE_DIRS = ("sim", "switch", "rdma", "core", "faults", "dumper",
                   "store", "coverage", "exec")
#: Single files in scope that live outside those directories.
_DET_SCOPE_FILES = ("api.py", "observe.py")


def in_det001_scope(path: str) -> bool:
    """True if *path* is inside the determinism-checked part of the tree.

    Shared by the per-module DET001/DET002 pass and the transitive
    FLOW001 analysis so "simulation code" means the same thing in both.
    """
    if _in_dir(path, *_DET_SCOPE_DIRS):
        return True
    return any(_path_endswith(path, f) for f in _DET_SCOPE_FILES)


@register
class WallClockRule(Rule):
    code = "DET001"
    name = "wall-clock-in-sim"
    severity = Severity.ERROR
    description = ("wall-clock call inside simulation code "
                   "(sim/, switch/, rdma/, core/, faults/, dumper/, "
                   "store/, coverage/, exec/, api.py, observe.py)")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not in_det001_scope(ctx.path):
            return
        allowed: Set[str] = set()
        for suffix, callees in _DET001_SCOPED_ALLOW.items():
            if _path_endswith(ctx.path, suffix):
                allowed |= callees
        for call in ctx.calls():
            callee = ctx.resolve_call(call)
            if callee in _WALL_CLOCK and callee not in allowed:
                yield self.finding(
                    ctx, call,
                    f"wall-clock call {callee}() in simulation code; "
                    f"use the engine clock (Simulator.now) — behaviour "
                    f"must not depend on host speed")


# ======================================================================
# DET002 — unseeded global RNG
# ======================================================================
#: ``random.Random`` / ``SystemRandom`` construct *instances* (the
#: former is how SimRandom seeds itself) — everything else on the
#: module mutates or reads the hidden global stream.
_RANDOM_CLASSES = {"Random", "SystemRandom"}


@register
class GlobalRngRule(Rule):
    code = "DET002"
    name = "unseeded-global-rng"
    severity = Severity.ERROR
    description = ("global random.* / numpy.random.* use outside "
                   "sim/rng.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _path_endswith(ctx.path, "sim/rng.py"):
            return
        for call in ctx.calls():
            callee = ctx.resolve_call(call)
            if callee is None:
                continue
            hazard = None
            if callee.startswith("random."):
                attr = callee.split(".", 1)[1]
                if "." not in attr and attr not in _RANDOM_CLASSES:
                    hazard = callee
            elif callee.startswith("numpy.random."):
                attr = callee.rsplit(".", 1)[-1]
                # default_rng(seed) is the sanctioned construction; the
                # zero-arg form seeds from the OS and is flagged too.
                if attr != "default_rng" or not (call.args or call.keywords):
                    hazard = callee
            if hazard is None:
                continue
            yield self.finding(
                ctx, call,
                f"{hazard}() draws from the process-global RNG; derive a "
                f"stream from repro.sim.rng.SimRandom (seeded per run) "
                f"instead")


# ======================================================================
# DET003 — ordering-sensitive iteration over sets
# ======================================================================
class _SetScopeWalker(ast.NodeVisitor):
    """Collects set-typed names within one function/module scope.

    Does *not* descend into nested function scopes (they get their own
    walker) so a nested def's locals never leak outward.
    """

    def __init__(self, ctx: ModuleContext, scope: ast.AST):
        self.ctx = ctx
        self.scope = scope
        self.set_names: Set[str] = set()
        # Two passes: first learn names, then judge iterations — a set
        # assigned after the loop in source order is still a set.
        for node in self._iter_scope(scope):
            self._learn(node)

    def _iter_scope(self, scope: ast.AST) -> Iterator[ast.AST]:
        body = scope.body if hasattr(scope, "body") else []
        stack = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue  # new scope
            stack.extend(ast.iter_child_nodes(node))

    def _learn(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, ast.Assign):
            if ctx.expr_is_set(node.value, self.set_names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.set_names.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and (
                    ctx.annotation_is_set(node.annotation)
                    or (node.value is not None
                        and ctx.expr_is_set(node.value, self.set_names))):
                self.set_names.add(node.target.id)

    def learn_params(self) -> None:
        scope = self.scope
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        args = scope.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            if self.ctx.annotation_is_set(arg.annotation):
                self.set_names.add(arg.arg)


@register
class SetIterationRule(Rule):
    code = "DET003"
    name = "unordered-set-iteration"
    severity = Severity.ERROR
    description = ("iteration over a set in an ordering-sensitive "
                   "position without sorted()")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for scope, _parent in ctx.scopes():
            walker = _SetScopeWalker(ctx, scope)
            walker.learn_params()
            for node in walker._iter_scope(scope):
                yield from self._check_node(ctx, node, walker.set_names)

    def _check_node(self, ctx: ModuleContext, node: ast.AST,
                    set_names: Set[str]) -> Iterator[Finding]:
        sites: List[ast.AST] = []
        if isinstance(node, ast.For):
            sites.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.DictComp,
                               ast.GeneratorExp)):
            # SetComp targets are order-free by construction.
            for gen in node.generators:
                sites.append(gen.iter)
        elif isinstance(node, ast.Call):
            callee = ctx.resolve_call(node)
            if callee in ("list", "tuple", "enumerate", "reversed") \
                    and node.args:
                sites.append(node.args[0])
            elif isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "join" and node.args:
                sites.append(node.args[0])
        for site in sites:
            target = site
            if not ctx.expr_is_set(target, set_names):
                continue
            yield self.finding(
                ctx, target,
                "iterating a set here is ordering-sensitive and set "
                "order varies across interpreter runs (hash "
                "randomisation); wrap the iterable in sorted(...)")


# ======================================================================
# DET004 — ordering by object identity
# ======================================================================
@register
class IdentityOrderRule(Rule):
    code = "DET004"
    name = "identity-ordering"
    severity = Severity.ERROR
    description = "sorted()/sort() keyed on id() or hash()"

    _SORTERS = {"sorted", "min", "max"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for call in ctx.calls():
            callee = ctx.resolve_call(call)
            is_sorter = callee in self._SORTERS or (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "sort")
            if not is_sorter:
                continue
            for kw in call.keywords:
                if kw.arg != "key":
                    continue
                if self._key_uses_identity(kw.value):
                    yield self.finding(
                        ctx, call,
                        "ordering by id()/hash() depends on object "
                        "addresses, which differ every run; key on a "
                        "stable field (name, seq, PSN) instead")
                    break

    @staticmethod
    def _key_uses_identity(key: ast.AST) -> bool:
        if isinstance(key, ast.Name) and key.id in ("id", "hash"):
            return True
        for node in ast.walk(key):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in ("id", "hash"):
                return True
        return False


# ======================================================================
# EXEC001 — spawn-unsafe callables crossing the pool boundary
# ======================================================================
@register
class SpawnSafetyRule(Rule):
    code = "EXEC001"
    name = "spawn-unsafe-callable"
    severity = Severity.ERROR
    description = ("lambda/closure/bound method handed to "
                   "ParallelRunner or a process pool")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        nested_defs = self._nested_function_names(ctx)
        for call in ctx.calls():
            candidate = self._pool_callable_arg(ctx, call)
            if candidate is None:
                continue
            problem = self._classify(ctx, candidate, nested_defs)
            if problem is None:
                continue
            # Anchor at the call: that's where the suppression comment
            # naturally lives and where the pool boundary is crossed.
            yield self.finding(
                ctx, call,
                f"{problem} cannot be pickled by reference into a "
                f"spawn-ed worker; pass a module-level function (see "
                f"repro.exec.tasks)")

    @staticmethod
    def _nested_function_names(ctx: ModuleContext) -> Set[str]:
        nested: Set[str] = set()
        for outer in ast.walk(ctx.tree):
            if not isinstance(outer, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(outer):
                if inner is outer:
                    continue
                if isinstance(inner, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    nested.add(inner.name)
        return nested

    def _pool_callable_arg(self, ctx: ModuleContext,
                           call: ast.Call) -> Optional[ast.AST]:
        """The expression being shipped to a pool, if this call ships one."""
        callee = ctx.resolve_call(call)
        if callee is not None and callee.endswith("ParallelRunner"):
            for kw in call.keywords:
                if kw.arg == "task_fn":
                    return kw.value
            return call.args[0] if call.args else None
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in ("submit", "map") and call.args:
            receiver = call.func.value
            rname = (dotted_name(receiver) or "").rsplit(".", 1)[-1]
            if rname.lower() in ("pool", "executor", "runner", "ppe") or \
                    "pool" in rname.lower() or "executor" in rname.lower():
                return call.args[0]
        return None

    def _classify(self, ctx: ModuleContext, node: ast.AST,
                  nested_defs: Set[str]) -> Optional[str]:
        if isinstance(node, ast.Lambda):
            return "a lambda"
        if isinstance(node, ast.Name):
            if node.id in nested_defs:
                return f"nested function {node.id!r} (a closure)"
            return None  # module-level def or imported name
        if isinstance(node, ast.Attribute):
            if ctx.head_is_imported_module(node):
                return None  # module.function — pickles by reference
            return f"bound method {dotted_name(node) or node.attr!r}"
        if isinstance(node, ast.Call):
            callee = ctx.resolve_call(node)
            if callee is not None and callee.endswith("partial"):
                # functools.partial pickles iff its inner fn does;
                # check the first argument.
                if node.args:
                    return self._classify(ctx, node.args[0], nested_defs)
            return None
        return None


# ======================================================================
# TEL001 — observation handle construction in loop bodies
# ======================================================================
_SESSION_NAME_HINTS = {"obs", "observe", "tel", "telemetry", "session",
                       "sess", "registry", "cov", "coverage"}
#: Dotted-name fragments that mark the observation session's modules.
_SESSION_MODULE_HINTS = ("observe", "telemetry", "coverage")
_HANDLE_FACTORIES = {"counter", "gauge", "histogram", "domain", "recorder"}


@register
class TelemetryHandleRule(Rule):
    code = "TEL001"
    name = "telemetry-handle-in-loop"
    severity = Severity.WARNING
    description = ("telemetry counter()/gauge()/histogram() or coverage "
                   "domain()/recorder() lookup inside a loop body")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        session_locals = self._session_locals(ctx)
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if node is loop:
                    continue
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _HANDLE_FACTORIES):
                    continue
                if not self._receiver_is_session(ctx, node.func.value,
                                                 session_locals):
                    continue
                yield self.finding(
                    ctx, node,
                    f"telemetry handle .{node.func.attr}(...) constructed "
                    f"inside a loop; registry lookups cost a dict probe "
                    f"per iteration — create the handle once at "
                    f"module/__init__ scope and reuse it")

    @staticmethod
    def _session_locals(ctx: ModuleContext) -> Set[str]:
        """Names assigned from the session's current()/active()/
        enable()."""
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign) or \
                    not isinstance(node.value, ast.Call):
                continue
            callee = ctx.resolve_call(node.value)
            if callee is None:
                continue
            if callee.endswith((".current", ".active", ".enable")) and \
                    any(h in callee for h in _SESSION_MODULE_HINTS):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _receiver_is_session(ctx: ModuleContext, receiver: ast.AST,
                             session_locals: Set[str]) -> bool:
        resolved = ctx.resolve(receiver)
        if resolved is not None and \
                any(h in resolved for h in _SESSION_MODULE_HINTS):
            return True
        if isinstance(receiver, ast.Name):
            return (receiver.id in session_locals
                    or receiver.id in _SESSION_NAME_HINTS)
        if isinstance(receiver, ast.Attribute):
            return receiver.attr in _SESSION_NAME_HINTS
        return False


# ======================================================================
# API001 — engine-owned state mutated from outside sim/
# ======================================================================
#: Simulator internals: event-count accounting and the clock. ``probe``
#: is deliberately absent — it is the sanctioned extension point.
_ENGINE_PRIVATE = {"_now", "_queue", "_seq", "_live", "_cancelled",
                   "_processed", "_running", "_size", "_times", "_buckets",
                   "_active", "_active_pos", "_active_time"}
_ENGINE_PRIVATE_METHODS = {"_note_cancel", "_compact"}
_ENGINE_NAME_HINTS = {"sim", "_sim", "simulator", "engine"}


@register
class EngineStateRule(Rule):
    code = "API001"
    name = "engine-state-mutation"
    severity = Severity.ERROR
    description = ("mutation of Simulator-owned state from outside "
                   "repro/sim/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _in_dir(ctx.path, "sim"):
            return
        for node in ast.walk(ctx.tree):
            target: Optional[ast.Attribute] = None
            verb = "written"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for t in targets:
                    if isinstance(t, ast.Attribute) and \
                            t.attr in _ENGINE_PRIVATE:
                        target = t
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in _ENGINE_PRIVATE_METHODS and \
                        self._receiver_is_engine(node.func.value):
                    yield self.finding(
                        ctx, node,
                        f"calling Simulator.{attr}() from outside the "
                        f"engine corrupts its event accounting; use the "
                        f"public schedule/cancel/reset API")
                    continue
                # e.g. sim._queue.append(...)
                recv = node.func.value
                if isinstance(recv, ast.Attribute) and \
                        recv.attr in _ENGINE_PRIVATE and \
                        self._receiver_is_engine(recv.value):
                    target = recv
                    verb = "mutated"
            if target is None:
                continue
            if not self._receiver_is_engine(target.value):
                continue
            yield self.finding(
                ctx, target,
                f"engine-owned attribute {target.attr!r} {verb} from "
                f"outside repro/sim; only the engine (or a registered "
                f"process callback via the public API) may touch it")

    @staticmethod
    def _receiver_is_engine(node: ast.AST) -> bool:
        name = dotted_name(node)
        if name is None:
            return False
        leaf = name.rsplit(".", 1)[-1]
        return leaf in _ENGINE_NAME_HINTS


# ======================================================================
# PERF001 — interpreted struct format strings on the packet hot path
# ======================================================================
#: struct-module functions that re-parse their format string per call.
_STRUCT_FMT_FUNCS = {"struct.pack", "struct.unpack", "struct.pack_into",
                     "struct.unpack_from", "struct.iter_unpack",
                     "struct.calcsize"}


@register
class StructLiteralRule(Rule):
    code = "PERF001"
    name = "literal-struct-format"
    severity = Severity.WARNING
    description = ("literal-format struct.pack/unpack in packet-path "
                   "code (net/, switch/, rdma/, dumper/); precompile a "
                   "module-level struct.Struct")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _in_dir(ctx.path, "net", "switch", "rdma", "dumper"):
            return
        for call in ctx.calls():
            callee = ctx.resolve_call(call)
            if callee not in _STRUCT_FMT_FUNCS:
                continue
            if not call.args:
                continue
            fmt = call.args[0]
            if not (isinstance(fmt, ast.Constant)
                    and isinstance(fmt.value, str)):
                # A precompiled Struct's bound method or a dynamic
                # format built elsewhere — not the per-call parse
                # this rule is about.
                continue
            short = callee.rsplit(".", 1)[-1]
            yield self.finding(
                ctx, call,
                f"struct.{short}({fmt.value!r}, ...) re-parses its "
                f"format string on every call; packet-path code packs "
                f"millions of headers per campaign — compile a "
                f"module-level struct.Struct({fmt.value!r}) once and "
                f"call its bound {short}()")
