"""Whole-program model: an alias-resolving cross-module call graph.

The per-module rules (DET001…PERF001) see one file at a time, which is
exactly the blind spot a determinism bug loves: a wall-clock read two
calls below an engine callback, in a helper module outside the scanned
directories, sails through unseen. :class:`Program` closes that gap —
it parses every module under the lint root into the existing
:class:`~repro.lint.context.ModuleContext`, indexes every function,
method and class under its fully-qualified dotted name, and resolves
every call site to graph edges:

* plain names resolve through the module's import aliases and
  module-level defs (``from ..core.orchestrator import run_test`` makes
  a bare ``run_test()`` an edge to ``repro.core.orchestrator.run_test``),
* ``self.m()`` resolves inside the enclosing class, then its resolvable
  bases,
* ``obj.m()`` resolves through a small receiver-type inference pass —
  constructor assignments (``rng = SimRandom(seed)``), parameter
  annotations, and ``self.attr = Class(...)`` attribute types collected
  per class — and falls back to method-name matching when at most
  :data:`_MAX_NAME_FALLBACK` classes define ``m`` (an over-approximation
  is fine for hazard reachability; an explosion of false edges is not),
* unresolvable callees are kept as *external* edges (``time.time``,
  ``random.Random``) — the taint analyses' sources.

Everything is stdlib ``ast``; building the graph plus all four
dataflow analyses over ``src/repro`` stays well under the 10-second CI
budget (see ``tests/test_lint_dataflow.py``).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .context import ModuleContext, dotted_name

__all__ = ["Program", "FunctionInfo", "ClassInfo", "CallEdge",
           "module_name_for_path"]

#: An ``obj.m()`` with an unknown receiver type links to every class
#: defining ``m`` — but only when at most this many do, so ubiquitous
#: names (``run``, ``get``) don't glue the whole graph together.
_MAX_NAME_FALLBACK = 4


def module_name_for_path(path: str) -> str:
    """``repro/sim/engine.py`` → ``repro.sim.engine`` (posix paths)."""
    parts = path.split("/")
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function or method, addressable by its dotted qname."""

    qname: str                 #: e.g. ``repro.sim.rng.SimRandom.child``
    module: str                #: dotted module, e.g. ``repro.sim.rng``
    path: str                  #: module path relative to the lint root
    name: str                  #: bare name
    node: ast.AST              #: the FunctionDef / AsyncFunctionDef
    lineno: int = 0
    class_qname: Optional[str] = None  #: owning class, or None
    params: List[str] = field(default_factory=list)  #: w/o self/cls


@dataclass
class ClassInfo:
    """One class: its methods, bases, and inferred attribute types."""

    qname: str
    module: str
    path: str
    name: str
    methods: Dict[str, str] = field(default_factory=dict)  #: name → fn qname
    bases: List[str] = field(default_factory=list)         #: resolved qnames
    attr_types: Dict[str, str] = field(default_factory=dict)  #: self.x → class
    node: Optional[ast.AST] = None                         #: the ClassDef


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    caller: str        #: qname of the enclosing function (or ``<module>``)
    callee: str        #: resolved qname, or external dotted name
    path: str          #: caller's module path
    lineno: int
    col: int
    external: bool     #: callee is not defined inside the program

    def to_dict(self) -> Dict[str, object]:
        return {"caller": self.caller, "callee": self.callee,
                "path": self.path, "line": self.lineno,
                "external": self.external}


class Program:
    """All modules under one lint root, plus their call graph."""

    def __init__(self, contexts: Dict[str, ModuleContext]):
        #: path → ModuleContext, as produced by the CLI's tree walk
        self.contexts = contexts
        #: dotted module name → ModuleContext
        self.modules: Dict[str, ModuleContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare method name → sorted class qnames defining it
        self._methods_by_name: Dict[str, List[str]] = {}
        self._edges_out: Dict[str, List[CallEdge]] = {}
        self._edges_in: Dict[str, List[CallEdge]] = {}
        #: caller qname → [(ast.Call, [(callee, external)])] — the raw
        #: call sites with their resolution candidates, for analyses
        #: that need the AST node (taint sources, argument checks).
        self.calls_by_fn: Dict[str, List[Tuple[ast.Call,
                                               List[Tuple[str, bool]]]]] = {}
        for path in sorted(contexts):
            self.modules[module_name_for_path(path)] = contexts[path]
        #: top-level package names of the program's modules
        self._packages = {name.split(".")[0] for name in self.modules}
        self._collect_definitions()
        self._infer_attr_types()
        self._build_edges()

    @classmethod
    def from_sources(cls, files: Dict[str, str]) -> "Program":
        """Build a program from ``{path: source}`` (tests, scratch trees)."""
        contexts = {}
        for path in sorted(files):
            pkg = module_name_for_path(path)
            pkg = pkg.rsplit(".", 1)[0] if "." in pkg else ""
            if path.endswith("__init__.py"):
                pkg = module_name_for_path(path)
            contexts[path] = ModuleContext(path, files[path],
                                           module_package=pkg)
        return cls(contexts)

    # ------------------------------------------------------------------
    # Definition collection
    # ------------------------------------------------------------------
    @staticmethod
    def _params_of(node) -> List[str]:
        args = node.args
        names = [a.arg for a in (list(args.posonlyargs) + list(args.args))]
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        return names + [a.arg for a in args.kwonlyargs]

    def _collect_definitions(self) -> None:
        for mod_name in sorted(self.modules):
            ctx = self.modules[mod_name]
            self._collect_in_scope(ctx, mod_name, ctx.tree, mod_name, None)

    def _collect_in_scope(self, ctx: ModuleContext, mod_name: str,
                          scope: ast.AST, prefix: str,
                          class_qname: Optional[str]) -> None:
        for node in ast.iter_child_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{prefix}.{node.name}"
                if qname not in self.functions:
                    self.functions[qname] = FunctionInfo(
                        qname=qname, module=mod_name, path=ctx.path,
                        name=node.name, node=node, lineno=node.lineno,
                        class_qname=class_qname,
                        params=self._params_of(node))
                if class_qname is not None:
                    cls_info = self.classes[class_qname]
                    cls_info.methods.setdefault(node.name, qname)
                # Nested defs: collected under the outer function so
                # their bodies contribute edges; containment edges are
                # added during the edge pass.
                self._collect_in_scope(ctx, mod_name, node, qname, None)
            elif isinstance(node, ast.ClassDef):
                qname = f"{prefix}.{node.name}"
                if qname not in self.classes:
                    bases = []
                    for base in node.bases:
                        resolved = ctx.resolve(base)
                        if resolved is not None:
                            bases.append(resolved)
                    self.classes[qname] = ClassInfo(
                        qname=qname, module=mod_name, path=ctx.path,
                        name=node.name, bases=bases, node=node)
                self._collect_in_scope(ctx, mod_name, node, qname, qname)

        if scope is ctx.tree:
            return

    def _index_methods(self) -> None:
        self._methods_by_name.clear()
        for cls_qname in sorted(self.classes):
            for method in self.classes[cls_qname].methods:
                self._methods_by_name.setdefault(method, []).append(cls_qname)

    # ------------------------------------------------------------------
    # Receiver-type inference
    # ------------------------------------------------------------------
    def _class_for_name(self, ctx: ModuleContext,
                        dotted: Optional[str]) -> Optional[str]:
        """Resolve a dotted constructor/annotation name to a class qname."""
        if dotted is None:
            return None
        if dotted in self.classes:
            return dotted
        # ``SimRandom`` inside its own module: qualify with the module.
        mod = module_name_for_path(ctx.path)
        if f"{mod}.{dotted}" in self.classes:
            return f"{mod}.{dotted}"
        # Re-exports: ``repro.exec.ParallelRunner`` names the class
        # defined in ``repro.exec.runner`` — match on the trailing
        # class name when unique.
        leaf = dotted.rsplit(".", 1)[-1]
        matches = [q for q in self._methods_owner_candidates(leaf)]
        if len(matches) == 1:
            return matches[0]
        return None

    def _methods_owner_candidates(self, class_name: str) -> List[str]:
        return sorted(q for q in self.classes
                      if q.rsplit(".", 1)[-1] == class_name)

    def _annotation_class(self, ctx: ModuleContext,
                          annotation: Optional[ast.AST]) -> Optional[str]:
        if annotation is None:
            return None
        node = annotation
        if isinstance(node, ast.Subscript):  # Optional[X] / List[X]
            head = dotted_name(node.value) or ""
            if head.rsplit(".", 1)[-1] == "Optional":
                node = node.slice
            else:
                return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        return self._class_for_name(ctx, ctx.resolve(node))

    def _imported_class(self, ctx: ModuleContext,
                        annotation: Optional[ast.AST]) -> Optional[str]:
        """The class an annotation imports from outside the program."""
        dotted = ctx.aliases.get(annotation.id) \
            if isinstance(annotation, ast.Name) else None
        outside = dotted and dotted.split(".")[0] not in self._packages
        return dotted if outside else None

    def _infer_attr_types(self) -> None:
        """Attribute types per class, from three sources.

        Class-body annotated fields (dataclass style: ``sim: Simulator``),
        ``self.x = Class(...)`` constructor assignments anywhere in a
        method, and ``self.x = fn(...)`` where ``fn`` carries a class
        return annotation. Together these let a chained receiver like
        ``self.testbed.sim.run()`` resolve precisely instead of falling
        back to method-name matching.
        """
        self._index_methods()
        self._return_types: Dict[str, str] = {}
        for fn_qname in sorted(self.functions):
            fn = self.functions[fn_qname]
            returns = getattr(fn.node, "returns", None)
            typed = self._annotation_class(self.contexts[fn.path], returns)
            if typed is not None:
                self._return_types[fn_qname] = typed
        for cls_qname in sorted(self.classes):
            info = self.classes[cls_qname]
            ctx = self.contexts[info.path]
            if info.node is not None:
                for node in ast.iter_child_nodes(info.node):
                    if isinstance(node, ast.AnnAssign) and \
                            isinstance(node.target, ast.Name):
                        typed = self._annotation_class(ctx, node.annotation)
                        if typed is not None:
                            info.attr_types.setdefault(node.target.id, typed)
            for method_qname in sorted(info.methods.values()):
                fn = self.functions.get(method_qname)
                if fn is None:
                    continue
                for node in ast.walk(fn.node):
                    if not (isinstance(node, (ast.Assign, ast.AnnAssign))):
                        continue
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    value = node.value
                    if not isinstance(value, ast.Call):
                        continue
                    typed = self._call_result_class(ctx, value)
                    if typed is None:
                        continue
                    for t in targets:
                        if isinstance(t, ast.Attribute) and \
                                isinstance(t.value, ast.Name) and \
                                t.value.id == "self":
                            info.attr_types.setdefault(t.attr, typed)

    def _call_result_class(self, ctx: ModuleContext,
                           call: ast.Call) -> Optional[str]:
        """Class qname a call evaluates to: constructor or annotated fn."""
        dotted = ctx.resolve(call.func)
        typed = self._class_for_name(ctx, dotted)
        if typed is not None:
            return typed
        if dotted is None or "()" in dotted:
            return None
        if dotted in self._return_types:
            return self._return_types[dotted]
        mod = module_name_for_path(ctx.path)
        return self._return_types.get(f"{mod}.{dotted}")

    def _infer_expr_type(self, ctx: ModuleContext, expr: ast.AST,
                         local_types: Dict[str, str]) -> Optional[str]:
        """Class qname an expression evaluates to, following attribute
        chains through inferred per-class attribute types."""
        if isinstance(expr, ast.Name):
            return local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._infer_expr_type(ctx, expr.value, local_types)
            if base is not None and base in self.classes:
                attr_type = self.classes[base].attr_types.get(expr.attr)
                if attr_type is not None:
                    return attr_type
                prop = self._method_in_class(base, expr.attr)
                if prop is not None:
                    return self._return_types.get(prop)
            return None
        if isinstance(expr, ast.Call):
            return self._call_result_class(ctx, expr)
        return None

    def _local_types(self, ctx: ModuleContext, fn_node: ast.AST,
                     class_qname: Optional[str]) -> Dict[str, str]:
        """name → class qname for one function body (or module scope)."""
        types: Dict[str, str] = {}
        if class_qname is not None:
            types["self"] = class_qname
        if isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn_node.args
            for arg in (list(args.posonlyargs) + list(args.args)
                        + list(args.kwonlyargs)):
                typed = self._annotation_class(ctx, arg.annotation) or \
                    self._imported_class(ctx, arg.annotation)
                if typed is not None:
                    types[arg.arg] = typed
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign):
                typed = self._infer_expr_type(ctx, node.value, types)
                if typed is None:
                    continue
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        types.setdefault(t.id, typed)
            elif isinstance(node, ast.AnnAssign) and \
                    isinstance(node.target, ast.Name):
                typed = self._annotation_class(ctx, node.annotation) or \
                    self._imported_class(ctx, node.annotation)
                if typed is not None:
                    types.setdefault(node.target.id, typed)
        return types

    # ------------------------------------------------------------------
    # Edge construction
    # ------------------------------------------------------------------
    def _method_in_class(self, cls_qname: str, method: str,
                         _seen: Optional[Set[str]] = None) -> Optional[str]:
        """Resolve a method in a class or its resolvable bases (MRO-ish)."""
        seen = _seen or set()
        if cls_qname in seen or cls_qname not in self.classes:
            return None
        seen.add(cls_qname)
        info = self.classes[cls_qname]
        if method in info.methods:
            return info.methods[method]
        for base in info.bases:
            base_cls = base if base in self.classes else \
                self._class_for_name(self.contexts[info.path], base)
            if base_cls is None:
                continue
            found = self._method_in_class(base_cls, method, seen)
            if found is not None:
                return found
        return None

    def _resolve_callee(self, ctx: ModuleContext, mod_name: str,
                        call: ast.Call,
                        local_types: Dict[str, str]
                        ) -> List[Tuple[str, bool]]:
        """(qname, external) candidates for one call's callee."""
        func = call.func
        # Bare name: local def, aliased import, or builtin/external.
        if isinstance(func, ast.Name):
            name = func.id
            if f"{mod_name}.{name}" in self.functions:
                return [(f"{mod_name}.{name}", False)]
            if f"{mod_name}.{name}" in self.classes:
                init = self._method_in_class(f"{mod_name}.{name}", "__init__")
                return [(init, False)] if init else \
                    [(f"{mod_name}.{name}", False)]
            target = ctx.aliases.get(name)
            if target is not None:
                if target in self.functions:
                    return [(target, False)]
                cls = self._class_for_name(ctx, target)
                if cls is not None:
                    init = self._method_in_class(cls, "__init__")
                    return [(init or cls, False)]
                return [(target, True)]
            return [(name, True)]
        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        receiver = func.value
        # Receiver with a known (inferred) class type — follows chained
        # attributes (``self.testbed.sim``) and annotated-return calls.
        recv_type = self._infer_expr_type(ctx, receiver, local_types)
        if recv_type is not None:
            found = self._method_in_class(recv_type, method)
            if found is not None:
                return [(found, False)]
            if recv_type not in self.classes:
                # An instance of an imported class: its methods are
                # that class's, never a name-matched program method.
                return [(f"{recv_type}.{method}", True)]
        # Fully-dotted resolution through imports: module.func,
        # package.module.Class.method, ...
        resolved = ctx.resolve(func)
        if resolved is not None and "()" not in resolved:
            if resolved in self.functions:
                return [(resolved, False)]
            cls = self._class_for_name(ctx, resolved)
            if cls is not None:
                init = self._method_in_class(cls, "__init__")
                return [(init or cls, False)]
            head = resolved.rsplit(".", 1)[0]
            if head in self.modules and \
                    f"{resolved}" not in self.functions:
                # repro.x.y.name where name isn't defined: external-ish
                return [(resolved, True)]
            if receiver is not None and isinstance(receiver, ast.Name) \
                    and receiver.id in ctx.aliases:
                return [(resolved, True)]
        # Name-based fallback: every class defining this method.
        owners = self._methods_by_name.get(method, [])
        if 0 < len(owners) <= _MAX_NAME_FALLBACK:
            return [(self.classes[o].methods[method], False)
                    for o in owners]
        if resolved is not None and "()" not in resolved:
            return [(resolved, True)]
        return []

    def _reference_candidates(self, ctx: ModuleContext, mod_name: str,
                              expr: ast.AST,
                              local_types: Dict[str, str]) -> List[str]:
        """Internal functions an argument expression *refers to*.

        A function handed around by reference — an engine callback into
        ``sim.schedule``, a task fn into ``ParallelRunner`` — will be
        called later through a path the static graph can't see (the
        event queue, the process pool). Treating the reference itself as
        an edge keeps hazard reachability sound across those hops.
        """
        if isinstance(expr, ast.Name):
            qname = f"{mod_name}.{expr.id}"
            if qname in self.functions:
                return [qname]
            target = ctx.aliases.get(expr.id)
            if target is not None and target in self.functions:
                return [target]
            return []
        if isinstance(expr, ast.Attribute):
            recv_type = self._infer_expr_type(ctx, expr.value, local_types)
            if recv_type is not None:
                found = self._method_in_class(recv_type, expr.attr)
                if found is not None:
                    return [found]
            resolved = ctx.resolve(expr)
            if resolved is not None and "()" not in resolved and \
                    resolved in self.functions:
                return [resolved]
        return []

    def _build_edges(self) -> None:
        edges: List[CallEdge] = []
        for mod_name in sorted(self.modules):
            ctx = self.modules[mod_name]
            # Module top-level code acts as a pseudo-function.
            scopes: List[Tuple[str, ast.AST, Optional[str]]] = [
                (f"{mod_name}.<module>", ctx.tree, None)]
            for qname in sorted(self.functions):
                fn = self.functions[qname]
                if fn.module == mod_name:
                    scopes.append((qname, fn.node, fn.class_qname))
            for caller, scope_node, class_qname in scopes:
                local_types = self._local_types(ctx, scope_node, class_qname)
                recorded = self.calls_by_fn.setdefault(caller, [])
                for node in self._iter_own_statements(scope_node):
                    if isinstance(node, ast.Call):
                        candidates = self._resolve_callee(
                            ctx, mod_name, node, local_types)
                        recorded.append((node, candidates))
                        for callee, external in candidates:
                            edges.append(CallEdge(
                                caller=caller, callee=callee,
                                path=ctx.path, lineno=node.lineno,
                                col=node.col_offset, external=external))
                        # Callback references passed as arguments.
                        for arg in list(node.args) + \
                                [kw.value for kw in node.keywords]:
                            for ref in self._reference_candidates(
                                    ctx, mod_name, arg, local_types):
                                edges.append(CallEdge(
                                    caller=caller, callee=ref,
                                    path=ctx.path, lineno=node.lineno,
                                    col=node.col_offset, external=False))
                    elif isinstance(node, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) and \
                            caller in self.functions:
                        # Containment: defining a nested function makes
                        # it reachable from the outer one.
                        nested = f"{caller}.{node.name}"
                        if nested in self.functions:
                            edges.append(CallEdge(
                                caller=caller, callee=nested,
                                path=ctx.path, lineno=node.lineno,
                                col=node.col_offset, external=False))
        for edge in edges:
            self._edges_out.setdefault(edge.caller, []).append(edge)
            self._edges_in.setdefault(edge.callee, []).append(edge)

    @staticmethod
    def _iter_own_statements(scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested def/class bodies
        (they are separate graph nodes), but *do* yield the nested def
        node itself so containment edges can be added."""
        body = getattr(scope, "body", [])
        stack = list(body)
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(node, ast.Lambda):
                # Lambda bodies execute in the enclosing scope's graph
                # node; keep walking.
                pass
            stack.extend(ast.iter_child_nodes(node))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def out_edges(self, qname: str) -> List[CallEdge]:
        return self._edges_out.get(qname, [])

    def in_edges(self, qname: str) -> List[CallEdge]:
        return self._edges_in.get(qname, [])

    def iter_edges(self) -> Iterator[CallEdge]:
        for caller in sorted(self._edges_out):
            yield from self._edges_out[caller]

    def reachable_from(self, roots: Iterable[str],
                       include_roots: bool = True) -> Set[str]:
        """Every function qname reachable over internal edges."""
        seen: Set[str] = set()
        stack = [r for r in sorted(set(roots))]
        roots_set = set(stack)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self._edges_out.get(current, []):
                if not edge.external and edge.callee not in seen:
                    stack.append(edge.callee)
        return seen if include_roots else seen - roots_set

    def functions_reaching(self, targets: Iterable[str]) -> Set[str]:
        """Every function from which some target is reachable."""
        seen: Set[str] = set()
        stack = [t for t in sorted(set(targets))]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            for edge in self._edges_in.get(current, []):
                if edge.caller not in seen:
                    stack.append(edge.caller)
        return seen

    def call_chain(self, src: str, dst: str) -> List[str]:
        """A shortest src → … → dst qname chain, or [] if unreachable."""
        if src == dst:
            return [src]
        prev: Dict[str, str] = {}
        queue = [src]
        seen = {src}
        while queue:
            nxt: List[str] = []
            for current in queue:
                for edge in sorted(self._edges_out.get(current, []),
                                   key=lambda e: e.callee):
                    target = edge.callee
                    if target in seen:
                        continue
                    seen.add(target)
                    prev[target] = current
                    if target == dst:
                        chain = [dst]
                        while chain[-1] != src:
                            chain.append(prev[chain[-1]])
                        return list(reversed(chain))
                    if not edge.external:
                        nxt.append(target)
            queue = nxt
        return []

    # ------------------------------------------------------------------
    # Rendering (``lint --graph``)
    # ------------------------------------------------------------------
    def to_dict(self, include_external: bool = True) -> Dict[str, object]:
        nodes = sorted(self.functions)
        edges = [e.to_dict() for e in self.iter_edges()
                 if include_external or not e.external]
        return {
            "modules": sorted(self.modules),
            "functions": nodes,
            "classes": {q: {"methods": dict(sorted(
                self.classes[q].methods.items())),
                "bases": list(self.classes[q].bases)}
                for q in sorted(self.classes)},
            "edges": edges,
            "summary": {
                "modules": len(self.modules),
                "functions": len(self.functions),
                "classes": len(self.classes),
                "edges": len(edges),
                "external_edges": sum(1 for e in self.iter_edges()
                                      if e.external),
            },
        }

    def render_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines: List[str] = []
        for qname in sorted(self.functions):
            edges = self._edges_out.get(qname, [])
            internal = sorted({e.callee for e in edges if not e.external})
            external = sorted({e.callee for e in edges if e.external})
            if not internal and not external:
                continue
            lines.append(qname)
            for callee in internal:
                lines.append(f"  -> {callee}")
            for callee in external:
                lines.append(f"  ~> {callee}  [external]")
        summary = self.to_dict()["summary"]
        lines.append(f"callgraph: {summary['functions']} functions, "
                     f"{summary['classes']} classes, "
                     f"{summary['edges']} edges "
                     f"({summary['external_edges']} external) across "
                     f"{summary['modules']} modules")
        return "\n".join(lines)
