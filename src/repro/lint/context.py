"""Per-module parse context: aliases, suppressions, light inference.

One :class:`ModuleContext` is built per analysed file and handed to
every rule. It centralises the boring-but-subtle parts of AST linting:

* **Alias resolution** — ``from time import perf_counter as pc`` must
  make ``pc()`` resolve to ``time.perf_counter``. The context walks all
  ``import`` statements (including relative ones, resolved against the
  module's package path) and exposes :meth:`resolve` /
  :meth:`resolve_call` to turn expressions back into dotted names.
* **Suppressions** — ``# repro-lint: ignore[DET001]`` on the finding's
  line, or ``# repro-lint: skip-file`` anywhere in the file.
* **Set-typed inference** — a deliberately small lattice ("definitely a
  set" / "unknown") fed by literals, ``set()``/``frozenset()`` calls,
  set operators and ``Set``/``FrozenSet`` annotations, used by DET003.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["ModuleContext", "dotted_name", "SUPPRESS_RE"]

SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?")
SKIP_FILE_RE = re.compile(r"#\s*repro-lint:\s*skip-file\b")

#: Annotation heads that mean "this value is a set".
_SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                    "MutableSet"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` / ``a`` as a dotted string; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ModuleContext:
    """Everything a rule needs to know about one source file."""

    def __init__(self, path: str, source: str,
                 module_package: str = ""):
        #: posix path relative to the scanned root, e.g. ``repro/sim/engine.py``
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        #: dotted package the module lives in (for relative imports),
        #: e.g. ``repro.exec`` for ``repro/exec/runner.py``.
        self.module_package = module_package
        self.tree = ast.parse(source, filename=path)
        #: local name -> fully qualified dotted path
        self.aliases: Dict[str, str] = {}
        #: names of functions/classes defined at module top level
        self.module_defs: Set[str] = set()
        #: line -> suppressed rule codes (empty set == all rules)
        self.suppressions: Dict[int, Set[str]] = {}
        self.skip_file = False
        self._collect_imports()
        self._collect_defs()
        self._collect_suppressions()
        self._spread_suppressions()

    # ------------------------------------------------------------------
    # Imports / aliases
    # ------------------------------------------------------------------
    def _resolve_relative(self, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        # ``from ..x import y`` in package a.b.c -> a.x (level counts
        # dots; one dot = current package).
        parts = self.module_package.split(".") if self.module_package else []
        base = parts[:len(parts) - (node.level - 1)]
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_relative(node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.aliases[local] = (f"{base}.{alias.name}"
                                           if base else alias.name)

    def _collect_defs(self) -> None:
        for node in ast.iter_child_nodes(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.module_defs.add(node.name)

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _iter_comments(self) -> Iterator[Tuple[int, str]]:
        """(line, text) for every real comment token.

        Tokenising (rather than regex-scanning raw lines) keeps
        directives inside string literals and docstrings — e.g. this
        package's own documentation — from being misread as live
        suppressions.
        """
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(self.source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    yield tok.start[0], tok.string
        except (tokenize.TokenError, IndentationError,
                SyntaxError):  # pragma: no cover - ast.parse ran already
            for lineno, text in enumerate(self.lines, start=1):
                if "#" in text:
                    yield lineno, text[text.index("#"):]

    def _collect_suppressions(self) -> None:
        for lineno, text in self._iter_comments():
            if SKIP_FILE_RE.search(text):
                self.skip_file = True
            match = SUPPRESS_RE.search(text)
            if match:
                codes = match.group("codes")
                parsed = {c.strip().upper() for c in (codes or "").split(",")
                          if c.strip()}
                existing = self.suppressions.get(lineno)
                if not parsed or existing == set():
                    self.suppressions[lineno] = set()  # bare: all rules
                elif existing is None:
                    self.suppressions[lineno] = parsed
                else:
                    existing |= parsed

    def _statement_spans(self) -> Iterator[Tuple[int, int]]:
        """(first, last) line of every multi-line statement.

        For simple statements the span is the full node extent — a
        parenthesised call can put the suppression comment on any of
        its lines. For compound statements (``if``/``for``/``def``/…)
        only the *header* spans: decorators through the line before the
        first body statement, so a comment inside the body never blankets
        the whole block.
        """
        for node in ast.walk(self.tree):
            lineno = getattr(node, "lineno", None)
            end = getattr(node, "end_lineno", None)
            if lineno is None or end is None:
                continue
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and \
                    hasattr(body[0], "lineno"):
                first = lineno
                decorators = getattr(node, "decorator_list", [])
                if decorators:
                    first = min(first, min(d.lineno for d in decorators))
                end = body[0].lineno - 1
                if end > first:
                    yield first, end
            elif end > lineno:
                yield lineno, end

    def _spread_suppressions(self) -> None:
        """Apply each suppression comment to its whole statement span.

        A directive on *any* line of a multi-line statement (the closing
        paren of a wrapped expression, a decorator line, the middle of a
        parenthesised condition) suppresses findings anchored on every
        line of that statement.
        """
        if not self.suppressions:
            return
        for first, last in self._statement_spans():
            hits = [self.suppressions[line]
                    for line in range(first, last + 1)
                    if line in self.suppressions]
            if not hits:
                continue
            merged: Optional[Set[str]] = set()
            for codes in hits:
                if not codes:
                    merged = set()  # bare ignore: all rules
                    break
                assert merged is not None
                merged |= codes
            for line in range(first, last + 1):
                existing = self.suppressions.get(line)
                if existing == set():
                    continue  # bare ignore already dominates
                if not merged:
                    self.suppressions[line] = set()
                elif existing is None:
                    self.suppressions[line] = set(merged)
                else:
                    existing |= merged

    def is_suppressed(self, code: str, line: int) -> bool:
        codes = self.suppressions.get(line)
        if codes is None:
            return False
        return not codes or code.upper() in codes

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted name for an expression, or None.

        Handles alias substitution at the head of the chain and keeps a
        ``()`` marker for intermediate calls, so
        ``observe.current().counter`` (with ``observe`` imported via
        ``from repro import observe``) resolves to
        ``repro.observe.current().counter``.
        """
        parts: List[str] = []
        while True:
            if isinstance(node, ast.Attribute):
                parts.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Call):
                inner = self.resolve(node.func)
                if inner is None:
                    return None
                parts.append(inner + "()")
                return ".".join(reversed(parts))
            elif isinstance(node, ast.Name):
                head = self.aliases.get(node.id, node.id)
                parts.append(head)
                return ".".join(reversed(parts))
            else:
                return None

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """Dotted name of a call's callee (alias-resolved)."""
        return self.resolve(node.func)

    def head_is_imported_module(self, node: ast.AST) -> bool:
        """True when an attribute chain is rooted at an imported name.

        ``worker_mod.invoke`` with ``from . import worker as worker_mod``
        is a module-level reference (picklable by reference);
        ``self.task_fn`` is not.
        """
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in self.aliases

    # ------------------------------------------------------------------
    # Set-typed inference (used by DET003)
    # ------------------------------------------------------------------
    @staticmethod
    def annotation_is_set(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        name = dotted_name(node)
        if name is None:
            return False
        return name.split(".")[-1] in _SET_ANNOTATIONS

    def expr_is_set(self, node: ast.AST,
                    set_names: Optional[Set[str]] = None) -> bool:
        """True when ``node`` definitely evaluates to a set.

        ``set_names`` is the caller's scope-local collection of names
        known to hold sets (built by the DET003 scope walker).
        """
        set_names = set_names or set()
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            callee = self.resolve_call(node)
            if callee in ("set", "frozenset"):
                return True
            # ``a.union(b)`` / ``a.difference(b)`` on a known set.
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "union", "difference", "intersection",
                    "symmetric_difference", "copy"):
                return self.expr_is_set(node.func.value, set_names)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
            return (self.expr_is_set(node.left, set_names)
                    or self.expr_is_set(node.right, set_names))
        if isinstance(node, ast.Name):
            return node.id in set_names
        return False

    # ------------------------------------------------------------------
    # Convenience walkers
    # ------------------------------------------------------------------
    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)

    def calls(self) -> Iterator[ast.Call]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                yield node

    def scopes(self) -> Iterator[Tuple[ast.AST, ast.AST]]:
        """(scope_node, parent) for module + every function/lambda body."""
        yield self.tree, self.tree
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node, self.tree
