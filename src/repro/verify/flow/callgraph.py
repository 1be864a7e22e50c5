"""Module symbol table + project call graph for the flow analysis.

The flat lint judges one statement at a time; the flow rules need to
answer *who calls whom, and under what lexical context*.  This module
parses every file of an analysis run into :class:`ModuleInfo` records
(imports + defined functions), collects every function and method as a
:class:`FunctionInfo` (with the raw calls it makes and the SQ-style
locks lexically held at each call), and resolves calls into a project
:class:`CallGraph`.

Resolution is deliberately static and conservative — exactly as strong
as the conventions the rules police:

* bare names resolve within the defining module, then through
  ``from m import f`` / ``import m as x`` aliases;
* ``self.m(...)`` / ``cls.m(...)`` resolve to the enclosing class's
  method when it exists;
* other attribute calls (``driver._ring_sq_doorbell(...)``) resolve
  duck-typed to every *method* of that bare name defined anywhere in
  the project — an over-approximation that suits the rules, which only
  propagate obligations through functions that already misbehave.

Code inside ``lambda`` bodies and nested ``def``/``class`` suites runs
in another frame at another time: nested functions are first-class
:class:`FunctionInfo` entries of their own, and the enclosing
function's lexical lock context never leaks into them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Receiver names that mark a method call on the current instance.
_SELF_NAMES = frozenset({"self", "cls"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: str) -> str:
    """Dotted module name for *path* (``src/`` trees become importable
    names; everything else keeps a path-derived, collision-free name)."""
    parts = list(Path(path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    parts = [p for p in parts if p not in ("", "/", ".")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<module>"


@dataclass(frozen=True)
class RawCall:
    """One textual call site inside a function's own body."""

    #: Dotted callee spelling (``driver.kick``), None when dynamic.
    dotted: Optional[str]
    node: ast.Call
    #: Lock ids lexically held at the call (``with ....lock:`` nesting,
    #: innermost last); non-empty means "under the SQ lock" to VER2xx.
    locks: Tuple[str, ...]


@dataclass(frozen=True)
class LockAcquire:
    """One ``with ....lock:`` acquisition and the locks already held."""

    lock_id: str
    node: ast.AST
    outer: Tuple[str, ...]


@dataclass
class FunctionInfo:
    """One function or method, with its lexical call/lock summary."""

    qualname: str
    name: str
    module: str
    path: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    lineno: int
    class_name: Optional[str] = None
    calls: List[RawCall] = field(default_factory=list)
    acquires: List[LockAcquire] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ModuleInfo:
    """Symbol table of one parsed module."""

    name: str
    path: str
    tree: ast.Module
    source: str
    #: Local alias -> fully qualified target (module or module.symbol).
    imports: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionInfo] = field(default_factory=list)


@dataclass(frozen=True)
class CallSite:
    """One resolved call-graph edge."""

    caller: FunctionInfo
    callee: FunctionInfo
    node: ast.Call
    locks: Tuple[str, ...]


def _lock_id(context_expr: ast.expr) -> Optional[str]:
    """Normalized lock identity of a ``with``-item, or None.

    ``with res.sq.lock:`` identifies lock ``sq`` — the last receiver
    component before ``.lock``, which is the granularity the project's
    conventions name locks at (every queue pair has one ``sq`` and one
    ``cq`` lock; ordering is a per-*kind* discipline)."""
    if not (isinstance(context_expr, ast.Attribute)
            and context_expr.attr == "lock"):
        return None
    receiver = context_expr.value
    dotted = dotted_name(receiver)
    if dotted:
        return dotted.split(".")[-1]
    return "<lock>"


class _FunctionCollector(ast.NodeVisitor):
    """Registers every def/async-def with its dotted qualname."""

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self._stack: List[str] = []
        #: Innermost enclosing scope kind: a class name, or None when
        #: the nearest enclosing scope is a function (nested defs are
        #: plain functions, not methods).
        self._class_stack: List[Optional[str]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._stack.append(node.name)
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()

    def _function(self,
                  node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        qualname = ".".join([self.module.name, *self._stack, node.name])
        info = FunctionInfo(
            qualname=qualname, name=node.name, module=self.module.name,
            path=self.module.path, node=node, lineno=node.lineno,
            class_name=self._class_stack[-1] if self._class_stack else None)
        _scan_own_body(info)
        self.module.functions.append(info)
        self._stack.append(node.name)
        # Defs nested inside this function are plain functions (classes
        # nested further down re-push a real class name).
        self._class_stack.append(None)
        self.generic_visit(node)
        self._class_stack.pop()
        self._stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._function(node)


def _scan_own_body(info: FunctionInfo) -> None:
    """Collect *info*'s raw calls and lock acquisitions, stopping at
    nested scopes (their code runs in another frame, unlocked)."""
    lock_stack: List[str] = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired: List[str] = []
            for item in node.items:
                lid = _lock_id(item.context_expr)
                if lid is not None:
                    info.acquires.append(LockAcquire(
                        lock_id=lid, node=node,
                        outer=tuple(lock_stack + acquired)))
                    acquired.append(lid)
            lock_stack.extend(acquired)
            for child in ast.iter_child_nodes(node):
                visit(child)
            del lock_stack[len(lock_stack) - len(acquired):]
            return
        if isinstance(node, ast.Call):
            info.calls.append(RawCall(dotted=dotted_name(node.func),
                                      node=node, locks=tuple(lock_stack)))
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in info.node.body:
        visit(stmt)


class Project:
    """All parsed modules of one analysis run, cross-indexed."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: path (as given) -> ModuleInfo
        self.by_path: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._methods_by_name: Dict[str, List[FunctionInfo]] = {}
        self.call_sites: List[CallSite] = []
        self._callers_of: Dict[str, List[CallSite]] = {}
        #: Files that failed to parse (the flat lint reports VER000).
        self.skipped: List[str] = []

    # -- construction -------------------------------------------------
    @classmethod
    def load(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{path: source}`` (order preserved)."""
        project = cls()
        for path, source in sources.items():
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError:
                project.skipped.append(path)
                continue
            module = ModuleInfo(name=module_name_for(path), path=path,
                                tree=tree, source=source)
            _collect_imports(module)
            _FunctionCollector(module).visit(tree)
            project.modules[module.name] = module
            project.by_path[path] = module
            for fn in module.functions:
                project.functions[fn.qualname] = fn
                if fn.is_method:
                    self_list = project._methods_by_name.setdefault(
                        fn.name, [])
                    self_list.append(fn)
        project._resolve_all()
        return project

    def _resolve_all(self) -> None:
        for fn in self.functions.values():
            for call in fn.calls:
                for callee in self.resolve_call(fn, call):
                    site = CallSite(caller=fn, callee=callee,
                                    node=call.node, locks=call.locks)
                    self.call_sites.append(site)
                    self._callers_of.setdefault(
                        callee.qualname, []).append(site)

    # -- queries --------------------------------------------------------
    def callers_of(self, qualname: str) -> List[CallSite]:
        return self._callers_of.get(qualname, [])

    def resolve_call(self, caller: FunctionInfo,
                     call: RawCall) -> List[FunctionInfo]:
        """Project functions *call* may dispatch to (possibly empty)."""
        if call.dotted is None:
            return []
        parts = call.dotted.split(".")
        module = self.modules.get(caller.module)
        if len(parts) == 1:
            return self._resolve_bare(caller, module, parts[0])
        # self.m() / cls.m(): the enclosing class's method wins.
        if parts[0] in _SELF_NAMES and len(parts) == 2 and caller.class_name:
            own = self.functions.get(
                f"{caller.module}.{caller.class_name}.{parts[1]}")
            if own is not None:
                return [own]
        # Module-attribute calls through import aliases.
        if module is not None:
            target = self._resolve_alias(module, parts)
            if target is not None:
                return [target]
        # Duck-typed fallback: any method of this bare name, anywhere.
        return list(self._methods_by_name.get(parts[-1], ()))

    def _resolve_bare(self, caller: FunctionInfo,
                      module: Optional[ModuleInfo],
                      name: str) -> List[FunctionInfo]:
        own = self.functions.get(f"{caller.module}.{name}")
        if own is not None and not own.is_method:
            return [own]
        if module is not None:
            imported = module.imports.get(name)
            if imported is not None:
                target = self.functions.get(imported)
                if target is not None:
                    return [target]
        return []

    def _resolve_alias(self, module: ModuleInfo,
                       parts: Sequence[str]) -> Optional[FunctionInfo]:
        """``alias.rest.f()`` where ``alias`` names an imported module."""
        target = module.imports.get(parts[0])
        if target is None:
            return None
        qualname = ".".join([target, *parts[1:]])
        return self.functions.get(qualname)


def _collect_imports(module: ModuleInfo) -> None:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: anchor on the importing module's
                # package (best effort; the project's own code uses
                # absolute imports throughout).
                pkg = module.name.split(".")[:-node.level]
                base = ".".join(pkg + ([node.module] if node.module else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base \
                    else alias.name
