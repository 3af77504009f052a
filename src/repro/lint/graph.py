"""Project-wide symbol table, import map and call graph.

The per-file rules (SVT001–SVT005) see one file at a time; the race
and taint rules (SVT007/SVT008) need to reason about the whole batch:
*which function can be reached from which simulated context*, and
*where does a value produced here flow*.  :class:`ProjectGraph` is the
shared substrate both build on:

* a **symbol table** — every module, class (with its instance-field
  set and method map) and function, keyed by dotted qualname
  (``repro.cpu.smt.SmtCore._switch_fetch``);
* an **import map** — per module, local alias -> imported target,
  resolved against the batch so cross-module calls link up;
* a **call graph** — direct calls resolve through the import map and
  ``self``; attribute calls fall back to class-hierarchy-analysis by
  method name (every class in the batch defining that method), which
  over-approximates but never misses an edge.  Function *references*
  passed as call arguments (event callbacks handed to ``sim.at`` /
  ``sim.after``) also become edges, so code scheduled onto the event
  loop stays reachable;
* **reachability** — BFS over the call graph from configurable
  context roots (module prefixes), yielding the set of context labels
  under which each function may run.

Everything is a deterministic function of the parsed sources: sorted
iteration everywhere, no hashing of live objects — the lint cache
fingerprints the batch by content, so graph construction must be
reproducible byte-for-byte.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.lint.source import SourceFile

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One function or method in the batch."""

    qualname: str
    module: str
    name: str
    cls: Optional[str]  # owning class qualname, if a method
    node: FunctionNode
    source: SourceFile


@dataclass
class ClassInfo:
    """One class: its instance fields and method map."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    #: Instance attributes assigned anywhere in the class body
    #: (``self.x = ...`` in any method, plus annotated class fields).
    fields: set[str] = field(default_factory=set)
    #: method name -> function qualname.
    methods: dict[str, str] = field(default_factory=dict)
    #: Methods that write at least one of ``fields`` through ``self``.
    mutators: set[str] = field(default_factory=set)


def _terminal_name(expr: ast.AST) -> str:
    """The rightmost identifier of a receiver expression.

    ``vmcs02`` for ``self.vmcs02``, ``ring`` for ``ring``, ``""`` for
    anything without a terminal name (calls, subscripts, literals).
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


class ProjectGraph:
    """Symbol table + import map + call graph over one lint batch."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        self.sources: dict[str, SourceFile] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module -> {local alias: dotted target}.  Targets are either
        #: module names (``import a.b as c``) or ``module.symbol``
        #: (``from a.b import c``); only resolved lazily against the
        #: batch, so external imports stay inert.
        self.imports: dict[str, dict[str, str]] = {}
        #: caller qualname -> sorted callee qualnames.
        self.calls: dict[str, list[str]] = {}
        #: method name -> sorted function qualnames (CHA index).
        self.methods_by_name: dict[str, list[str]] = {}
        #: module -> names defined at module top level.
        self._module_defs: dict[str, dict[str, str]] = {}

        for source in sorted(sources, key=lambda s: s.module):
            if source.module in self.sources:
                continue
            self.sources[source.module] = source
            self._collect_module(source)
        self._link_calls()

    # -- construction ----------------------------------------------------

    def _collect_module(self, source: SourceFile) -> None:
        module = source.module
        self.imports[module] = {}
        self._module_defs[module] = {}
        for stmt in ast.walk(source.tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    self.imports[module][local] = target
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.module is None or stmt.level:
                    continue  # relative imports are not used in-tree
                for alias in stmt.names:
                    local = alias.asname or alias.name
                    self.imports[module][local] = (
                        f"{stmt.module}.{alias.name}")
        self._collect_scope(source, source.tree, prefix=module,
                            cls=None)

    def _collect_scope(self, source: SourceFile, node: ast.AST,
                       prefix: str, cls: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                info = FunctionInfo(
                    qualname=qualname, module=source.module,
                    name=child.name, cls=cls, node=child,
                    source=source)
                self.functions[qualname] = info
                if cls is None and prefix == source.module:
                    self._module_defs[source.module][child.name] = \
                        qualname
                if cls is not None:
                    owner = self.classes[cls]
                    owner.methods.setdefault(child.name, qualname)
                self._collect_scope(source, child, prefix=qualname,
                                    cls=cls)
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                self.classes[qualname] = ClassInfo(
                    qualname=qualname, module=source.module,
                    name=child.name, node=child, source=source)
                if prefix == source.module:
                    self._module_defs[source.module][child.name] = \
                        qualname
                self._collect_scope(source, child, prefix=qualname,
                                    cls=qualname)
            else:
                self._collect_scope(source, child, prefix=prefix,
                                    cls=cls)

    def _link_calls(self) -> None:
        # Field/mutator discovery first, so CHA has complete indexes.
        for info in self.classes.values():
            self._collect_fields(info)
        for qualname in sorted(self.functions):
            name = self.functions[qualname].name
            self.methods_by_name.setdefault(name, []).append(qualname)
        for name in self.methods_by_name:
            self.methods_by_name[name].sort()
        for qualname in sorted(self.functions):
            info = self.functions[qualname]
            callees: set[str] = set()
            for node in self._own_nodes(info.node):
                if isinstance(node, ast.Call):
                    callees.update(self._resolve_call(info, node))
                    for arg in list(node.args) + [
                            kw.value for kw in node.keywords]:
                        ref = self._resolve_reference(info, arg)
                        if ref is not None:
                            callees.add(ref)
            callees.discard(qualname)
            self.calls[qualname] = sorted(callees)

    def _collect_fields(self, info: ClassInfo) -> None:
        for stmt in info.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name):
                info.fields.add(stmt.target.id)
        for method_name, qualname in info.methods.items():
            func = self.functions[qualname]
            for node in ast.walk(func.node):
                target: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    for tgt in node.targets:
                        self._note_self_write(info, method_name, tgt)
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                elif isinstance(node, ast.AnnAssign):
                    target = node.target
                if target is not None:
                    self._note_self_write(info, method_name, target)

    @staticmethod
    def _note_self_write(info: ClassInfo, method: str,
                         target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                ProjectGraph._note_self_write(info, method, element)
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            info.fields.add(target.attr)
            info.mutators.add(method)

    def _own_nodes(self, func: FunctionNode) -> Iterable[ast.AST]:
        """Walk a function body without descending into nested defs."""
        stack: list[ast.AST] = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    # -- resolution ------------------------------------------------------

    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """A bare name in ``module`` -> qualname in the batch, if any."""
        defs = self._module_defs.get(module, {})
        if name in defs:
            return defs[name]
        target = self.imports.get(module, {}).get(name)
        if target is None:
            return None
        if target in self.functions or target in self.classes:
            return target
        return None

    def _constructor_of(self, class_qualname: str) -> Optional[str]:
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        return cls.methods.get("__init__")

    def _resolve_call(self, caller: FunctionInfo,
                      node: ast.Call) -> set[str]:
        func = node.func
        out: set[str] = set()
        if isinstance(func, ast.Name):
            resolved = self.resolve_name(caller.module, func.id)
            if resolved is None:
                return out
            if resolved in self.classes:
                ctor = self._constructor_of(resolved)
                if ctor is not None:
                    out.add(ctor)
            else:
                out.add(resolved)
            return out
        if not isinstance(func, ast.Attribute):
            return out
        base = func.value
        # self.method() — resolve within the owning class first.
        if (isinstance(base, ast.Name) and base.id == "self"
                and caller.cls is not None):
            owner = self.classes.get(caller.cls)
            if owner is not None and func.attr in owner.methods:
                out.add(owner.methods[func.attr])
                return out
        # module.function() through the import map.
        if isinstance(base, ast.Name):
            target = self.imports.get(caller.module, {}).get(base.id)
            if target is not None:
                dotted = f"{target}.{func.attr}"
                if dotted in self.functions:
                    out.add(dotted)
                    return out
                if dotted in self.classes:
                    ctor = self._constructor_of(dotted)
                    if ctor is not None:
                        out.add(ctor)
                    return out
        # obj.method() — CHA over every class defining the name.
        out.update(self.methods_by_name.get(func.attr, ()))
        return out

    def _resolve_reference(self, caller: FunctionInfo,
                           arg: ast.expr) -> Optional[str]:
        """A function passed by reference (callback) -> its qualname."""
        if isinstance(arg, ast.Name):
            resolved = self.resolve_name(caller.module, arg.id)
            if resolved in self.functions:
                return resolved
            return None
        if (isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self" and caller.cls is not None):
            owner = self.classes.get(caller.cls)
            if owner is not None and arg.attr in owner.methods:
                return owner.methods[arg.attr]
        return None

    # -- queries ---------------------------------------------------------

    def functions_in(self, prefixes: Iterable[str]) -> list[str]:
        """Qualnames of functions whose module matches a prefix."""
        prefix_list = tuple(prefixes)
        return sorted(
            qualname for qualname, info in self.functions.items()
            if any(info.module == p or info.module.startswith(p + ".")
                   for p in prefix_list))

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Every function reachable (inclusive) from ``roots``."""
        seen: set[str] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(c for c in self.calls.get(current, ())
                            if c not in seen)
        return seen

    def context_labels(
            self, roots: Mapping[str, Sequence[str]],
    ) -> dict[str, frozenset[str]]:
        """Label every function with the context roots that reach it.

        ``roots`` maps a context label to module prefixes; the result
        maps each function qualname to the (possibly empty) set of
        labels whose root functions reach it.
        """
        labels: dict[str, set[str]] = {q: set() for q in self.functions}
        for label in sorted(roots):
            for qualname in self.reachable_from(
                    self.functions_in(roots[label])):
                labels[qualname].add(label)
        return {q: frozenset(s) for q, s in labels.items()}
