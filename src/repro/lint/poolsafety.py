"""SVT003 — experiment cells must be fork safe.

A batch's cells run in the calling process and in helpers forked from
it (``repro.exp.runner``): a cell in a helper sees module globals that
are a *copy*.  A cell that writes a module global appears to work
serially, then silently loses the write whenever a helper runs it — the
classic hidden-state race the runner's byte-identical guarantee cannot
survive.  A helper sends payloads back by pickling, which lambdas and
other closures cannot survive.

Flagged under ``repro.exp``:

* ``global`` / ``nonlocal`` declarations anywhere (a module-global
  write is the only reason to declare one);
* inside cell-path functions (``cells``/``run_cell``/``merge`` methods
  and the ``_execute_cell`` worker entry): mutation of a module-level
  binding — subscript/attribute stores, augmented assigns, and mutating
  method calls (``append``, ``update``, ``setdefault``, ...);
* ``lambda`` inside ``cells``/``run_cell`` — cell descriptors and
  payloads must be plain picklable data.
"""

from __future__ import annotations

import ast

from repro.lint.engine import LintContext, Rule, package_scoped
from repro.lint.source import SourceFile

PACKAGES = ("repro.exp",)

_CELL_METHODS = ("cells", "run_cell", "merge")
_WORKER_FUNCTIONS = ("_execute_cell",)
_MUTATORS = {
    "append", "add", "update", "extend", "insert", "setdefault",
    "pop", "popitem", "clear", "remove", "discard", "sort", "reverse",
    "__setitem__",
}


def _base_name(node: ast.AST) -> str:
    """The leftmost ``Name`` of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


class PoolSafetyRule(Rule):
    """SVT003: no shared mutable state across the process boundary."""

    rule_id = "SVT003"
    title = "fork safety of cells"

    def __init__(self) -> None:
        self._module_names: set[str] = set()

    def applies(self, source: SourceFile) -> bool:
        return package_scoped(source, PACKAGES)

    def begin(self, ctx: LintContext) -> None:
        for stmt in ctx.source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self._module_names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    self._module_names.add(name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            self._module_names.add(node.id)

    # -- scope test ------------------------------------------------------

    def _in_cell_path(self, ctx: LintContext) -> bool:
        if ctx.in_method_of_class(_CELL_METHODS):
            return True
        functions = ctx.enclosing_functions()
        return bool(functions) and functions[0].name in _WORKER_FUNCTIONS

    # -- declarations ----------------------------------------------------

    def visit_Global(self, node: ast.Global, ctx: LintContext) -> None:
        ctx.report(self, node,
                   f"global {', '.join(node.names)}: module-global "
                   "writes are lost in forked helpers")

    def visit_Nonlocal(self, node: ast.Nonlocal,
                       ctx: LintContext) -> None:
        ctx.report(self, node,
                   f"nonlocal {', '.join(node.names)}: closure state "
                   "does not survive the process boundary")

    # -- mutation of module-level bindings -------------------------------

    def _check_store(self, target: ast.AST, ctx: LintContext) -> None:
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        name = _base_name(target)
        if name in self._module_names:
            ctx.report(self, target,
                       f"cell code mutates module-level {name!r}; "
                       "workers mutate a copy, so the write is lost "
                       "under --jobs > 1")

    def visit_Assign(self, node: ast.Assign, ctx: LintContext) -> None:
        if self._in_cell_path(ctx):
            for target in node.targets:
                self._check_store(target, ctx)

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: LintContext) -> None:
        if self._in_cell_path(ctx):
            self._check_store(node.target, ctx)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        if not self._in_cell_path(ctx):
            return
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and _base_name(func.value) in self._module_names):
            ctx.report(self, node,
                       f"cell code calls {_base_name(func.value)}."
                       f"{func.attr}() on a module-level object; "
                       "workers mutate a copy, so the write is lost "
                       "under --jobs > 1")

    # -- picklability ----------------------------------------------------

    def visit_Lambda(self, node: ast.Lambda, ctx: LintContext) -> None:
        if ctx.in_method_of_class(("cells", "run_cell")):
            ctx.report(self, node,
                       "lambda in a cell function: cell descriptors "
                       "and payloads must be plain picklable data")
