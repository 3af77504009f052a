"""The shared AST walk that drives every rule.

One file is parsed once and walked once; each per-file rule is a
visitor object dispatched per node (``visit_Call``, ``visit_For``,
...), so adding a rule never adds another pass over the tree.  The
walker maintains the lexical scope stack (module / class / function
nesting) that the pool-safety and frozen-result rules need, and
applies the suppression index before findings escape a file.

Whole-program rules (:class:`ProjectRule`) opt out of the per-file
walk: after every file is parsed, the engine builds one
:class:`repro.lint.graph.ProjectGraph` over the batch and hands it to
``check_project`` together with a :class:`ProjectContext` reporter
that routes findings back through each file's suppression index.
:func:`lint_tree` orchestrates both passes (plus the SVT009
stale-suppression meta-pass and the incremental cache) and returns a
:class:`LintReport`; :func:`lint_paths` remains the thin
findings-only wrapper older callers use.

Exit-code contract (shared with the CLI): findings are the *only*
success-path output; a file that fails to parse yields a single
``SVT000`` finding rather than aborting the batch, so CI always sees
every problem in one run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator,
                    Optional, Union)

from repro.lint.findings import Finding
from repro.lint.source import ALL_RULES, SourceFile, SuppressionDirective

if TYPE_CHECKING:  # pragma: no cover — import-cycle breakers only
    from repro.lint.cache import LintCache
    from repro.lint.graph import ProjectGraph

ScopeNode = Union[ast.Module, ast.ClassDef, ast.FunctionDef,
                  ast.AsyncFunctionDef, ast.Lambda]

_SCOPE_TYPES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
                ast.Lambda)


class LintContext:
    """What a rule sees while visiting one file."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.scopes: list[ScopeNode] = []
        self._findings: list[Finding] = []
        self.suppressed_hits: set[tuple[int, str]] = set()

    # -- reporting -------------------------------------------------------

    def report(self, rule: "Rule", node: ast.AST, message: str,
               force: bool = False) -> None:
        """Record a finding unless an inline suppression covers it.

        ``force=True`` bypasses the suppression index — for findings
        *about* a suppression (e.g. SVT005's unjustified-disable check,
        which must not be silenced by the very comment it questions).
        """
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        if not force and self.source.suppressed(line, rule.rule_id):
            self.suppressed_hits.add((line, rule.rule_id))
            return
        self._findings.append(Finding(
            path=str(self.source.path),
            line=line,
            col=col,
            rule=rule.rule_id,
            message=message,
        ))

    def note_suppressed(self, line: int, rule_id: str) -> None:
        """Record a suppression hit without going through ``report``.

        Rules that consult ``source.suppressed`` themselves (SVT005's
        justified-suppression dance) call this so the stale-suppression
        pass knows the directive is live.
        """
        self.suppressed_hits.add((line, rule_id))

    @property
    def findings(self) -> list[Finding]:
        return list(self._findings)

    # -- scope helpers ---------------------------------------------------

    def enclosing_functions(self) -> list[ast.FunctionDef]:
        """Innermost-last stack of enclosing named functions."""
        return [scope for scope in self.scopes
                if isinstance(scope, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))]

    def enclosing_function_name(self) -> str:
        functions = self.enclosing_functions()
        return functions[-1].name if functions else ""

    def in_method_of_class(self, method_names: Iterable[str]) -> bool:
        """True when visiting inside ``class C: def <name>``."""
        wanted = set(method_names)
        for index, scope in enumerate(self.scopes):
            if (isinstance(scope, (ast.FunctionDef,
                                   ast.AsyncFunctionDef))
                    and scope.name in wanted and index > 0
                    and isinstance(self.scopes[index - 1],
                                   ast.ClassDef)):
                return True
        return False

    def at_class_or_module_level(self) -> bool:
        """No enclosing function — class bodies and module toplevel."""
        return not self.enclosing_functions()


class Rule:
    """Base class: a rule id, a scope predicate, and node visitors."""

    rule_id = "SVT000"
    title = "internal"
    #: Whole-program rules set this; the engine skips the per-file walk
    #: for them and calls ``check_project`` instead.
    project = False
    #: The SVT009 stale-suppression meta-pass sets this; it runs last,
    #: over the suppressed-hit index the other rules produced.
    meta_stale = False

    def applies(self, source: SourceFile) -> bool:
        return True

    def begin(self, ctx: LintContext) -> None:
        """Called once per file before the walk (precompute state)."""

    def finish(self, ctx: LintContext) -> None:
        """Called once per file after the walk."""


class ProjectContext:
    """Reporter for whole-program rules.

    Routes each finding through the owning file's suppression index
    (same semantics as :meth:`LintContext.report`) and records
    suppressed hits per path so SVT009 and ``--stats`` see them.
    """

    def __init__(self, sources: dict[str, SourceFile]) -> None:
        self._sources = sources
        self.findings: list[Finding] = []
        self.hits: dict[str, set[tuple[int, str]]] = {}

    def report(self, rule: Rule, source: SourceFile, node: ast.AST,
               message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        path = str(source.path)
        if source.suppressed(line, rule.rule_id):
            self.hits.setdefault(path, set()).add((line, rule.rule_id))
            return
        self.findings.append(Finding(
            path=path, line=line, col=col, rule=rule.rule_id,
            message=message,
        ))


class ProjectRule(Rule):
    """A rule that analyzes the whole batch at once.

    Subclasses implement ``check_project``; ``graph`` is built once per
    :func:`lint_tree` run over every file that parsed.
    """

    project = True

    def check_project(self, graph: "ProjectGraph",
                      ctx: ProjectContext) -> None:
        raise NotImplementedError


def _in_packages(module: str, packages: Iterable[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".")
               for pkg in packages)


def package_scoped(source: SourceFile,
                   packages: Iterable[str]) -> bool:
    """Shared scope predicate: module lives under one of ``packages``."""
    return _in_packages(source.module, packages)


def _walk(node: ast.AST, ctx: LintContext,
          rules: list[tuple[Rule, dict[str, Callable[..., None]]]],
          ) -> None:
    kind = type(node).__name__
    for rule, visitors in rules:
        visitor = visitors.get(kind)
        if visitor is not None:
            visitor(node, ctx)
    is_scope = isinstance(node, _SCOPE_TYPES)
    if is_scope:
        ctx.scopes.append(node)  # type: ignore[arg-type]
    for child in ast.iter_child_nodes(node):
        _walk(child, ctx, rules)
    if is_scope:
        ctx.scopes.pop()


def _run_file_rules(source: SourceFile,
                    rules: Iterable[Rule]) -> LintContext:
    """Run every applicable per-file rule; return the filled context."""
    ctx = LintContext(source)
    active = [rule for rule in rules
              if not rule.project and not rule.meta_stale
              and rule.applies(source)]
    if not active:
        return ctx
    table = []
    for rule in active:
        visitors = {
            name[len("visit_"):]: getattr(rule, name)
            for name in dir(rule) if name.startswith("visit_")
        }
        table.append((rule, visitors))
        rule.begin(ctx)
    _walk(source.tree, ctx, table)
    for rule in active:
        rule.finish(ctx)
    return ctx


def lint_source(source: SourceFile,
                rules: Iterable[Rule]) -> list[Finding]:
    """Run every applicable per-file rule over one parsed file."""
    return sorted(_run_file_rules(source, rules).findings)


def lint_file(path: Path, rules: Iterable[Rule],
              module: Optional[str] = None) -> list[Finding]:
    """Lint one file; a parse failure becomes an SVT000 finding."""
    try:
        source = SourceFile(path, module=module)
    except SyntaxError as err:
        return [Finding(path=str(path), line=err.lineno or 1,
                        col=(err.offset or 0) + 1, rule="SVT000",
                        message=f"syntax error: {err.msg}")]
    return lint_source(source, rules)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted, deduplicated file list.

    Directories are walked with ``rglob`` and deduplicated on resolved
    paths, so a symlink cycle (or the same file reachable through two
    links) contributes each real file exactly once.
    """
    seen: set[Path] = set()
    expanded: list[Path] = []
    for path in paths:
        path = Path(path)
        candidates = (sorted(path.rglob("*.py")) if path.is_dir()
                      else [path])
        for candidate in candidates:
            try:
                resolved = candidate.resolve()
            except OSError:  # unresolvable link loop member
                continue
            if resolved not in seen:
                seen.add(resolved)
                expanded.append(candidate)
    return iter(sorted(expanded))


@dataclass
class FileRecord:
    """Everything the per-file pass learned about one file.

    Cache-friendly: holds no AST, only findings, suppression hits and
    the directive table — enough for the stale pass and ``--stats``
    to run without re-parsing an unchanged file.
    """

    path: str
    module: str
    parse_ok: bool
    findings: list[Finding] = field(default_factory=list)
    hits: set[tuple[int, str]] = field(default_factory=set)
    directives: tuple[SuppressionDirective, ...] = ()


@dataclass
class LintReport:
    """The full result of a :func:`lint_tree` run."""

    findings: list[Finding]
    #: path -> suppression hits (line, rule) that silenced a finding.
    suppressions: dict[str, set[tuple[int, str]]]
    #: path -> dotted module name (for per-package stats).
    modules: dict[str, str]


def _lint_one(path: Path, text: str,
              rule_types: list[type[Rule]],
              ) -> tuple[FileRecord, Optional[SourceFile]]:
    try:
        source = SourceFile(path, text=text)
    except SyntaxError as err:
        record = FileRecord(
            path=str(path), module="", parse_ok=False,
            findings=[Finding(path=str(path), line=err.lineno or 1,
                              col=(err.offset or 0) + 1, rule="SVT000",
                              message=f"syntax error: {err.msg}")],
        )
        return record, None
    ctx = _run_file_rules(source, [cls() for cls in rule_types])
    record = FileRecord(
        path=str(path), module=source.module, parse_ok=True,
        findings=sorted(ctx.findings), hits=set(ctx.suppressed_hits),
        directives=source.directives,
    )
    return record, source


def _stale_findings(records: list[FileRecord],
                    hits: dict[str, set[tuple[int, str]]],
                    active_ids: frozenset[str],
                    complete: bool,
                    stale_rule_id: str) -> list[Finding]:
    """SVT009: directives that silenced nothing this run are stale.

    An explicit directive is only judged when every rule it names ran
    (``rules <= active_ids``); a bare ``disable`` is only judged on a
    ``complete`` run (no ``--rules`` filter), since any skipped rule
    could be the one it suppresses.
    """
    findings: list[Finding] = []
    for record in records:
        if not record.parse_ok:
            continue
        path_hits = hits.get(record.path, set())
        for directive in record.directives:
            if directive.rules == ALL_RULES:
                if not complete:
                    continue
                covered = any(line == directive.target
                              for line, _ in path_hits)
            else:
                if not directive.rules <= active_ids:
                    continue
                covered = any((directive.target, rule) in path_hits
                              for rule in directive.rules)
            if covered:
                continue
            named = ("every rule" if directive.rules == ALL_RULES
                     else ", ".join(sorted(directive.rules)))
            findings.append(Finding(
                path=record.path, line=directive.line, col=1,
                rule=stale_rule_id,
                message=f"stale suppression: the disable directive for "
                        f"{named} no longer silences any finding; "
                        "remove it",
            ))
    return findings


def lint_tree(paths: Iterable[Path], rules: Iterable[Rule],
              cache: Optional["LintCache"] = None) -> LintReport:
    """Lint every ``*.py`` under ``paths`` — the full pipeline.

    Per-file rules run first (memoized by ``cache`` when given), then
    whole-program rules over a :class:`~repro.lint.graph.ProjectGraph`
    of the batch, then the SVT009 stale-suppression pass over the
    merged suppressed-hit index.
    """
    rule_list = list(rules)
    file_types = [type(r) for r in rule_list
                  if not r.project and not r.meta_stale]
    project_rules = [r for r in rule_list if r.project]
    stale_rules = [r for r in rule_list if r.meta_stale]

    records: list[FileRecord] = []
    texts: dict[str, str] = {}
    sources: dict[str, SourceFile] = {}
    for path in iter_python_files(paths):
        text = path.read_text()
        texts[str(path)] = text
        record = (cache.get_file(path, text, file_types)
                  if cache is not None else None)
        if record is None:
            record, source = _lint_one(path, text, file_types)
            if source is not None:
                sources[record.path] = source
            if cache is not None:
                cache.put_file(text, file_types, record)
        records.append(record)

    findings: list[Finding] = []
    hits: dict[str, set[tuple[int, str]]] = {}
    for record in records:
        findings.extend(record.findings)
        if record.hits:
            hits.setdefault(record.path, set()).update(record.hits)

    if project_rules:
        project = (cache.get_project(records, project_rules)
                   if cache is not None else None)
        if project is None:
            from repro.lint.graph import ProjectGraph

            for record in records:
                if record.parse_ok and record.path not in sources:
                    sources[record.path] = SourceFile(
                        Path(record.path), text=texts[record.path])
            parsed = [sources[r.path] for r in records if r.parse_ok]
            graph = ProjectGraph(parsed)
            pctx = ProjectContext(sources)
            for rule in project_rules:
                rule.check_project(graph, pctx)
            project = (sorted(pctx.findings), pctx.hits)
            if cache is not None:
                cache.put_project(records, project_rules, project)
        project_findings, project_hits = project
        findings.extend(project_findings)
        for path, path_hits in project_hits.items():
            hits.setdefault(path, set()).update(path_hits)

    if stale_rules:
        stale = stale_rules[0]
        # The stale rule's own id counts as "ran" so that a
        # ``disable=SVT009`` directive — which can never silence
        # anything, since stale findings bypass the suppression
        # index — is itself judged and reported stale.
        active_ids = frozenset(r.rule_id for r in rule_list)
        findings.extend(_stale_findings(
            records, hits, active_ids,
            complete=getattr(stale, "complete", True),
            stale_rule_id=stale.rule_id))

    modules = {r.path: r.module for r in records if r.parse_ok}
    return LintReport(findings=sorted(findings), suppressions=hits,
                      modules=modules)


def lint_paths(paths: Iterable[Path],
               rules: Iterable[Rule]) -> list[Finding]:
    """Lint every ``*.py`` under ``paths``; findings only."""
    return lint_tree(paths, rules).findings
