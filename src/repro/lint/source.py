"""Parsed source files: AST, comments, and suppression index.

Rules never re-read or re-tokenize a file — :class:`SourceFile` parses
once and exposes everything rule visitors need:

* ``tree`` — the parsed AST (with a lazy child->parent map for rules
  that must find the enclosing statement of an expression node).
* ``comments`` — ``{line: comment text}`` from ``tokenize`` (the AST
  drops comments, but SVT002's ``# paper:`` citations and the
  suppression syntax live in them).
* ``suppressed(line, rule)`` — the inline opt-out:
  ``# svtlint: disable=SVT001`` (or a comma list, or a bare ``disable``
  for every rule) on the offending line, or on a comment-only line
  directly above it.
* ``module`` — dotted module name derived from the path (rules scope
  themselves by package, e.g. SVT001 applies under ``repro.exp``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

_SUPPRESS_RE = re.compile(
    r"svtlint:\s*disable(?:=(?P<rules>SVT\d{3}(?:\s*,\s*SVT\d{3})*))?",
)

#: Sentinel rule set meaning "every rule".
ALL_RULES = frozenset({"*"})


@dataclass(frozen=True, order=True)
class SuppressionDirective:
    """One inline ``# svtlint: disable`` comment.

    ``line`` is the comment's own line; ``target`` is the code line the
    directive covers (the same line for trailing comments, the next
    code line for comment-only lines).  ``rules`` is the explicit rule
    set or the :data:`ALL_RULES` sentinel for a bare ``disable``.  The
    stale-suppression pass (SVT009) matches directives against the
    suppressed-hit index the engine collects while rules run.
    """

    line: int
    target: int
    rules: frozenset[str]


def module_name_for(path: Path) -> str:
    """Dotted module name for a source path.

    Uses the last ``repro`` component in the path so both the installed
    tree (``src/repro/exp/runner.py`` -> ``repro.exp.runner``) and test
    fixtures staged under a synthetic ``repro/`` directory resolve to
    package-scoped names.  Files outside any ``repro`` tree fall back to
    their bare stem, which no package-scoped rule matches.
    """
    parts = list(path.resolve().parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[start:]
    else:
        dotted = [parts[-1]]
    dotted[-1] = Path(dotted[-1]).stem
    if dotted[-1] == "__init__":
        dotted = dotted[:-1]
    return ".".join(dotted)


def justification_text(comment: str) -> str:
    """The free text following the ``disable`` directive in a comment."""
    match = _SUPPRESS_RE.search(comment)
    if match is None:
        return ""
    return comment[match.end():].strip(" \t#:;,.!—–-")


def suppression_justified(source: "SourceFile", line: int,
                          min_length: int = 8) -> bool:
    """Does the suppression directive covering ``line`` explain itself?

    SVT005, whose suppressions must carry a justification, makes this
    scan.  The directive lives either in a trailing comment on the line
    or in the comment-only block directly above; continuation comment
    lines in that block count toward the justification.
    """
    comment = source.comments.get(line, "")
    if "disable" in comment:
        return len(justification_text(comment)) >= min_length
    # Walk the contiguous comment/blank block above the statement.
    block: list[str] = []
    prev = line - 1
    while prev > 0 and (prev in source.comment_only_lines
                        or source.line_is_blank(prev)):
        text = source.comments.get(prev, "")
        block.append(text)
        if _SUPPRESS_RE.search(text):
            break
        prev -= 1
    for index, text in enumerate(block):
        if _SUPPRESS_RE.search(text) is None:
            continue
        # Directive text plus any continuation lines below it (block
        # is bottom-up, so earlier entries are *later* lines).
        parts = [justification_text(text)]
        parts.extend(t.lstrip("# \t") for t in block[:index])
        return len(" ".join(parts).strip()) >= min_length
    return False


class SourceFile:
    """One parsed Python file plus its comment/suppression index."""

    def __init__(self, path: Path, text: Optional[str] = None,
                 module: Optional[str] = None) -> None:
        self.path = Path(path)
        self.text = self.path.read_text() if text is None else text
        self.module = module or module_name_for(self.path)
        self.tree = ast.parse(self.text, filename=str(self.path))
        self.comments: dict[int, str] = {}
        self.comment_only_lines: set[int] = set()
        self._scan_tokens()
        self.directives: tuple[SuppressionDirective, ...] = ()
        self._suppressions = self._build_suppressions()
        self._parents: Optional[dict[int, ast.AST]] = None

    # -- tokens ----------------------------------------------------------

    def _scan_tokens(self) -> None:
        tokens = tokenize.generate_tokens(
            io.StringIO(self.text).readline
        )
        code_lines: set[int] = set()
        for token in tokens:
            if token.type == tokenize.COMMENT:
                self.comments[token.start[0]] = token.string
            elif token.type not in (
                tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                tokenize.DEDENT, tokenize.ENDMARKER,
            ):
                for line in range(token.start[0], token.end[0] + 1):
                    code_lines.add(line)
        self.comment_only_lines = {
            line for line in self.comments if line not in code_lines
        }

    def line_is_blank(self, line: int) -> bool:
        lines = self.text.splitlines()
        if not 1 <= line <= len(lines):
            return False
        return not lines[line - 1].strip()

    # -- suppressions ----------------------------------------------------

    def _build_suppressions(self) -> dict[int, frozenset[str]]:
        table: dict[int, frozenset[str]] = {}
        directive_lines: dict[int, frozenset[str]] = {}
        for line, comment in self.comments.items():
            match = _SUPPRESS_RE.search(comment)
            if not match:
                continue
            names = match.group("rules")
            rules = (frozenset(r.strip() for r in names.split(","))
                     if names else ALL_RULES)
            table[line] = table.get(line, frozenset()) | rules
            directive_lines[line] = rules
        # A suppression on a comment-only line covers the next code line.
        targets: dict[int, int] = {}
        for line in sorted(self.comment_only_lines):
            if line not in table:
                continue
            target = line + 1
            while (target in self.comment_only_lines
                   or self.line_is_blank(target)):
                target += 1
            targets[line] = target
            table[target] = table.get(target, frozenset()) | table[line]
        self.directives = tuple(sorted(
            SuppressionDirective(line=line,
                                 target=targets.get(line, line),
                                 rules=rules)
            for line, rules in directive_lines.items()
        ))
        return table

    def suppressed(self, line: int, rule: str) -> bool:
        rules = self._suppressions.get(line)
        return bool(rules) and (rule in rules or rules == ALL_RULES)

    # -- parents ---------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (``None`` for the module)."""
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[id(child)] = outer
        return self._parents.get(id(node))

    def enclosing_statement(self, node: ast.AST) -> ast.stmt:
        """The nearest statement ancestor (or ``node`` itself)."""
        current: Optional[ast.AST] = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self.parent(current)
        if current is None:
            raise ValueError(f"no enclosing statement for {node!r}")
        return current
