"""Shared helpers for the svtlint tests."""

from pathlib import Path

from repro.lint.engine import lint_source
from repro.lint.source import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"


def lint_text(text, module, *rules):
    """Lint an inline snippet as if it lived at ``module``."""
    source = SourceFile(Path("<fixture>.py"), text=text, module=module)
    return lint_source(source, list(rules))


def hits(findings):
    """Findings as comparable ``(rule, line)`` pairs."""
    return [(finding.rule, finding.line) for finding in findings]
