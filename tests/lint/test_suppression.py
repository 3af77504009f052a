"""Inline ``# svtlint: disable=...`` suppression handling."""

import textwrap

from repro.lint.determinism import DeterminismRule
from repro.lint.poolsafety import PoolSafetyRule

from tests.lint.helpers import hits, lint_text


def check(text, *rules):
    rules = rules or (DeterminismRule(),)
    return lint_text(textwrap.dedent(text), "repro.exp.sample", *rules)


def test_same_line_suppression():
    assert check("""
        import random
        x = random.random()  # svtlint: disable=SVT001
    """) == []


def test_suppression_on_comment_line_above():
    assert check("""
        import random
        # svtlint: disable=SVT001
        x = random.random()
    """) == []


def test_bare_disable_covers_every_rule():
    assert check("""
        import random

        STATE = {}

        class Exp:
            def run_cell(self, cell, params):
                STATE[cell] = random.random()  # svtlint: disable
                return cell
    """, DeterminismRule(), PoolSafetyRule()) == []


def test_suppression_is_rule_specific():
    findings = check("""
        import random

        STATE = {}

        class Exp:
            def run_cell(self, cell, params):
                STATE[cell] = random.random()  # svtlint: disable=SVT003
                return cell
    """, DeterminismRule(), PoolSafetyRule())
    assert hits(findings) == [("SVT001", 8)]


def test_suppression_list_syntax():
    assert check("""
        import random

        STATE = {}

        class Exp:
            def run_cell(self, cell, params):
                # svtlint: disable=SVT001,SVT003
                STATE[cell] = random.random()
                return cell
    """, DeterminismRule(), PoolSafetyRule()) == []


def test_suppression_does_not_leak_to_later_lines():
    findings = check("""
        import random
        x = random.random()  # svtlint: disable=SVT001
        y = random.random()
    """)
    assert hits(findings) == [("SVT001", 4)]
