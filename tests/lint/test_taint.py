"""SVT008: the determinism-taint rule over its fixture trees."""

from pathlib import Path

from repro.lint.engine import lint_tree
from repro.lint.taint import DeterminismTaintRule

from tests.lint.helpers import FIXTURES


def taint_findings(tree):
    report = lint_tree([FIXTURES / "svt008" / tree],
                       [DeterminismTaintRule()])
    return report.findings


def test_bad_tree_flags_every_sink_kind():
    findings = taint_findings("bad")
    assert [(f.rule, f.line) for f in findings] == [
        ("SVT008", 15),   # wall clock -> Result constructor
        ("SVT008", 20),   # set order -> fingerprint call
        ("SVT008", 25),   # env read -> serialized artifact
        ("SVT008", 30),   # id() -> cache entry
    ]


def test_messages_carry_source_kind_and_sink():
    result, fingerprint, artifact, cache = taint_findings("bad")
    assert "time" in result.message
    assert "Result constructor" in result.message
    assert "set" in fingerprint.message.lower()
    assert "fingerprint" in fingerprint.message
    assert "environ" in artifact.message
    assert "cache entry" in cache.message


def test_ok_tree_is_quiet():
    assert taint_findings("ok") == []
