"""The shipped examples must actually run (deliverable smoke tests)."""

import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = Path(repro.__file__).resolve().parent.parent.parent / "examples"


@pytest.mark.parametrize("script", sorted(EXAMPLES.glob("*.py")),
                         ids=lambda script: script.name)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, timeout=180,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_quickstart_prints_the_anchors():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "quickstart.py")],
        capture_output=True, text=True, timeout=180,
    )
    assert "10.40" in result.stdout
    assert "Figure 6" in result.stdout
    assert "Table 1" in result.stdout


def test_deadlock_demo_shows_both_outcomes():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / "deadlock_demo.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert "DEADLOCK" in result.stdout
    assert "completed" in result.stdout


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 6
    for script in scripts:
        text = script.read_text()
        assert text.startswith("#!/usr/bin/env python3"), script.name
        assert '"""' in text.split("\n", 2)[1], script.name
        assert "Usage::" in text, script.name
