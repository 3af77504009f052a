"""Engine edge cases: broken files, symlink cycles, suppressions."""

import os

import pytest

from repro.lint.determinism import DeterminismRule
from repro.lint.engine import iter_python_files, lint_tree

from tests.lint.helpers import hits


def test_syntax_error_becomes_svt000_without_aborting(tmp_path):
    pkg = tmp_path / "repro" / "exp"
    pkg.mkdir(parents=True)
    (pkg / "broken.py").write_text("def oops(:\n")
    (pkg / "planted.py").write_text("import random\n"
                                    "J = random.random()\n")
    findings = lint_tree([tmp_path], [DeterminismRule()]).findings
    assert ("SVT000", 1) in hits(findings)     # broken.py reported...
    assert ("SVT001", 2) in hits(findings)     # ...and the batch went on
    [svt000] = [f for f in findings if f.rule == "SVT000"]
    assert "syntax error" in svt000.message


def test_iter_python_files_sorted_and_deduplicated(tmp_path):
    (tmp_path / "b.py").write_text("B = 1\n")
    (tmp_path / "a.py").write_text("A = 1\n")
    files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
    assert [f.name for f in files] == ["a.py", "b.py"]


def symlinks_supported(tmp_path):
    try:
        os.symlink(tmp_path, tmp_path / "probe")
    except OSError:
        return False
    return True


def test_symlink_cycle_contributes_each_file_once(tmp_path):
    if not symlinks_supported(tmp_path):
        pytest.skip("symlinks unavailable")
    nested = tmp_path / "pkg"
    nested.mkdir()
    (nested / "mod.py").write_text("X = 1\n")
    os.symlink(tmp_path, nested / "loop")       # cycle: pkg/loop -> .
    files = list(iter_python_files([tmp_path]))
    assert [f.name for f in files] == ["mod.py"]


def test_same_file_via_two_links_counts_once(tmp_path):
    if not symlinks_supported(tmp_path):
        pytest.skip("symlinks unavailable")
    real = tmp_path / "real.py"
    real.write_text("import random\n"
                    "J = random.random()\n")
    os.symlink(real, tmp_path / "alias.py")
    files = list(iter_python_files([tmp_path]))
    assert len(files) == 1
    findings = lint_tree([tmp_path], [DeterminismRule()]).findings
    assert len(findings) <= 1


def plant(tmp_path, text):
    pkg = tmp_path / "repro" / "exp"
    pkg.mkdir(parents=True)
    (pkg / "planted.py").write_text(text)
    return tmp_path


def test_directive_covers_only_its_own_line(tmp_path):
    root = plant(tmp_path,
                 "import random\n"
                 "A = random.random()  # svtlint: disable=SVT001\n"
                 "B = random.random()\n")
    findings = lint_tree([root], [DeterminismRule()]).findings
    assert hits(findings) == [("SVT001", 3)]


def test_nested_suppressions_inner_statement_under_outer_comment(
        tmp_path):
    # A comment-only directive covers the next code line even inside
    # nested scopes; the sibling statement stays uncovered.
    root = plant(tmp_path,
                 "import random\n"
                 "def outer():\n"
                 "    def inner():\n"
                 "        # svtlint: disable=SVT001\n"
                 "        a = random.random()\n"
                 "        b = random.random()\n"
                 "        return a + b\n"
                 "    return inner\n")
    findings = lint_tree([root], [DeterminismRule()]).findings
    assert hits(findings) == [("SVT001", 6)]


def test_bare_disable_silences_multiple_rules_on_one_line(tmp_path):
    root = plant(tmp_path,
                 "import random\n"
                 "J = random.random()  # svtlint: disable\n")
    report = lint_tree([root], [DeterminismRule()])
    assert report.findings == []
    [path] = report.suppressions
    assert (2, "SVT001") in report.suppressions[path]
