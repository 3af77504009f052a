"""The shipped source tree must be violation-free.

This is the pytest integration of ``python -m repro lint``: the same
rules that gate CI run inside the tier-1 suite, so a nondeterminism or
provenance regression fails `make test` even where `make lint` is not
wired into the workflow.
"""

from pathlib import Path

import repro
from repro.lint.cli import DEFAULT_RULES
from repro.lint.engine import lint_paths
from repro.lint.source import module_name_for


def test_shipped_tree_has_zero_findings():
    tree = Path(repro.__file__).resolve().parent
    findings = lint_paths([tree], [cls() for cls in DEFAULT_RULES])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_module_name_derivation_matches_live_layout():
    tree = Path(repro.__file__).resolve().parent
    assert module_name_for(tree / "exp" / "runner.py") == \
        "repro.exp.runner"
    assert module_name_for(tree / "exp" / "__init__.py") == "repro.exp"
    assert module_name_for(tree / "cpu" / "costs.py") == \
        "repro.cpu.costs"
    assert module_name_for(Path("/somewhere/else/util.py")) == "util"


def test_every_default_rule_has_distinct_id():
    ids = [cls.rule_id for cls in DEFAULT_RULES]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))
