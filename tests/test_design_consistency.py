"""Documentation <-> code consistency.

DESIGN.md's module map must reference files that actually exist, and
DESIGN.md's per-experiment index and EXPERIMENTS.md must name every
registered experiment and cite only experiments, ``results/`` files
and claim tests that exist; nothing rots silently.
"""

import re
from pathlib import Path

import repro
from repro.exp import registry

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
DESIGN = (REPO_ROOT / "DESIGN.md").read_text()
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()
SRC = Path(repro.__file__).resolve().parent


def test_design_module_map_files_exist():
    # Lines like "  core/switch.py       description"
    referenced = re.findall(r"^\s{2}([a-z_/]+\.py)\s", DESIGN,
                            flags=re.MULTILINE)
    assert len(referenced) > 30
    for path in referenced:
        assert (SRC / path).exists(), f"DESIGN.md references missing {path}"


def _cited_experiments(text):
    """Experiment names a document cites as `repro <name>`."""
    return set(re.findall(r"`repro ([a-z0-9_]+)`", text))


def _cited_results(text):
    return set(re.findall(r"`(results/[a-z0-9_]+\.txt)`", text))


def test_design_experiment_targets_exist():
    cited = _cited_experiments(DESIGN)
    assert len(cited) >= 15
    assert cited <= set(registry.names()), sorted(
        cited - set(registry.names()))
    for path in _cited_results(DESIGN):
        assert (REPO_ROOT / path).exists(), path


def test_experiments_md_targets_exist():
    cited = _cited_experiments(EXPERIMENTS)
    assert cited <= set(registry.names()), sorted(
        cited - set(registry.names()))
    for path in _cited_results(EXPERIMENTS):
        assert (REPO_ROOT / path).exists(), path
    claims = (REPO_ROOT / "tests" / "test_paper_claims.py").read_text()
    for name in set(re.findall(r"`(test_[a-z0-9_]+)`", EXPERIMENTS)):
        assert f"def {name}(" in claims, name


def test_every_experiment_is_indexed_in_design():
    missing = set(registry.names()) - _cited_experiments(DESIGN)
    assert not missing, f"not indexed in DESIGN.md: {sorted(missing)}"


def test_every_experiment_is_documented_in_experiments_md():
    missing = set(registry.names()) - _cited_experiments(EXPERIMENTS)
    assert not missing, f"not documented in EXPERIMENTS.md: {sorted(missing)}"


def test_readme_examples_exist():
    readme = (REPO_ROOT / "README.md").read_text()
    examples = set(re.findall(r"`examples/([a-z0-9_]+\.py)`", readme))
    assert len(examples) >= 3
    for name in examples:
        assert (REPO_ROOT / "examples" / name).exists(), name


def test_paper_anchor_numbers_present_in_design():
    # The calibration anchors must be stated (and therefore auditable).
    for anchor in ("10.40", "1.23", "1.94", "2070", "840"):
        assert anchor in DESIGN


def test_design_declares_paper_match():
    assert "matches" in DESIGN.splitlines()[7].lower() or \
        "matches" in DESIGN[:800].lower()
