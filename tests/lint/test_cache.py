"""The incremental lint cache: hits, invalidation, corruption."""

import json

from repro.lint.cache import CACHE_VERSION, LintCache
from repro.lint.determinism import DeterminismRule
from repro.lint.engine import lint_tree
from repro.lint.races import SimStateRaceRule

from tests.lint.helpers import hits


def plant(tmp_path):
    pkg = tmp_path / "repro" / "exp"
    pkg.mkdir(parents=True)
    (pkg / "planted.py").write_text(
        "import random\n"
        "JITTER = random.random()\n")
    (pkg / "clean.py").write_text("VALUE = 1\n")
    return tmp_path


def run(root, cache):
    return lint_tree([root], [DeterminismRule()], cache=cache)


def test_cold_then_warm(tmp_path):
    root = plant(tmp_path)
    cache_dir = tmp_path / "cache"

    cold = LintCache(cache_dir)
    cold_findings = run(root, cold).findings
    assert cold.hits == 0 and cold.misses == 2

    warm = LintCache(cache_dir)
    warm_findings = run(root, warm).findings
    assert warm.hits == 2 and warm.misses == 0
    assert warm_findings == cold_findings
    assert hits(warm_findings) == [("SVT001", 2)]


def test_content_change_invalidates_only_that_file(tmp_path):
    root = plant(tmp_path)
    cache_dir = tmp_path / "cache"
    run(root, LintCache(cache_dir))

    planted = root / "repro" / "exp" / "planted.py"
    planted.write_text("import random\n"
                       "STABLE = 4\n")
    edited = LintCache(cache_dir)
    findings = run(root, edited).findings
    assert edited.hits == 1          # clean.py still served
    assert edited.misses == 1        # planted.py re-linted
    assert findings == []


def test_any_file_change_invalidates_the_project_pass(
        tmp_path, monkeypatch):
    root = plant(tmp_path)
    cache_dir = tmp_path / "cache"
    rules = [DeterminismRule(), SimStateRaceRule()]

    import repro.lint.graph as graph_module
    builds = []
    real = graph_module.ProjectGraph

    class CountingGraph(real):
        def __init__(self, *args, **kwargs):
            builds.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graph_module, "ProjectGraph", CountingGraph)

    lint_tree([root], rules, cache=LintCache(cache_dir))
    assert len(builds) == 1          # cold: graph built

    lint_tree([root], rules, cache=LintCache(cache_dir))
    assert len(builds) == 1          # warm: project pass served

    # Touching ANY file — even one with no graph edges — rebuilds.
    (root / "repro" / "exp" / "clean.py").write_text("VALUE = 2\n")
    lint_tree([root], rules, cache=LintCache(cache_dir))
    assert len(builds) == 2


def test_corrupt_entry_is_a_miss_and_rewritten(tmp_path):
    root = plant(tmp_path)
    cache_dir = tmp_path / "cache"
    run(root, LintCache(cache_dir))

    for entry in cache_dir.glob("f-*.json"):
        entry.write_text("{not json")
    recovered = LintCache(cache_dir)
    findings = run(root, recovered).findings
    assert recovered.misses == 2 and recovered.hits == 0
    assert hits(findings) == [("SVT001", 2)]

    rewarmed = LintCache(cache_dir)
    run(root, rewarmed)
    assert rewarmed.hits == 2


def test_version_skew_is_a_miss(tmp_path):
    root = plant(tmp_path)
    cache_dir = tmp_path / "cache"
    run(root, LintCache(cache_dir))

    for entry in cache_dir.glob("f-*.json"):
        payload = json.loads(entry.read_text())
        assert payload["version"] == CACHE_VERSION
        payload["version"] = "svtlint-cache/0"
        entry.write_text(json.dumps(payload))
    skewed = LintCache(cache_dir)
    findings = run(root, skewed).findings
    assert skewed.misses == 2 and skewed.hits == 0
    assert hits(findings) == [("SVT001", 2)]
