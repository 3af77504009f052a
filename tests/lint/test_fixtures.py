"""Fixture trees: positive, negative and suppressed cases per rule."""

from collections import Counter

from repro.lint.cli import DEFAULT_RULES
from repro.lint.engine import lint_paths

from tests.lint.helpers import FIXTURES


def lint_tree(name):
    return lint_paths([FIXTURES / name],
                      [cls() for cls in DEFAULT_RULES])


def test_bad_tree_yields_every_rule():
    by_rule = Counter(finding.rule for finding in lint_tree("bad"))
    assert by_rule == Counter(
        {"SVT001": 11, "SVT002": 6, "SVT003": 4, "SVT004": 1,
         "SVT005": 4}
    )


def test_fuzz_package_is_svt001_scoped():
    """repro.fuzz is inside SVT001's scope, and its seed-derived
    streams (``derive_stream``) launder exactly like ``sim.rng``."""
    fuzz = [(f.rule, f.line) for f in lint_tree("bad")
            if f.path.endswith("fuzz/gen.py")]
    assert fuzz == [
        ("SVT001", 15),   # random.choice()
        ("SVT001", 16),   # time.time()
        ("SVT001", 18),   # set iteration
    ]
    assert not [f for f in lint_tree("ok")
                if f.path.endswith("fuzz/gen.py")]


def test_bad_tree_locations_are_exact():
    findings = lint_tree("bad")
    cells = [(f.rule, f.line) for f in findings
             if f.path.endswith("exp/cells.py")]
    assert cells == [
        ("SVT001", 20),   # tuple() over a set
        ("SVT001", 23),   # random.random()
        ("SVT001", 24),   # time.time()
        ("SVT001", 25),   # datetime.now()
        ("SVT001", 26),   # os.environ
        ("SVT001", 27),   # os.getenv()
        ("SVT001", 28),   # id()
        ("SVT003", 29),   # module dict write
        ("SVT003", 30),   # module dict .update()
        ("SVT003", 31),   # lambda in run_cell
        ("SVT001", 32),   # set iteration
        ("SVT004", 38),   # frozen Result mutation
        ("SVT003", 43),   # global declaration
    ]
    costs = [(f.rule, f.line) for f in findings
             if f.path.endswith("cpu/costs.py")]
    assert costs == [
        ("SVT002", 3),    # uncited module constant
        ("SVT002", 8),    # citation without an anchor
        ("SVT002", 12),   # uncited parameter default
    ]
    models = [(f.rule, f.line) for f in findings
              if f.path.endswith("costmodels/flavour.py")]
    assert models == [
        ("SVT002", 3),    # uncited module constant
        ("SVT002", 9),    # '# synthetic:' with no rationale
        ("SVT002", 11),   # uncited keyword argument
    ]


def test_ok_tree_is_clean():
    assert lint_tree("ok") == []


def test_suppressed_tree_is_clean():
    assert lint_tree("suppressed") == []
