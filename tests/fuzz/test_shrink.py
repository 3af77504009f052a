"""Shrinking: minimal, reproducible, deterministic."""

import pytest

from repro.fuzz.gen import generate_case
from repro.fuzz.harness import evaluate_case
from repro.fuzz.shrink import shrink_case

BUGS_AND_ORACLES = (("drop-redirect", "steering"),
                    ("svt-clobber", "crash"))


@pytest.mark.parametrize("bug,oracle", BUGS_AND_ORACLES)
def test_bug_cases_shrink_small_and_reproduce(bug, oracle):
    case = generate_case(2, n_ops=15, fault_ratio=0.0, bug=bug)
    report = evaluate_case(case)
    assert oracle in report.violated_oracles()
    shrunk, evals, reproducible = shrink_case(case, oracle)
    assert reproducible
    assert len(shrunk.ops) <= 10          # the acceptance bound
    assert 0 < evals <= 200
    assert shrunk.oracle == oracle
    assert dict(shrunk.meta)["shrunk_from"] == 15
    # The minimal case still carries the bug arming it.
    assert shrunk.bug == bug


def test_shrink_is_deterministic():
    case = generate_case(2, n_ops=12, fault_ratio=0.0,
                         bug="svt-clobber")
    first, _, _ = shrink_case(case, "crash")
    second, _, _ = shrink_case(case, "crash")
    assert first.to_json() == second.to_json()


def test_shrink_respects_budget():
    case = generate_case(2, n_ops=12, fault_ratio=0.0,
                         bug="drop-redirect")
    shrunk, evals, _ = shrink_case(case, "steering", budget=3)
    assert evals <= 3
    assert len(shrunk.ops) >= 1
