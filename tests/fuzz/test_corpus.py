"""Replay every committed counterexample in ``tests/fuzz/corpus/``.

Each corpus file is a shrunk, seed-deterministic fuzz case that once
violated an oracle against a deliberately broken fixture machine.  The
contract for keeping it committed:

* with its recorded ``bug`` armed, the recorded oracle still fires;
* on a stock machine the same program is green (the violation really
  was the bug's, not the simulator's).

Files whose ``schema`` is not the version this tree reads are skipped
with a reason, never a collection error — a future ``fuzzcase/2``
migration must not turn old cases into red tests.
"""

from pathlib import Path

import pytest

from repro.fuzz.case import CaseSchemaError, load_case
from repro.fuzz.harness import evaluate_case

CORPUS = Path(__file__).parent / "corpus"


def _collect():
    params = []
    for path in sorted(CORPUS.glob("*.json")):
        try:
            case = load_case(path)
        except CaseSchemaError as err:
            params.append(pytest.param(
                None, id=path.stem,
                marks=pytest.mark.skip(reason=str(err))))
            continue
        params.append(pytest.param(
            case, id=f"seed{case.seed}-{len(case.ops)}ops"))
    return params


def test_corpus_is_not_empty():
    assert list(CORPUS.glob("*.json"))


@pytest.mark.parametrize("case", _collect())
def test_corpus_case_replays(case):
    report = evaluate_case(case)
    assert case.oracle in report.violated_oracles(), (
        f"recorded oracle {case.oracle!r} no longer fires; "
        f"got {report.violated_oracles()}")
    if case.bug:
        stock = evaluate_case(case, bug="")
        assert not stock.failed, (
            "counterexample fails even without its bug: "
            f"{stock.violated_oracles()}")
