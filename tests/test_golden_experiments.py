"""Golden Result contract: every experiment's document, exactly.

``tests/golden/experiments.json`` holds the Result document of every
registered experiment at default parameters, except ``table3``, which
counts this repository's own lines of code and so moves with any edit.
The live documents must equal it exactly, with no float tolerance; a
drift fails naming the experiment and the JSON path of the field, e.g.
``experiments.fig7.tables[0].rows[2].values[1]``.  Regenerate with
``pytest --update-golden`` only when a Result is meant to change.

Every document the benchmark checks its output against
(``perfbench/expected.json``) must hash to its canonical-JSON sha256
digest there, so the two references cannot disagree; experiments
registered later are covered by the golden file alone.

The paper's headline claims are asserted on the same documents.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.exp import registry
from repro.exp.result import canonical_json
from repro.exp.runner import run_experiments

#: Experiments whose document depends on the source tree itself.
EXCLUDED = ("table3",)

BENCHMARK_EXPECTED = (Path(__file__).resolve().parents[1]
                      / "perfbench" / "expected.json")


@pytest.fixture(scope="module")
def documents():
    registry.ensure_loaded()
    names = [name for name in registry.names() if name not in EXCLUDED]
    report = run_experiments(names, cache=None)
    return {run.name: run.result.to_dict() for run in report.runs}


def test_documents_match_golden(golden, documents):
    golden.check("experiments", documents, rel_tol=None)


def test_documents_match_benchmark_digests(documents):
    digests = json.loads(BENCHMARK_EXPECTED.read_text())["digests"]
    missing = sorted(set(digests) - set(documents))
    assert not missing, f"benchmark digests name no live document: {missing}"
    for name, expected in sorted(digests.items()):
        digest = hashlib.sha256(
            canonical_json(documents[name]).encode()).hexdigest()
        assert digest == expected, \
            f"{name}: canonical JSON sha256 differs from perfbench's"


def test_fig8_paper_claims(documents):
    """Paper Fig. 8 (§6.3.1) at the experiment's default parameters:
    the 2.20x p99 / 1.43x average headline, more load within the SLA
    under SVt, and latency curves that rise with load."""
    fig8 = documents["fig8"]
    scalars = fig8["scalars"]
    assert scalars["p99_improvement"] == pytest.approx(2.20, abs=0.35)
    assert scalars["avg_improvement"] == pytest.approx(1.43, abs=0.25)
    assert (scalars["svt_max_kqps_in_sla"]
            > scalars["base_max_kqps_in_sla"])
    for series in fig8["series"]:
        p99s = [y for _x, y in series["points"]]
        assert p99s == sorted(p99s), series["name"]
