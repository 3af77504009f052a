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

``results/<name>.txt`` is each registered experiment's live document as
the CLI renders it, ``table3`` included: a PR that edits a counted
module commits the new footprint table.  The files must match byte for
byte; ``pytest --update-golden`` rewrites them and deletes any
``results/*.txt`` no experiment renders.

The paper's claims are asserted on the same documents in
``tests/test_paper_claims.py``.
"""

import hashlib
import json
from itertools import takewhile
from pathlib import Path

from repro.analysis.report import render_result
from repro.exp import registry
from repro.exp.registry import RunContext
from repro.exp.result import Result, canonical_json

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_EXPECTED = REPO_ROOT / "perfbench" / "expected.json"
RESULTS_DIR = REPO_ROOT / "results"


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


def _rendered_results(documents):
    """``{file name: text}`` for every registered experiment."""
    results = {name: Result.from_dict(doc)
               for name, doc in documents.items()}
    for experiment in registry.experiments():
        if experiment.name not in results:
            results[experiment.name] = experiment.run(
                RunContext.create(experiment.resolve()))
    return {f"{name}.txt": render_result(result) + "\n"
            for name, result in results.items()}


def test_results_match_documents(golden, documents):
    rendered = _rendered_results(documents)
    committed = {path.name for path in RESULTS_DIR.glob("*.txt")}
    stale = sorted(committed - set(rendered))
    if golden.update:
        for name in stale:
            (RESULTS_DIR / name).unlink()
        for name, text in rendered.items():
            (RESULTS_DIR / name).write_bytes(text.encode())
        return
    problems = []
    for name, text in sorted(rendered.items()):
        if name not in committed:
            problems.append(f"results/{name} is missing")
            continue
        old = (RESULTS_DIR / name).read_bytes().decode()
        if old != text:
            same = takewhile(lambda pair: pair[0] == pair[1], zip(
                old.splitlines(True), text.splitlines(True)))
            problems.append(f"results/{name} differs from its live "
                            f"document at line {len(list(same)) + 1}")
    problems += [f"results/{name} is rendered by no experiment"
                 for name in stale]
    assert not problems, (
        "\n".join(problems)
        + "\nIf the change is intentional, regenerate with "
          "pytest --update-golden"
    )
