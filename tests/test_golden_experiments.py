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

The paper's claims (:mod:`repro.exp.claims`) are asserted on the same
documents in ``tests/test_paper_claims.py``.  EXPERIMENTS.md's
paper-vs-measured tables are rendered from the claim rows and the live
documents, ``table3`` included, between ``<!-- claims <name> -->`` and
``<!-- /claims -->`` markers, and gated the same way: a drift fails
naming the experiment and the first differing line, and
``pytest --update-golden`` rewrites the blocks.
"""

import hashlib
import json
import re
from itertools import takewhile
from pathlib import Path

import pytest

from repro.analysis.report import render_result
from repro.exp import claims, registry
from repro.exp.registry import RunContext
from repro.exp.result import Result, canonical_json

from tests.test_paper_claims import locate

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_EXPECTED = REPO_ROOT / "perfbench" / "expected.json"
RESULTS_DIR = REPO_ROOT / "results"
EXPERIMENTS_MD = REPO_ROOT / "EXPERIMENTS.md"
CLAIMS_BLOCK = re.compile(r"<!-- claims (\S+) -->\n(.*?)<!-- /claims -->",
                          re.DOTALL)


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


@pytest.fixture(scope="module")
def live_results(documents):
    """Every registered experiment's live Result, ``table3`` included."""
    results = {name: Result.from_dict(doc)
               for name, doc in documents.items()}
    for experiment in registry.experiments():
        if experiment.name not in results:
            results[experiment.name] = experiment.run(
                RunContext.create(experiment.resolve()))
    return results


def _first_difference(old, new):
    """1-based number of the first line where two texts differ."""
    same = takewhile(lambda pair: pair[0] == pair[1], zip(
        old.splitlines(True), new.splitlines(True)))
    return len(list(same)) + 1


def test_results_match_documents(golden, live_results):
    rendered = {f"{name}.txt": render_result(result) + "\n"
                for name, result in live_results.items()}
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
            problems.append(f"results/{name} differs from its live "
                            f"document at line "
                            f"{_first_difference(old, text)}")
    problems += [f"results/{name} is rendered by no experiment"
                 for name in stale]
    assert not problems, (
        "\n".join(problems)
        + "\nIf the change is intentional, regenerate with "
          "pytest --update-golden"
    )


def _cell(value):
    """A paper or measured value as EXPERIMENTS.md prints it."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.0f}" if abs(value) >= 1e4 else f"{value:.4g}"
    return str(value)


def _check_text(claim):
    kind, *args = claim.check
    if kind == "test":
        return f"`{args[0]}`"
    if kind == "eq":
        return "= paper"
    if kind == "rel":
        text = f"±{args[0]:.0%}"
    elif kind == "abs":
        text = f"±{args[0]:g}"
    elif kind == "abs<":
        return f"within ±{args[0]:g}, exclusive"
    else:
        low, high = args
        op = "≤" if kind == "closed" else "<"
        parts = ([f"{low:g} {op}"] if low is not None else []) + ["x"] \
            + ([f"{op} {high:g}"] if high is not None else [])
        return " ".join(parts)
    return text if claim.target is None \
        else f"{text} of {_cell(claim.target)}"


def _claims_table(name, document):
    """The paper-vs-measured markdown table of one experiment."""
    lines = ["| Claim | Paper | Measured | Check | Status |",
             "|---|---|---|---|---|"]
    for claim in claims.rows(name):
        where = " / ".join(claim.at) if isinstance(claim.at, tuple) \
            else claim.at
        try:
            measured = _cell(locate(document, claim.at))
        except KeyError:
            measured = "—"
        lines.append(f"| `{where}` | {_cell(claim.paper)} | {measured} | "
                     f"{_check_text(claim)} | {claim.status} |")
    return "\n".join(lines) + "\n"


def test_experiments_md_matches_claims(golden, live_results):
    rendered = {
        name: _claims_table(name, live_results[name].to_dict())
        for name in dict.fromkeys(c.experiment for c in claims.CLAIMS)
    }
    text = EXPERIMENTS_MD.read_text()
    #: name -> (committed table, line number of its first line)
    blocks = {match[1]: (match[2], text.count("\n", 0, match.start(2)) + 1)
              for match in CLAIMS_BLOCK.finditer(text)}
    problems = [f"EXPERIMENTS.md has no claims block for {name}"
                for name in rendered if name not in blocks]
    problems += [f"EXPERIMENTS.md's claims block {name} has no rows"
                 for name in blocks if name not in rendered]
    if golden.update:
        EXPERIMENTS_MD.write_text(CLAIMS_BLOCK.sub(
            lambda match: f"<!-- claims {match[1]} -->\n"
                          f"{rendered.get(match[1], match[2])}"
                          "<!-- /claims -->", text))
    else:
        for name, table in rendered.items():
            committed, first_line = blocks.get(name, (table, 0))
            if committed != table:
                line = first_line + _first_difference(committed, table) - 1
                problems.append(
                    f"EXPERIMENTS.md's {name} table differs from its "
                    f"claims and live document at line {line}: "
                    f"{text.splitlines()[line - 1]!r}")
    assert not problems, (
        "\n".join(problems)
        + "\nIf the change is intentional, regenerate with "
          "pytest --update-golden"
    )
