"""The ``repro fuzz`` subcommand: determinism and exit-code gates."""

from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.fuzz.case import load_case

CORPUS = Path(__file__).parent / "corpus"

#: A campaign verified green on stock machines (small for suite time).
GREEN = ["--seed", "2019", "--runs", "3", "--ops", "10"]


def _campaign(capsys, *extra):
    code = repro_main(["fuzz", *GREEN, "--json", *extra])
    return code, capsys.readouterr().out


def test_campaign_is_byte_identical_across_invocations(capsys):
    code1, doc1 = _campaign(capsys)
    code2, doc2 = _campaign(capsys)
    assert (code1, code2) == (0, 0)
    assert doc1 == doc2


def test_campaign_is_byte_identical_across_jobs(capsys):
    code1, serial = _campaign(capsys)
    code2, parallel = _campaign(capsys, "--jobs", "2")
    assert (code1, code2) == (0, 0)
    assert serial == parallel
    assert '"jobs"' not in serial      # no environment echo in the doc


def test_bug_campaign_gates_on_expected_violation(capsys):
    code = repro_main(["fuzz", "--seed", "2019", "--runs", "2",
                       "--ops", "10", "--bug", "svt-clobber",
                       "--expect-violation", "--json"])
    capsys.readouterr()
    assert code == 0


def test_green_campaign_fails_expect_violation(capsys):
    code = repro_main(["fuzz", *GREEN, "--expect-violation",
                       "--json"])
    capsys.readouterr()
    assert code == 1


def test_corpus_replay_exits_zero(capsys):
    code = repro_main(["fuzz", "--corpus", str(CORPUS)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out


def test_save_failures_writes_replayable_cases(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code = repro_main(["fuzz", "--seed", "2019", "--runs", "2",
                       "--ops", "10", "--bug", "drop-redirect",
                       "--expect-violation", "--json",
                       "--save-failures", str(out_dir)])
    capsys.readouterr()
    assert code == 0
    saved = sorted(out_dir.glob("*.json"))
    assert saved
    for path in saved:
        case = load_case(path)
        assert case.bug == "drop-redirect"
        assert case.oracle
        assert len(case.ops) <= 10


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["fuzz", "--runs", "0"])      # rejected by the parser
    assert exc.value.code == 2
    assert repro_main(["fuzz", "--corpus", "/nonexistent-dir"]) == 2
    capsys.readouterr()


def test_out_writes_document(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code = repro_main(["fuzz", *GREEN, "--json", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert out.read_text() == stdout


@pytest.mark.parametrize("flag", ["--help"])
def test_help_mentions_the_knobs(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["fuzz", flag])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for knob in ("--seed", "--runs", "--budget", "--shrink",
                 "--cost-model", "--corpus"):
        assert knob in text
