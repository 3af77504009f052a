"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.exp import registry, runner


def run_cli(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fig99"])


def test_table1(capsys):
    out = run_cli(capsys, "table1", "--iterations", "5")
    assert "Table 1" in out
    assert "L0 handler" in out
    assert "4.89" in out


def test_table3(capsys):
    out = run_cli(capsys, "table3")
    assert "+2432/-51" in out


def test_table4(capsys):
    out = run_cli(capsys, "table4")
    assert "2xIntel E5-2630v3" in out


def test_fig6(capsys):
    out = run_cli(capsys, "fig6", "--iterations", "5")
    assert "HW SVt" in out
    assert "1.94x" in out


def test_fig9(capsys):
    out = run_cli(capsys, "fig9")
    assert "6.37" in out


def test_fig10(capsys):
    out = run_cli(capsys, "fig10")
    assert "120 FPS" in out


def test_sec61(capsys):
    out = run_cli(capsys, "sec61")
    assert "OK" in out
    assert "FAIL" not in out


def test_deep(capsys):
    out = run_cli(capsys, "deep", "--depth", "3")
    assert "L3" in out


def test_coexist(capsys):
    out = run_cli(capsys, "coexist")
    assert "traps/s" in out


def test_l3(capsys):
    out = run_cli(capsys, "l3")
    assert "third level" in out
    assert "hw_svt" in out


def test_related(capsys):
    out = run_cli(capsys, "related")
    assert "sriov" in out
    assert "no live migration" in out


def test_all_without_flags_runs_every_experiment_at_its_defaults(
        monkeypatch):
    """``repro all`` with no flags must not override any experiment's
    declared defaults (chaos declares seed 2019, fig8 and fig10 seed
    7)."""
    captured = {}

    class Captured(Exception):
        pass

    def capture(names, overrides=None, **_kwargs):
        captured.update(names=list(names), overrides=overrides)
        raise Captured

    monkeypatch.setattr(runner, "run_experiments", capture)
    with pytest.raises(Captured):
        main(["all", "--json", "--no-cache"])
    assert captured["names"] == registry.names()
    for experiment in registry.experiments():
        assert (experiment.resolve(captured["overrides"])
                == experiment.all_defaults()), experiment.name
