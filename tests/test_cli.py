"""Command-line interface."""

import json

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


@pytest.mark.parametrize("argv", [
    ["table1", "--iterations", "0"],
    ["table1", "--iterations", "-1"],
    ["run", "cpuid", "--iterations", "0"],
    ["deep", "--depth", "0"],
    ["chaos", "--smoke", "--iterations", "0"],
    ["chaos", "--smoke", "--iterations", "-3"],
    ["chaos", "--rates", "2.0"],
    ["chaos", "--rates=-0.1"],
    ["chaos", "--rates", "abc"],
    ["bench", "--smoke", "--experiments", "nope"],
    ["all", "--jobs", "0"],
    ["all", "--jobs", "-2"],
    ["fig6", "--jobs", "0"],
    ["chaos", "--smoke", "--jobs", "0"],
    ["bench", "--smoke", "--experiments", "table1", "--out", "{tmp}",
     "--repeats", "0"],
    ["bench", "--smoke", "--experiments", "table1", "--out", "{tmp}",
     "--repeats", "-5"],
    ["bench", "--smoke", "--experiments", "table1", "--out", "{tmp}",
     "--threshold", "-1"],
    ["fuzz", "--runs", "0"],
    ["fuzz", "--ops", "0"],
    ["fuzz", "--jobs", "0"],
    ["fuzz", "--budget", "0"],
    ["fuzz", "--budget", "-1"],
    ["dse", "--out", "{tmp}", "--iterations", "0"],
    ["dse", "--out", "{tmp}", "--iterations", "-3"],
    ["run", "cpuid", "--profile", "--profile-top", "0"],
    ["run", "cpuid", "--profile", "--profile-top", "-1"],
    ["loadtest", "--requests", "0"],
    ["loadtest", "--requests", "-2"],
    ["loadtest", "--concurrency", "0"],
    ["loadtest", "--jobs", "0"],
    ["loadtest", "--capacity", "0"],
    ["serve", "--jobs", "0"],
    ["serve", "--capacity", "0"],
    ["smoke"],
    ["all", "--out", "{tmp}"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_error_line(capsys, tmp_path, argv):
    # "{tmp}" stands for an output file no failure may leave behind.
    argv = [str(tmp_path / "out.json") if arg == "{tmp}" else arg
            for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines()
              if "error:" in line]
    assert len(errors) == 1, captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("narrowing", [
    ["--smoke"],
    ["--full"],
    ["--experiments", "fig6"],
], ids=" ".join)
def test_partial_bench_run_never_replaces_the_baseline(capsys, monkeypatch,
                                                        tmp_path, narrowing):
    from repro.exp import bench

    committed = bench.default_bench_path().read_bytes()
    baseline = tmp_path / "BENCH_sim.json"
    baseline.write_bytes(committed)
    monkeypatch.setattr(bench, "default_bench_path", lambda: baseline)
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", *narrowing])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert baseline.read_bytes() == committed


@pytest.mark.parametrize("narrowing", [
    ["--smoke"],
    ["--models", "arm-flavour"],
    ["--iterations", "5"],
], ids=" ".join)
def test_narrowed_dse_run_never_replaces_the_frontier(capsys, monkeypatch,
                                                       tmp_path, narrowing):
    from repro.exp import dse

    committed = dse.default_out_path().read_bytes()
    frontier = tmp_path / "dse_frontier.json"
    frontier.write_bytes(committed)
    monkeypatch.setattr(dse, "default_out_path", lambda: frontier)
    with pytest.raises(SystemExit) as exit_info:
        main(["dse", *narrowing])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if "error:" in line]
    assert len(errors) == 1
    assert frontier.read_bytes() == committed


def test_run_writes_trace_and_metrics_into_a_new_directory(capsys,
                                                           tmp_path):
    out = tmp_path / "new" / "dir"
    run_cli(capsys, "run", "cpuid", "--iterations", "2", "--no-breakdown",
            "--trace", str(out / "t.json"),
            "--metrics", str(out / "m.json"))
    assert json.loads((out / "t.json").read_text())["traceEvents"]
    metrics = json.loads((out / "m.json").read_text())
    assert metrics["schema"] == "repro-metrics/1"


@pytest.mark.parametrize("reports, code", [
    ([], 0),
    (["unordered access: vmcs:vmcs12.guest_rip"], 1),
], ids=["clean", "report"])
def test_sanitized_chaos_prints_the_verdict(capsys, monkeypatch, reports,
                                            code):
    from repro.sim import sanitizer

    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    run_experiments = runner.run_experiments

    def with_reports(*args, **kwargs):
        report = run_experiments(*args, **kwargs)
        report.sanitizer_reports.extend(reports)
        return report

    monkeypatch.setattr(runner, "run_experiments", with_reports)
    assert main(["chaos", "--smoke", "--json"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["experiments"]["chaos"]
    verdict = captured.err.splitlines()[-1]
    if reports:
        assert reports[0] in captured.err
        assert verdict == "sanitizer: 1 conflicting unordered access(es)"
    else:
        assert verdict == "sanitizer: no conflicting unordered accesses"
