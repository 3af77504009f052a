"""The chaos experiment: registry wiring, determinism, resilience math."""

from repro.exp import registry
from repro.exp.experiments.chaos import parse_rates
from repro.exp.runner import run_experiments

#: Small-but-real sweep so the determinism check stays fast.
FAST = {"iterations": 8, "rates": "0.0,0.2"}


def test_chaos_is_registered_with_full_matrix():
    experiment = registry.get("chaos")
    params = experiment.resolve({})
    cells = experiment.cells(params)
    # modes x rates, labelled "mode:rate".
    assert len(cells) == 3 * len(parse_rates(params["rates"]))
    assert "baseline:0" in cells          # the zero-fault control cell
    assert "sw_svt:0.3" in cells


def test_parse_rates():
    assert parse_rates("0.0, 0.1,0.3") == (0.0, 0.1, 0.3)


def test_chaos_jobs_do_not_change_the_document():
    # ISSUE acceptance: the resilience matrix is byte-identical at any
    # --jobs count.
    serial = run_experiments(["chaos"], overrides=FAST, jobs=1)
    parallel = run_experiments(["chaos"], overrides=FAST, jobs=4)
    assert parallel.to_json() == serial.to_json()


def test_chaos_result_accounts_for_every_fault():
    report = run_experiments(["chaos"], overrides=FAST, jobs=1)
    scalars = report.runs[0].result.scalars_dict
    assert scalars["injected_total"] > 0
    assert scalars["unresolved_total"] == 0
    assert scalars["deadlocked_total"] == 0
