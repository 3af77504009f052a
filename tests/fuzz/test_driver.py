"""The campaign driver on the runner's fan-out: an exception in a run
surfaces from ``run_campaign`` as a serial campaign would raise it."""

import os

import pytest

from repro.fuzz import driver

#: A small campaign: four runs of five ops each.
CAMPAIGN = {"seed": 2019, "runs": 4, "n_ops": 5}


class RunFailed(Exception):
    """Test-only: raised inside a campaign run."""


@pytest.fixture
def failing(monkeypatch):
    """The indices of runs that raise :class:`RunFailed`; afterwards no
    child may be left behind."""
    runs = set()
    case_seed = driver.case_seed

    def failing_case_seed(campaign_seed, index):
        if index in runs:
            raise RunFailed(f"run {index} failed")
        return case_seed(campaign_seed, index)

    monkeypatch.setattr(driver, "case_seed", failing_case_seed)
    yield runs
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("jobs, helpers", [(1, 0), (2, 1)])
def test_a_run_exception_keeps_its_type_and_message(failing, forks, jobs,
                                                    helpers):
    failing.add(2)
    with pytest.raises(RunFailed) as excinfo:
        driver.run_campaign(**CAMPAIGN, jobs=jobs)
    assert type(excinfo.value) is RunFailed
    assert str(excinfo.value) == "run 2 failed"
    assert len(forks) == helpers


def test_the_earliest_failing_run_is_raised(failing, forks):
    failing.update({1, 3})
    with pytest.raises(RunFailed, match="^run 1 failed$"):
        driver.run_campaign(**CAMPAIGN, jobs=2)
    assert len(forks) == 1
