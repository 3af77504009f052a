"""Differential: sanitized parallel runs equal plain serial runs.

The ordering sanitizer (``REPRO_SIM_SANITIZE=1``) wraps shared
simulation state in checking proxies, and ``jobs=2`` runs cells in the
calling process and a forked helper.  Neither is allowed to perturb
results: every experiment's canonical result document must come out
byte-identical to a plain, serial, cache-less run.  This is the
whole-registry analogue of the fuzz harness's per-case kernel-identity
oracle, and it also proves the sanitizer flag reaches the helper (a
fork inherits the environment).
"""

import pytest

from repro.exp import registry
from repro.exp.runner import run_experiments
from repro.sim import sanitizer


def _documents(report):
    return {run.name: run.result.to_json() for run in report.runs}


@pytest.fixture(scope="module")
def plain_serial():
    registry.ensure_loaded()
    return run_experiments(registry.names(), jobs=1, cache=None,
                           smoke=True)


def test_registry_fully_covered(plain_serial):
    assert len(plain_serial.runs) == 22


def test_sanitized_parallel_is_byte_identical(plain_serial,
                                              monkeypatch):
    monkeypatch.setenv(sanitizer.ENV_FLAG, "1")
    registry.ensure_loaded()
    checked = run_experiments(registry.names(), jobs=2, cache=None,
                              smoke=True)
    assert checked.jobs == 2
    assert checked.sanitizer_reports == []
    plain = _documents(plain_serial)
    sanitized = _documents(checked)
    assert sorted(sanitized) == sorted(plain)
    for name, document in plain.items():
        assert sanitized[name] == document, (
            f"{name}: sanitized --jobs 2 run diverged from the "
            "plain serial run")
