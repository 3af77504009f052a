"""Shared fixtures for the test suite."""

import collections
import json
import os
import signal
from pathlib import Path

import pytest

from repro.cpu.costs import CostModel
from repro.sim.engine import Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Experiments whose document depends on the source tree itself:
#: ``table3`` counts this repository's own lines of code.
SOURCE_DEPENDENT = ("table3",)

#: Per-test wall-clock ceiling (seconds) for the SIGALRM fallback below.
#: Generous — the whole suite runs in well under a minute — but finite,
#: so a hung blocking wait fails loudly instead of wedging CI.
FALLBACK_TIMEOUT_S = 120


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.json from the current simulator "
             "output instead of comparing against it",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Per-test timeout fallback when pytest-timeout is unavailable.

    CI installs pytest-timeout and passes ``--timeout``; the offline
    evaluation image has no network, so this hook arms a plain SIGALRM
    around each test instead.  It stands down whenever the real plugin
    is loaded (or off the main thread / non-Unix, where SIGALRM is
    unavailable).
    """
    use_alarm = (
        not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
    )
    if use_alarm:
        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the {FALLBACK_TIMEOUT_S}s fallback "
                "timeout (deadlocked wait?)"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(FALLBACK_TIMEOUT_S)
    try:
        yield
    finally:
        if use_alarm:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _assert_matches(got, expected, where, rel_tol):
    """Recursive structural compare; floats within ``rel_tol``, or
    exactly (type included) when ``rel_tol`` is None."""
    if rel_tol is not None and (isinstance(expected, float)
                                or isinstance(got, float)):
        assert got == pytest.approx(expected, rel=rel_tol), \
            f"{where}: {got} != {expected} (rel_tol={rel_tol})"
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(expected), \
            f"{where}: keys {sorted(got)} != {sorted(expected)}"
        for key in expected:
            _assert_matches(got[key], expected[key],
                            f"{where}.{key}", rel_tol)
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), \
            f"{where}: length {len(got)} != {len(expected)}"
        for i, (g, e) in enumerate(zip(got, expected)):
            _assert_matches(g, e, f"{where}[{i}]", rel_tol)
    else:
        assert type(got) is type(expected) and got == expected, \
            f"{where}: {got!r} != {expected!r}"


class GoldenStore:
    """Load/compare/update helper behind the ``golden`` fixture.

    ``check(name, data)`` compares ``data`` against
    ``tests/golden/<name>.json`` and fails with a pointer to
    ``--update-golden`` on drift; with the flag set it rewrites the
    file instead.  Integers and strings must match exactly (the
    simulator is deterministic); floats within ``rel_tol``, or exactly
    with ``rel_tol=None``.
    """

    def __init__(self, update):
        self.update = update

    def path(self, name):
        return GOLDEN_DIR / f"{name}.json"

    def load(self, name):
        """The pinned ``tests/golden/<name>.json``."""
        path = self.path(name)
        if not path.exists():
            pytest.fail(
                f"golden file {path} missing; run "
                f"pytest --update-golden to create it"
            )
        return json.loads(path.read_text())

    def check(self, name, data, rel_tol=1e-9):
        path = self.path(name)
        encoded = json.dumps(data, sort_keys=True, indent=2) + "\n"
        if self.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(encoded)
            return json.loads(encoded)
        expected = self.load(name)
        got = json.loads(encoded)   # normalize tuples/ints the same way
        try:
            _assert_matches(got, expected, name, rel_tol)
        except AssertionError as exc:
            pytest.fail(
                f"output drifted from golden/{path.name}: {exc}\n"
                f"If the change is intentional, regenerate with "
                f"pytest --update-golden"
            )
        return expected


@pytest.fixture
def golden(request):
    return GoldenStore(request.config.getoption("--update-golden"))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def costs():
    return CostModel()


class HostWork(collections.Counter):
    """Calls per named counter, checked against pinned counts."""

    def drift(self, pinned):
        """One line per counter off its pin; a counter not pinned is
        pinned at 0."""
        return [f"{name}: {self[name]} calls, pinned {pinned.get(name, 0)}"
                for name in sorted(set(self) | set(pinned))
                if self[name] != pinned.get(name, 0)]


@pytest.fixture
def cache_host_work(monkeypatch):
    """Counts ``ResultCache.key`` calls, ``CostModel.digest``
    computations (``CostModel.digest[<model_id>]``) and the Result
    codec's ``Result.to_json`` and ``Result.from_dict`` calls in this
    process from here on.

    Every registered model starts with no digest kept, so a count
    reads the same whichever tests ran before in the process.
    """
    from repro.cpu import costmodels
    from repro.exp.cache import ResultCache
    from repro.exp.result import Result

    counts = HostWork()
    key, digest = ResultCache.key, CostModel.digest.func
    to_json, from_dict = Result.to_json, Result.from_dict.__func__

    def counted_key(cache, name, params):
        counts["ResultCache.key"] += 1
        return key(cache, name, params)

    def counted_digest(model):
        counts[f"CostModel.digest[{model.model_id}]"] += 1
        return digest(model)

    def counted_to_json(result):
        counts["Result.to_json"] += 1
        return to_json(result)

    def counted_from_dict(cls, doc):
        counts["Result.from_dict"] += 1
        return from_dict(cls, doc)

    monkeypatch.setattr(ResultCache, "key", counted_key)
    monkeypatch.setattr(CostModel.digest, "func", counted_digest)
    monkeypatch.setattr(Result, "to_json", counted_to_json)
    monkeypatch.setattr(Result, "from_dict",
                        classmethod(counted_from_dict))
    for name in costmodels.model_names():
        monkeypatch.delitem(vars(costmodels.get_model(name)), "digest",
                            raising=False)
    return counts


@pytest.fixture
def forks(monkeypatch):
    """How many times this process forks (the fan-out's helpers)."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture(scope="session")
def documents():
    """Every registered experiment's live Result document at default
    parameters, except the :data:`SOURCE_DEPENDENT` ones: the documents
    the golden file pins and the paper claims are asserted on."""
    from repro.exp import registry
    from repro.exp.runner import run_experiments

    names = [name for name in registry.names()
             if name not in SOURCE_DEPENDENT]
    report = run_experiments(names, cache=None)
    return {run.name: run.result.to_dict() for run in report.runs}
